"""Whole-model width and depth expansion.

Width expansion replicates neurons and attention heads circularly and
splits their fan-out weights according to a policy; norm layers get the
gain-corrected parameter expansion; embeddings and the decoder are
expanded so the target model reproduces the source model's logits on
every input.  Depth expansion inserts blocks immediately after the
block they copy, built so that their contribution to the residual
stream is exactly zero at initialization.

Fan-out policies
----------------
``lemon``          equal split plus zero-sum noise, so replicated units
                   carry pairwise-distinct fan-out (symmetry broken).
``net2net_equal``  all replicas share the identical equal split; the
                   replicas stay exactly interchangeable.
``zero_tail``      the first copy keeps the whole fan-out, later copies
                   get zeros.

Depth modes
-----------
``type1``  the inserted block's output projections (attention output
           and second MLP layer, plus their biases) are zeroed.
``type2``  the inserted block keeps nonzero output projections arranged
           as cancelling ± pairs over replicated units.  The pairs are
           laid out so every output element sees exactly one ± pair,
           which makes the cancellation exact in floating point, not
           just in exact arithmetic.

Per-style stream conventions: pre-norm and post-norm streams carry
average-expanded activations, the post-residual-norm and RMS styles
carry zero-expanded activations.  Post-norm (``post_ln``) supports
divisible widths only and grows depth through a dedicated block chain;
the residual-norm style inserts blocks whose norm weights are all
zero.  All randomness comes from per-role counter-based substreams of
the plan seed, so expansion is bitwise reproducible and per-block work
could run in parallel without changing the result.

Expansion arithmetic runs in float64; float32 models are promoted on
the way in and cast back on the way out.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .container import CheckpointReader, write_tensors
from .errors import PlanError
from .expand_ops import (COL_MODES, _check_extents, expand_bias, expand_layernorm,
                         expand_matrix_cols, expand_matrix_rows, expand_rmsnorm,
                         expand_vector, row_blocks)
from .model import (AttentionWeights, BlockWeights, EmbeddingWeights,
                    HeadWeights, MlpWeights, ModelSpec, ModelWeights,
                    NormParams, block_schema, decoder_schema,
                    embedding_schema, flat_arrays, nonfinite_tensor,
                    spec_with, validate_weights)
from .rng import check_seed, substream

POLICIES = ("lemon", "net2net_equal", "zero_tail")
DEPTH_MODES = ("type1", "type2")
DEPTH_SOURCES = ("self", "next")

#: replicated fan-out entries under the lemon policy must differ by more
#: than this fraction of the noise scale (enforced by redraw)
MIN_SEPARATION = 1e-6

DEFAULT_NOISE_SCALE = 0.02


@dataclass(frozen=True)
class ExpansionPlan:
    """Source-to-target expansion request.

    ``depth_source`` selects where inserted blocks copy their non-output
    weights from: the block they follow (``self``, default) or the next
    block over (``next``), which seeds the new block with the upcoming
    layer's features instead of repeating the previous ones.  Norm-layer
    tails are drawn uniform on (-1, 1) and matrix split noise is
    N(0, noise_scale^2).
    """

    target_width: int
    target_depth: int
    policy: str = "lemon"
    depth_mode: str = "type1"
    seed: int = 0
    noise_scale: float = DEFAULT_NOISE_SCALE
    depth_source: str = "self"

    def validate(self, spec: ModelSpec) -> "ExpansionPlan":
        if self.policy not in POLICIES:
            raise PlanError(f"unknown policy {self.policy!r}")
        if self.depth_mode not in DEPTH_MODES:
            raise PlanError(f"unknown depth_mode {self.depth_mode!r}")
        if self.depth_source not in DEPTH_SOURCES:
            raise PlanError(f"unknown depth_source {self.depth_source!r}")
        if not (math.isfinite(self.noise_scale) and self.noise_scale > 0):
            raise PlanError("noise_scale must be finite and positive")
        check_seed(self.seed)
        if self.target_width < spec.width:
            raise PlanError(f"target width {self.target_width} below source {spec.width}")
        if self.target_depth < spec.depth:
            raise PlanError(f"target depth {self.target_depth} below source {spec.depth}")
        if self.target_width % spec.head_dim != 0:
            raise PlanError(f"target width {self.target_width} not a multiple of "
                            f"head_dim {spec.head_dim} (head dimension is preserved)")
        if spec.norm_style == "post_ln" and self.target_width % spec.width != 0:
            raise PlanError("post_ln models support divisible width expansion only")
        if spec.depth == 0 and self.target_depth > 0:
            raise PlanError("cannot grow depth of a zero-depth model")
        return self


# ---------------------------------------------------------------------------
# policy-driven column splits


def _split_copies(m: np.ndarray, out, policy: str,
                  rng: np.random.Generator, noise_scale: float):
    """Split ``m`` into ``copies = len(out)`` replicas summing to ``m``,
    written into ``out``, a sequence of float64 arrays or views shaped
    like ``m``, which is returned.

    ``net2net_equal`` gives every replica an equal share and
    ``zero_tail`` gives the first replica all of ``m`` and the rest
    zeros.  ``lemon`` adds N(0, noise_scale^2) noise to the equal shares
    and lets the last replica close the sum.  Every entry of every pair
    of lemon replicas must differ by more than ``MIN_SEPARATION *
    noise_scale``; the columns that miss it are redrawn, and
    :class:`PlanError` is raised if any still do after 64 attempts.
    """
    copies = len(out)
    if copies == 1 or policy == "zero_tail":
        out[0][...] = m
        for o in out[1:]:
            o[...] = 0.0
        return out
    if policy == "net2net_equal":
        share = m / copies
        for o in out:
            o[...] = share
        return out
    cols = np.arange(m.shape[1])
    todo = slice(None)  # columns still to draw: all of them, then the close ones
    for _ in range(64):
        sub = m[:, todo]
        parts = rng.normal(0.0, noise_scale, size=(copies - 1,) + sub.shape)
        parts += sub / copies
        for o, part in zip(out, parts):
            o[:, todo] = part
        close = np.zeros(sub.shape[1], dtype=bool)
        # an overflowing split is not close here, and its caller rejects it
        # (the column sum check, or _finite_noise): no warning on top.  Each
        # temporary is reused in place and dropped once written out.
        with np.errstate(over="ignore", invalid="ignore"):
            last = parts.sum(axis=0)
            del parts
            out[-1][:, todo] = np.subtract(sub, last, out=last)
            del last
            for a, b in itertools.combinations([o[:, todo] for o in out], 2):
                gap = np.subtract(a, b)
                close |= (np.abs(gap, out=gap) <= MIN_SEPARATION * noise_scale).any(axis=0)
                del gap
        todo = cols[todo][close]
        if not todo.size:
            return out
    raise PlanError("could not draw separated split noise in 64 attempts")


def _finite_noise(z: np.ndarray, noise_scale: float) -> np.ndarray:
    """``z`` as drawn, or PlanError if a draw overflowed; for the noise
    no sum check covers: a lemon ``rand`` tail and the type2 ± pairs."""
    if not np.isfinite(z).all():
        raise PlanError(f"noise_scale {noise_scale:g} overflows the split noise")
    return z


def column_split(m: np.ndarray, d_t: int, mode: str, policy: str,
                 rng: np.random.Generator, noise_scale: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Draw a column split of ``m`` to ``d_t`` columns, check it with
    :func:`lemon.expand_ops.expand_matrix_cols`, and return it.

    The split is its grown ``(p, d_t)`` matrix: the per-copy parts, then
    the ``rand`` tail or ``circ`` residual.  The parts always satisfy the
    sum constraints; the policy only decides how the total is distributed
    between replicas (and what fills the free ``rand`` tail).

    Every split is drawn in float64, from ``m`` promoted to float64, so
    that its sums are checked at float64 precision; a caller that wants
    another dtype casts the grown matrix once.  That matrix is allocated
    once, or is ``out`` when given (a float64 array or view of that
    shape), and every piece is drawn straight into its column block.  It
    never shares memory with ``m``.
    """
    if policy not in POLICIES:
        raise PlanError(f"unknown policy {policy!r}")
    if mode not in COL_MODES:
        raise PlanError(f"unknown column mode {mode!r}")
    m = np.asarray(m, dtype=np.float64)
    p, d_s = m.shape
    k, r = _check_extents(d_s, d_t)
    grown = np.empty((p, d_t)) if out is None else out
    # k parts of d_s columns, then the r tail or residual columns
    blocks = [grown[:, i * d_s:(i + 1) * d_s] for i in range(k + 1)]
    if mode == "rand":
        _split_copies(m, blocks[:k], policy, rng, noise_scale)
        if policy == "lemon":
            blocks[k][...] = _finite_noise(rng.normal(0.0, noise_scale, size=(p, r)),
                                           noise_scale)
        elif policy == "zero_tail":
            blocks[k][...] = 0.0
        else:
            blocks[k][...] = m[:, :r]  # circular wrap keeps replicas identical
    else:
        # the leading r columns wrap around, so they are consumed k+1 times:
        # once in each part and once more in the residual after the last
        _split_copies(m[:, :r], [b[:, :r] for b in blocks], policy, rng, noise_scale)
        _split_copies(m[:, r:], [b[:, r:] for b in blocks[:k]], policy, rng, noise_scale)
    return expand_matrix_cols(m, d_t, mode, grown)


# ---------------------------------------------------------------------------
# width expansion of individual layers


def _row_expanded_cols(m: np.ndarray, d_rows: int, row_mode: str, d_cols: int,
                       col_mode: str, policy: str, rng: np.random.Generator,
                       noise_scale: float) -> np.ndarray:
    """Row expansion followed by a policy-driven column split, drawn and
    checked one row block (:func:`~lemon.expand_ops.row_blocks`) at a
    time, in row order, straight into one grown float64 matrix, which is
    cast once to the dtype of ``m``."""
    grown = np.empty((d_rows, d_cols))
    for rows, block in row_blocks(m, d_rows, row_mode):
        column_split(block, d_cols, col_mode, policy, rng, noise_scale, out=grown[rows])
    return grown.astype(m.dtype, copy=False)


def _expand_head(head: HeadWeights, d_t: int, policy: str,
                 rng: np.random.Generator, noise_scale: float) -> HeadWeights:
    """Expand one head's input dimension; its biases and output dim stay."""
    def grow(w: np.ndarray) -> np.ndarray:
        return _row_expanded_cols(w, w.shape[0], "circ", d_t, "rand", policy, rng,
                                  noise_scale)

    return HeadWeights(grow(head.wq), grow(head.wk), grow(head.wv),
                       head.bq.copy(), head.bk.copy(), head.bv.copy())


def _expand_heads(attn: AttentionWeights, spec: ModelSpec, d_t: int, policy: str,
                  rng: np.random.Generator, noise_scale: float) -> list[HeadWeights]:
    """The heads of ``attn`` replicated circularly to width ``d_t``, each
    replica drawing its own input-dimension split."""
    return [_expand_head(attn.heads[m % spec.n_heads], d_t, policy, rng, noise_scale)
            for m in range(d_t // spec.head_dim)]


def expand_mha(attn: AttentionWeights, spec: ModelSpec, d_t: int, policy: str,
               rng: np.random.Generator, noise_scale: float,
               row_mode: str = "avg") -> AttentionWeights:
    """Expand attention weights to width ``d_t``.

    Heads replicate circularly (head dimension unchanged), each replica
    drawing its own input-dimension split so replicas are distinguishable
    under the lemon policy.  The output projection expands rows with
    ``row_mode`` and columns with a policy-driven circular split, making
    the whole module map zero-expanded inputs to ``row_mode``-expanded
    outputs exactly as the source module maps the originals.
    """
    heads = _expand_heads(attn, spec, d_t, policy, rng, noise_scale)
    wo_t = _row_expanded_cols(attn.wo, d_t, row_mode, d_t, "circ", policy, rng, noise_scale)
    bo_t = expand_bias(attn.bo, d_t, row_mode)
    return AttentionWeights(heads, wo_t, bo_t)


def expand_mlp(mlp: MlpWeights, spec: ModelSpec, d_t: int, hidden_t: int,
               policy: str, rng: np.random.Generator, noise_scale: float,
               row_mode: str = "avg") -> MlpWeights:
    """Expand MLP weights to width ``d_t`` / hidden size ``hidden_t``.

    The first layer grows rows circularly and columns by a random split;
    the second grows rows by ``row_mode`` and columns by a policy-driven
    circular split (the fan-out of the replicated hidden units).
    """
    w1_t = _row_expanded_cols(mlp.w1, hidden_t, "circ", d_t, "rand", policy, rng, noise_scale)
    b1_t = expand_bias(mlp.b1, hidden_t, "circ")
    w2_t = _row_expanded_cols(mlp.w2, d_t, row_mode, hidden_t, "circ", policy, rng,
                              noise_scale)
    b2_t = expand_bias(mlp.b2, d_t, row_mode)
    return MlpWeights(w1_t, b1_t, w2_t, b2_t)


def expand_norm_params(norm: NormParams, d_t: int, rng: np.random.Generator,
                       is_rms: bool) -> NormParams:
    """Gain-corrected norm expansion with a uniform (-1, 1) free tail."""
    r = d_t % norm.mu.shape[0]
    tail = rng.uniform(-1.0, 1.0, size=r).astype(norm.mu.dtype)
    if is_rms:
        mu, eps = expand_rmsnorm(norm.mu, norm.eps, d_t, tail)
        return NormParams(mu, None, eps)
    mu, beta, eps = expand_layernorm(norm.mu, norm.beta, norm.eps, d_t, tail)
    return NormParams(mu, beta, eps)


def _widened(block: BlockWeights, spec: ModelSpec, d_t: int, hidden_t: int,
             policy: str, rng: np.random.Generator,
             noise_scale: float) -> Iterator[list]:
    """The width expansion of ``block``, a half at a time: ``[ln1, attn]``,
    then ``[ln2, mlp]``, each drawn from ``rng`` only when asked for, in
    that order.  The source attention half is dropped once widened."""
    row_mode = "zero" if spec.is_rms else "avg"
    ln2, mlp = block.ln2, block.mlp
    yield [expand_norm_params(block.ln1, d_t, rng, spec.is_rms),
           expand_mha(block.attn, spec, d_t, policy, rng, noise_scale, row_mode)]
    del block
    yield [expand_norm_params(ln2, d_t, rng, spec.is_rms),
           expand_mlp(mlp, spec, d_t, hidden_t, policy, rng, noise_scale, row_mode)]


def expand_block_width(block: BlockWeights, spec: ModelSpec, d_t: int,
                       hidden_t: int, policy: str, rng: np.random.Generator,
                       noise_scale: float) -> BlockWeights:
    """Expand one block: both norms, the attention module, and the MLP."""
    return BlockWeights(*itertools.chain.from_iterable(
        _widened(block, spec, d_t, hidden_t, policy, rng, noise_scale)))


def expand_embeddings(emb: EmbeddingWeights, spec: ModelSpec, d_t: int,
                      mode: str) -> EmbeddingWeights:
    """Expand every embedding vector (token rows, patch-projection output
    channels, class token, positions) with the stream's vector mode."""
    out = EmbeddingWeights()
    if emb.token_table is not None:
        out.token_table = expand_vector(emb.token_table, d_t, mode)
    if emb.patch_weight is not None:
        out.patch_weight = expand_matrix_rows(emb.patch_weight, d_t, mode)
        out.patch_bias = expand_bias(emb.patch_bias, d_t, mode)
        out.cls_token = expand_vector(emb.cls_token, d_t, mode)
        out.positions = expand_vector(emb.positions, d_t, mode)
    return out


def expand_decoder(dec_weight: np.ndarray, d_t: int, policy: str,
                   rng: np.random.Generator, noise_scale: float) -> np.ndarray:
    """Expand an untied decoder's input dimension; logits are unchanged
    because the extra columns only ever multiply zeros."""
    return _row_expanded_cols(dec_weight, dec_weight.shape[0], "circ", d_t, "rand",
                              policy, rng, noise_scale)


# ---------------------------------------------------------------------------
# replica bookkeeping


def replica_groups(n_source: int, n_target: int) -> dict[int, list[int]]:
    """Map each source index to its target replicas (groups of size >= 2)."""
    groups: dict[int, list[int]] = {}
    for j in range(n_target):
        groups.setdefault(j % n_source, []).append(j)
    return {s: idx for s, idx in groups.items() if len(idx) >= 2}


def layer_multiplicities(l_s: int, l_t: int) -> list[int]:
    """As-even-as-possible copy counts; earlier blocks get the extras."""
    if l_s == 0:
        return []
    base, extra = divmod(l_t, l_s)
    return [base + (1 if i < extra else 0) for i in range(l_s)]


# ---------------------------------------------------------------------------
# depth expansion


def _zeroed(w, *names: str):
    """``w`` with its fields ``names`` holding zeros shaped like its own;
    every other field holds ``w``'s own array, not a copy."""
    return replace(w, **{n: None if getattr(w, n) is None else np.zeros_like(getattr(w, n))
                         for n in names})


def _zero_output_halves(donor: list) -> Iterator[list]:
    """type1: the donor's widened halves with both output projections
    zeroed.  Only their norms, heads and first MLP layer are read, so the
    donor's ``wo``, ``bo``, ``w2`` and ``b2`` may be None."""
    (ln1, attn), (ln2, mlp) = donor
    del donor
    d_t = ln1.mu.shape[0]
    yield [ln1, AttentionWeights(attn.heads, np.zeros((d_t, d_t)), np.zeros(d_t))]
    del ln1, attn
    yield [ln2, MlpWeights(mlp.w1, mlp.b1, np.zeros(mlp.w1.shape[::-1]), np.zeros(d_t))]


def _cancelling_fanout(d_t: int, units_s: int, units_t: int, size: int, dtype,
                       rng: np.random.Generator, noise_scale: float) -> np.ndarray:
    """A ``(d_t, units_t * size)`` output projection over ``units_t``
    replicated units of ``size`` columns each (heads, or hidden units of
    size 1), whose fan-out forms ± pairs: unit ``s`` pairs with unit
    ``s + units_s``, and every output element gets exactly one pair."""
    w = np.zeros((d_t, units_t * size), dtype=dtype)
    paired = min(units_s, units_t - units_s)
    if paired > 0:
        rows = np.arange(d_t)
        cols = (rows % paired) * size + rows % size
        # the lemon split of a zero row into two copies is exactly (a, -a)
        pair = _split_copies(np.zeros((1, d_t)), np.empty((2, 1, d_t)), "lemon",
                             rng, noise_scale)
        plus, minus = _finite_noise(pair[:, 0], noise_scale)
        w[rows, cols] = plus
        w[rows, cols + units_s * size] = minus
    return w


def _cancelling_halves(src: BlockWeights, ln1: NormParams, ln2: NormParams,
                       spec: ModelSpec, d_t: int, hidden_t: int, policy: str,
                       rng: np.random.Generator, noise_scale: float) -> Iterator[list]:
    """type2: replicas share bitwise-identical incoming weights and their
    fan-out forms ± pairs, one pair per output element, so the module
    output is exactly zero on any input while the output projections stay
    trainable.

    The block is built from the source block ``src``; of the carrier it
    reads only the width-expanded norms ``ln1`` and ``ln2``.  Units
    without a replica (including every unit when the width is not grown)
    get zero fan-out, which is the only zero-sum choice for a group of
    one.  The attention half is drawn from ``rng`` first, the MLP half
    only once that has been taken.
    """
    hd, h_s, h_t = spec.head_dim, spec.n_heads, d_t // spec.head_dim
    heads = [_expand_head(src.attn.heads[s], d_t, policy, rng, noise_scale)
             for s in range(h_s)]
    # the first replica of each head keeps the grown head, later ones copy it
    heads += [map_arrays(heads[m % h_s], np.copy) for m in range(h_s, h_t)]
    wo = _cancelling_fanout(d_t, h_s, h_t, hd, src.attn.wo.dtype, rng, noise_scale)
    yield [ln1, AttentionWeights(heads, wo, np.zeros(d_t, dtype=src.attn.bo.dtype))]
    del heads, wo

    # the columns grow first, so every replica row is the same; the split
    # is drawn into the leading rows of w1, and the replicas copy them
    w1 = np.empty((hidden_t, d_t))
    top = w1[:spec.hidden_dim]
    column_split(src.mlp.w1, d_t, "rand", policy, rng, noise_scale, out=top)
    for rows, block in row_blocks(top, hidden_t, "circ")[1:]:
        w1[rows] = block
    w2 = _cancelling_fanout(d_t, spec.hidden_dim, hidden_t, 1, src.mlp.w2.dtype,
                            rng, noise_scale)
    yield [ln2, MlpWeights(w1.astype(src.mlp.w1.dtype, copy=False),
                           expand_bias(src.mlp.b1, hidden_t, "circ"), w2,
                           np.zeros(d_t, dtype=src.mlp.b2.dtype))]


def _zero_norm_halves(donor: list) -> Iterator[list]:
    """post_res_norm: the donor's widened halves with both norm affines
    zeroed, so the block is the identity."""
    for norm, module in donor:
        yield [_zeroed(norm, "mu", "beta"), module]


def _identity_affine(like: NormParams) -> NormParams:
    return NormParams(np.ones_like(like.mu),
                      None if like.beta is None else np.zeros_like(like.beta),
                      like.eps)


def _post_ln_chain(wide: Iterator[list], count: int) -> Iterator[tuple[list, str]]:
    """Grow one post-norm block into ``count`` blocks computing the same
    map, yielded a half at a time with each block's role.

    The first block keeps the real attention under a plain (identity
    affine) norm, the last keeps the real MLP under the original affines,
    and any middle blocks are pure re-normalizations.  Exact when the
    norm eps is zero, since re-normalizing a normalized stream is then
    the identity.  ``wide`` yields the widened halves; the MLP half is
    drawn only once the first block's attention half has been taken.
    """
    if count == 1:
        for half in wide:
            yield half, "carrier"
            del half
        return
    ln1, attn = next(wide)
    yield [_identity_affine(ln1), attn], "attn_carrier"
    ln2, mlp = next(wide)
    yield [_identity_affine(ln2), _zeroed(mlp, "w2", "b2")], "attn_carrier"
    for _ in range(count - 2):
        yield [_identity_affine(ln1), _zeroed(attn, "wo", "bo")], "inserted"
        yield [_identity_affine(ln2), _zeroed(mlp, "w2", "b2")], "inserted"
    yield [ln1, _zeroed(attn, "wo", "bo")], "mlp_carrier"
    yield [ln2, mlp], "mlp_carrier"


def _insert_kind(spec: ModelSpec, plan: ExpansionPlan) -> str:
    """How inserted blocks are built, and so what they read of the block
    they copy: ``post_ln`` (the chain reads only the carrier),
    ``zero_norm`` and ``zero_output`` (they copy its width-expanded form)
    or ``cancelling`` (type2: built from its source form)."""
    if spec.norm_style == "post_ln":
        return "post_ln"
    if spec.norm_style == "post_res_norm":
        return "zero_norm"
    return "zero_output" if plan.depth_mode == "type1" else "cancelling"


def expand_depth(i: int, count: int, wide: Iterator[list],
                 donor: Callable[[], BlockWeights | list] | None, spec: ModelSpec,
                 hidden_t: int, plan: ExpansionPlan) -> Iterator[tuple[list, str]]:
    """Grow source block ``i`` into ``count`` target blocks, one target
    module at a time: each block is yielded as its attention half
    ``[ln1, attn]``, then its MLP half ``[ln2, mlp]``, each with the
    block's role, and every half is built only once the one before it
    has been taken.  ``carrier`` blocks compute the source function
    (``attn_carrier``/``mlp_carrier`` for the split roles of the
    post-norm chain) and ``inserted`` blocks contribute nothing at
    initialization.

    ``wide`` yields block ``i``'s width expansion a half at a time, each
    drawn as it is taken.  ``donor()`` gives what the inserted blocks
    read of the block they copy (``i``, or ``i + 1`` under
    ``depth_source="next"``): its source form for type2, which builds
    from it, and otherwise its two widened halves, of which a type1
    insert reads only the norms, heads and first MLP layer (see
    ``_insert_kind``).  It is called once, after the carrier is taken,
    and only when a block is inserted; ``donor`` is None for post_ln,
    whose chain reads only ``wide``, and may be None when ``count`` is 1.

    An inserted half holds the arrays it copies from a widened half
    themselves, not copies.  Of the carrier, only the two norms a type2
    insert reads are kept here.
    """
    kind = _insert_kind(spec, plan)
    if kind == "post_ln":
        yield from _post_ln_chain(wide, count)
        return
    norms = []  # all a type2 insert reads of the carrier
    for half in wide:
        norms.append(half[0])
        yield half, "carrier"
        del half
    if count > 1:
        donor = donor()  # built only now that the carrier is taken
    for c in range(count - 1):
        if kind == "zero_norm":
            halves = _zero_norm_halves(donor)
        elif kind == "zero_output":
            halves = _zero_output_halves(donor)
        else:
            halves = _cancelling_halves(donor, *norms, spec, plan.target_width, hidden_t,
                                        plan.policy, substream(plan.seed, "depth", i, c),
                                        plan.noise_scale)
        if c == count - 2:
            del donor  # the last insert holds what it still reads of it
        for half in halves:
            yield half, "inserted"
            del half


# ---------------------------------------------------------------------------
# whole-model expansion


def map_arrays(w, fn):
    """A copy of any weight structure (a model, a block, a head, a CNN
    bottleneck, or a list of them) holding ``fn(a)`` in place of every
    array.

    Every dataclass and list is rebuilt, so the result shares no
    structure with ``w``; it shares arrays only where ``fn`` returns its
    argument.  ``w`` itself is left untouched.
    """
    def walk(obj):
        if isinstance(obj, np.ndarray):
            return fn(obj)
        if isinstance(obj, list):
            return [walk(x) for x in obj]
        if is_dataclass(obj):
            return replace(obj, **{f.name: walk(getattr(obj, f.name)) for f in fields(obj)})
        return obj  # None, or a norm's float eps

    return walk(w)


def _as64(w):
    """The weights in float64; float64 arrays are passed through uncopied."""
    return map_arrays(w, lambda a: np.asarray(a, dtype=np.float64))


def _as32(w):
    """A float32 copy of the weights."""
    return map_arrays(w, lambda a: a.astype(np.float32))


def _released(parts) -> Iterator[np.ndarray]:
    """The tensors of ``parts`` in checkpoint order.  Each is dropped here
    as it is taken, so nothing of a written part is still held while the
    next part is built (a generator expression over the parts would hold
    the last one, a whole module, until the next is ready)."""
    for part in parts:
        arrays = flat_arrays(part)[::-1]
        del part
        while arrays:
            yield arrays.pop()


def _unshared(parts) -> Iterator:
    """``parts`` with a copy of every array an earlier part already
    holds, so that the blocks of an assembled model share none (a
    streamed inserted half holds the arrays it copies from a widened
    half themselves)."""
    seen: set[int] = set()

    def own(a: np.ndarray) -> np.ndarray:
        if id(a) in seen:
            a = a.copy()
        seen.add(id(a))  # every part is kept, so no id is reused
        return a

    for part in parts:
        yield map_arrays(part, own)


def _stream_mode(style: str) -> str:
    return "zero" if style in ("post_res_norm", "rms_pre") else "avg"


def _checked_finite(part, schema):
    """``part``, once none of its tensors (named by ``schema``, in
    checkpoint order) holds NaN or Inf; PlanError names the first that
    does."""
    name = nonfinite_tensor(part, schema)
    if name is not None:
        raise PlanError(f"source tensor {name} holds NaN or Inf")
    return part


def _kept_mlp(halves: Iterator[list], kept: list) -> Iterator[list]:
    """``halves``, a carrier's, with what a type1 insert reads of its MLP
    half (ln2, ``w1`` and ``b1``) appended to ``kept`` as it is yielded."""
    for half in halves:
        if isinstance(half[1], MlpWeights):
            kept.append([half[0], replace(half[1], w2=None, b2=None)])
        yield half
        del half


def _expanded_parts(shell: ModelWeights, source_block, spec: ModelSpec,
                    target_spec: ModelSpec, plan: ExpansionPlan, roles: list[str]):
    """The target model, part by part in checkpoint order: the embedding,
    each block as its attention half ``[ln1, attn]`` then its MLP half
    ``[ln2, mlp]``, the final norm (or None), the decoder weight (or
    None, when tied) and the decoder bias.  Each block's role is appended
    to ``roles`` as its attention half is yielded.

    ``shell`` holds the source's embedding, final norm and decoder in
    float64; its blocks are not read.  ``source_block(j)`` gives source
    block ``j`` in its stored dtype: each is asked for once, when first
    needed, then promoted to float64 and checked for NaN and Inf.

    No source block or widened module is held once no later part reads
    it.  Block ``i``'s width expansion goes to ``expand_depth`` as the
    carrier, drawn a half at a time.  The block the inserted blocks copy
    (the donor: ``i``, or ``i + 1`` for ``depth_source="next"``) is
    passed in the one form they read (``_insert_kind``): as in the
    source for type2, width-expanded for type1 and post_res_norm, and
    not at all for post_ln or a block that is not repeated.  A type1
    insert copying block ``i`` keeps of the carrier only ln2 and the
    first MLP layer, and draws ln1 and the heads again (``redrawn``),
    so no widened attention is held while the carrier's MLP is built; a
    post_res_norm insert copying block ``i`` keeps both its halves.
    Source block ``i`` is dropped once its MLP half is widened unless
    its inserts still read it.  A donor ``i + 1`` is read (type2) or
    widened (type1, post_res_norm) one group early, only once carrier
    ``i`` is taken, and kept for its own group.  So besides the one
    target module being built, at most one source block and what the
    inserts read of their donor are held: its source form (type2), ln2
    and the first MLP layer (type1 copying block ``i``), or its whole
    width expansion (post_res_norm, post_ln, and type1 copying block
    ``i + 1``).

    Every part draws from its own substream (``("block", i)``,
    ``("depth", i, c)``, ``"final_norm"``, ``"decoder"``), so the order
    in which parts are built does not change a single value.
    """
    d_t, hidden_t = target_spec.width, target_spec.hidden_dim
    seed, policy, noise = plan.seed, plan.policy, plan.noise_scale
    yield expand_embeddings(shell.embedding, spec, d_t, _stream_mode(spec.norm_style))

    kind = _insert_kind(spec, plan)
    src: dict[int, BlockWeights] = {}   # a type2 donor read one group early
    wide: dict[int, list] = {}          # a type1/post_res_norm donor widened one group early

    def source(j: int) -> BlockWeights:
        if j in src:
            return src.pop(j)
        return _checked_finite(_as64(source_block(j)), block_schema(spec, j, np.float64))

    def widened(j: int, block: BlockWeights) -> Iterator[list]:
        return _widened(block, spec, d_t, hidden_t, policy, substream(seed, "block", j), noise)

    def redrawn(i: int, block: BlockWeights, kept: list) -> list:
        """Block ``i``'s widened halves as far as a type1 insert copying
        it reads them: ln1 and the heads drawn again from a fresh
        substream of the block, as the carrier drew them first, so they
        equal its own bit for bit (``wo`` and ``bo`` are not drawn), and
        what ``kept`` holds of the carrier's MLP half."""
        rng = substream(seed, "block", i)
        return [[expand_norm_params(block.ln1, d_t, rng, spec.is_rms),
                 AttentionWeights(_expand_heads(block.attn, spec, d_t, policy, rng, noise),
                                  None, None)], *kept]

    def early(j: int) -> BlockWeights | list:
        """Block ``j``, the donor of the group before its own, in the form
        its inserted blocks read; kept for its own group."""
        if kind == "cancelling":
            return src.setdefault(j, source(j))
        return wide.setdefault(j, list(widened(j, source(j))))

    for i, count in enumerate(layer_multiplicities(spec.depth, plan.target_depth)):
        j = min(i + 1, spec.depth - 1) if plan.depth_source == "next" else i
        halves = wide.pop(i, None)  # block i, if widened one group early
        block = source(i) if halves is None else None
        carrier = widened(i, block) if halves is None else iter(halves)
        donor = None
        if count > 1 and kind != "post_ln":
            if j != i:
                donor = functools.partial(early, j)
            elif kind == "cancelling":
                donor = lambda b=block: b
            elif kind == "zero_output" and halves is None:
                kept: list = []
                carrier = _kept_mlp(carrier, kept)
                donor = functools.partial(redrawn, i, block, kept)
                del kept
            else:  # the inserts read both halves of block i's width expansion
                if halves is None:
                    halves = list(carrier)
                carrier, donor = iter(halves), lambda h=halves: h
        del block, halves
        parts = expand_depth(i, count, carrier, donor, spec, hidden_t, plan)
        del carrier, donor  # expand_depth keeps what its blocks read
        for half, role in parts:
            if isinstance(half[1], AttentionWeights):
                roles.append(role)  # one entry per block
            yield half
            del half  # before the next half is built

    final_norm = None
    if shell.final_norm is not None:
        final_norm = expand_norm_params(shell.final_norm, d_t,
                                        substream(seed, "final_norm"), spec.is_rms)
        if spec.tied_decoder:
            # tiled embedding rows dot a zero-tailed hidden state k times
            k = d_t // spec.width
            if k > 1:
                final_norm.mu = final_norm.mu / k
                if final_norm.beta is not None:
                    final_norm.beta = final_norm.beta / k
    yield final_norm
    yield (None if shell.dec_weight is None else
           expand_decoder(shell.dec_weight, d_t, policy, substream(seed, "decoder"), noise))
    yield shell.dec_bias.copy()


def post_ln_depth_is_inexact(reader: CheckpointReader, plan: ExpansionPlan) -> bool:
    """True when ``plan`` grows the depth of the post_ln model ``reader``
    holds and one of its block norms has eps > 0: the chain of
    re-normalizations that carries one block's function is exact only
    for eps = 0, and otherwise off by O(eps).  Only the eps tensors are
    read, and only for such a plan."""
    spec = reader.spec
    if spec.norm_style != "post_ln" or plan.target_depth <= spec.depth:
        return False
    return any(reader.tensor(entry.name) > 0 for i in range(spec.depth)
               for entry in block_schema(spec, i, reader.dtype) if entry.shape == ())


def expand_model(weights: ModelWeights | CheckpointReader, spec: ModelSpec,
                 plan: ExpansionPlan, out=None) -> tuple[ModelWeights | None, ModelSpec, dict]:
    """Expand a whole model per ``plan``; width first, then depth.

    Returns the expanded weights, the target spec, and a duplicate map
    describing which target heads/hidden units are replicas of the same
    source unit (per function-carrying block).  The expanded model
    computes the same function as the source on every input.  A source
    tensor holding NaN or Inf raises :class:`PlanError`.

    ``weights`` is the source in memory, or an open
    :class:`~lemon.container.CheckpointReader` of a ``spec`` checkpoint.
    From a reader, source blocks are read one at a time, as the
    expansion reaches them, and dropped once their target blocks are
    built; both sources go through the same expansion and give the same
    result.  With ``out``, the model is written to that path as a
    checkpoint instead, each block's attention half and then its MLP
    half as soon as it is built, so no more than about one target module
    is held at a time (plus one source block, or, from memory, the
    source); the returned weights are then None.  ``out`` is replaced
    only once the whole checkpoint is written.
    """
    spec.validate()
    if isinstance(weights, ModelWeights):
        validate_weights(weights, spec)
        shell, source_block = replace(weights, blocks=[]), weights.blocks.__getitem__
        in_dtype = weights.dec_bias.dtype
    else:
        if weights.spec != spec:
            raise PlanError("the checkpoint reader holds a different model spec")
        shell, source_block, in_dtype = weights.shell(), weights.block, weights.dtype
    plan.validate(spec)
    shell = _checked_finite(_as64(shell), itertools.chain(
        embedding_schema(spec, in_dtype), decoder_schema(spec, in_dtype)))

    target_spec = spec_with(spec, width=plan.target_width, depth=plan.target_depth)
    roles: list[str] = []
    parts = _expanded_parts(shell, source_block, spec, target_spec, plan, roles)
    if in_dtype == np.float32:
        parts = map(_as32, parts)

    if out is not None:
        write_tensors(out, target_spec, in_dtype, _released(parts))
        expanded = None
    else:
        parts = _unshared(parts)
        embedding = next(parts)
        halves = [next(parts) for _ in range(2 * target_spec.depth)]
        blocks = [BlockWeights(*attn, *mlp) for attn, mlp in zip(halves[::2], halves[1::2])]
        expanded = ModelWeights(embedding, blocks, *parts)
        validate_weights(expanded, target_spec)
    return expanded, target_spec, _duplicate_map(spec, target_spec, plan.policy, roles)


def _duplicate_map(spec: ModelSpec, target_spec: ModelSpec, policy: str,
                   roles: list[str]) -> dict:
    head_g = {str(s): idx for s, idx in
              replica_groups(spec.n_heads, target_spec.n_heads).items()}
    mlp_g = {str(s): idx for s, idx in
             replica_groups(spec.hidden_dim, target_spec.hidden_dim).items()}
    dup_blocks = []
    for ti, role in enumerate(roles):
        entry: dict = {"index": ti}
        if role in ("carrier", "attn_carrier") and head_g:
            entry["attn_head_groups"] = head_g
        if role in ("carrier", "mlp_carrier") and mlp_g:
            entry["mlp_hidden_groups"] = mlp_g
        if len(entry) > 1:
            dup_blocks.append(entry)
    return {
        "version": 1,
        "policy": policy,
        "head_dim": spec.head_dim,
        "blocks": dup_blocks,
    }

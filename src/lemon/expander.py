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

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .container import CheckpointReader, write_tensors
from .errors import PlanError
from .expand_ops import (COL_MODES, _check_extents, expand_bias, expand_layernorm,
                         expand_matrix_cols, expand_matrix_rows, expand_rmsnorm,
                         expand_vector, row_blocks)
from .model import (AttentionWeights, BlockWeights, EmbeddingWeights,
                    HeadWeights, MlpWeights, ModelSpec, ModelWeights,
                    NormParams, attention_schema, block_schema, decoder_schema,
                    embedding_schema, flat_arrays, mlp_schema, nonfinite_tensor,
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
    heads = [_expand_head(attn.heads[m % spec.n_heads], d_t, policy, rng, noise_scale)
             for m in range(d_t // spec.head_dim)]
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


def _affine(like: NormParams, gain: float) -> NormParams:
    """A norm of ``like``'s width and eps whose gains are all ``gain`` and
    whose shift, if it has one, is zero."""
    return NormParams(np.full_like(like.mu, gain),
                      None if like.beta is None else np.zeros_like(like.beta), like.eps)


def _input_side(module):
    """``module`` with its output projection and output bias left out (None)."""
    if isinstance(module, AttentionWeights):
        return replace(module, wo=None, bo=None)
    return replace(module, w2=None, b2=None)


def _zero_output(module, d_t: int):
    """type1 and the post_ln chain: ``module``'s own input side (heads, or
    ``w1`` and ``b1``) with zero output projections, so it adds nothing
    to the residual stream."""
    if isinstance(module, AttentionWeights):
        return AttentionWeights(module.heads, np.zeros((d_t, d_t)), np.zeros(d_t))
    return MlpWeights(module.w1, module.b1, np.zeros(module.w1.shape[::-1]), np.zeros(d_t))


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


def _insert_kind(spec: ModelSpec, plan: ExpansionPlan) -> str:
    """How inserted blocks are built, and so what they read of the block
    they copy: ``post_ln`` (a chain that carries the block's function),
    ``zero_norm`` and ``zero_output`` (they copy its width-expanded
    halves) or ``cancelling`` (type2: built from its source form)."""
    if spec.norm_style == "post_ln":
        return "post_ln"
    if spec.norm_style == "post_res_norm":
        return "zero_norm"
    return "zero_output" if plan.depth_mode == "type1" else "cancelling"


def expand_depth(blocks: Iterator[BlockWeights], spec: ModelSpec, target_spec: ModelSpec,
                 plan: ExpansionPlan) -> Iterator[tuple[int, list]]:
    """Grow the source blocks, which ``blocks`` gives one at a time in
    order (float64), into the target blocks, as ``(target block, half)``
    pairs: an attention half ``[ln1, attn]`` or an MLP half ``[ln2,
    mlp]``, each built only once the one before it has been taken.

    Source block ``s`` grows into ``layer_multiplicities`` blocks: a
    carrier that computes its function, then inserted blocks that add
    nothing at initialization (post_ln: a chain of blocks that computes
    it together).  The halves come module-major, not in file order.
    Block ``s`` is widened a half at a time, and each widened half goes
    first to its carrier, then to every insert that copies it, and is
    then dropped: the inserts of its own group, or under
    ``depth_source="next"`` those of the group before it (and, for the
    last block, its own).  Such an insert half holds the arrays it copies
    themselves, and a real output projection is dropped before the zeros
    that replace it are allocated.  type2 inserts read no widened half:
    each is built from the source block it copies and its carrier's two
    norms, after the carrier, or under ``next`` as soon as the block it
    copies is read.  So besides the half being built, one source block
    and one widened half are held.
    """
    counts = layer_multiplicities(spec.depth, target_spec.depth)
    first = list(itertools.accumulate(counts, initial=0))
    kind = _insert_kind(spec, plan)
    d_t, hidden_t, policy, noise = (target_spec.width, target_spec.hidden_dim, plan.policy,
                                    plan.noise_scale)
    next_source = plan.depth_source == "next" and kind != "post_ln"
    norms: dict[int, list] = {}  # a type2 carrier's two norms, kept for its group's inserts

    def cancelling(g: int, src: BlockWeights) -> Iterator[tuple[int, list]]:
        ln1, ln2 = norms.pop(g)
        for c in range(counts[g] - 1):
            for half in _cancelling_halves(src, ln1, ln2, spec, d_t, hidden_t, policy,
                                           substream(plan.seed, "depth", g, c), noise):
                yield first[g] + 1 + c, half
                del half

    # the block each group's inserts copy: its own, or under "next" the one
    # after it (the last block's group copies the last block)
    donor = [min(g + 1, spec.depth - 1) if next_source else g for g in range(spec.depth)]
    for s in range(spec.depth):
        groups = [g for g in (s - 1, s) if g >= 0 and counts[g] > 1 and donor[g] == s]
        block = next(blocks)
        wide = _widened(block, spec, d_t, hidden_t, policy, substream(plan.seed, "block", s),
                        noise)
        if kind == "cancelling":
            if groups and groups[0] < s:
                yield from cancelling(groups[0], block)
            for half in wide:
                if counts[s] > 1:
                    norms.setdefault(s, []).append(half[0])
                yield first[s], half
                del half
            if groups and groups[-1] == s:
                yield from cancelling(s, block)
            del block  # before the next is read
            continue
        del block
        inserted = [t for g in groups for t in range(first[g] + 1, first[g + 1])]
        for norm, module in wide:
            if kind == "zero_norm":
                targets = [(first[s], norm)] + [(t, _affine(norm, 0.0)) for t in inserted]
            elif kind == "post_ln" and inserted:
                # the first block keeps the real attention and the last the
                # real MLP; every norm but the last block's is an identity
                # affine, which re-normalizes (exact for eps 0)
                chain = [first[s], *inserted]
                real = chain[-1] if isinstance(module, MlpWeights) else chain[0]
                plain = _affine(norm, 1.0)
                targets = [(t, norm if t == chain[-1] else plain)
                           for t in [real, *(t for t in chain if t != real)]]
            else:
                targets = [(t, norm) for t in [first[s], *inserted]]
            (t, n), *copies = targets
            yield t, [n, module]  # the real module, then the blocks that copy it
            if kind != "zero_norm":
                module = _input_side(module)  # handed over before its zeros are allocated
            for t, n in copies:
                yield t, [n, module if kind == "zero_norm" else _zero_output(module, d_t)]
            del norm, module  # before the next half is widened


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


def _expanded_parts(shell: ModelWeights, source_block, spec: ModelSpec,
                    target_spec: ModelSpec, plan: ExpansionPlan):
    """The target model as ``(target block, part)`` pairs: the embedding
    (block None), every block half as :func:`expand_depth` yields it, and
    last ``[final norm or None, decoder weight or None (tied), decoder
    bias]`` (block None).

    ``shell`` holds the source's embedding, final norm and decoder in
    float64; its blocks are not read.  ``source_block(j)`` gives source
    block ``j`` in its stored dtype: each is asked for once, in order,
    then promoted to float64 and checked for NaN and Inf.

    Every part draws from its own substream (``("block", i)``,
    ``("depth", i, c)``, ``"final_norm"``, ``"decoder"``), so the order
    in which parts are built does not change a single value.
    """
    d_t, seed, policy, noise = target_spec.width, plan.seed, plan.policy, plan.noise_scale
    yield None, expand_embeddings(shell.embedding, spec, d_t, _stream_mode(spec.norm_style))
    blocks = (_checked_finite(_as64(source_block(j)), block_schema(spec, j, np.float64))
              for j in range(spec.depth))
    yield from expand_depth(blocks, spec, target_spec, plan)

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
    yield None, [final_norm,
                 None if shell.dec_weight is None else
                 expand_decoder(shell.dec_weight, d_t, policy, substream(seed, "decoder"), noise),
                 shell.dec_bias.copy()]


def _named(parts, spec: ModelSpec, dtype):
    """The tensors of ``parts`` (see ``_expanded_parts``) as ``(name,
    tensor)`` pairs of a ``spec`` model of ``dtype``, each cast to its
    dtype as it is taken.  Each is dropped here as it is taken, so nothing
    of a written part is still held while the next part is built."""
    for t, part in parts:
        if t is not None:
            schema = (attention_schema if isinstance(part[1], AttentionWeights)
                      else mlp_schema)(spec, t, dtype)
        elif isinstance(part, EmbeddingWeights):
            schema = embedding_schema(spec, dtype)
        else:
            schema = decoder_schema(spec, dtype)
        arrays = flat_arrays(part)[::-1]
        del part
        for entry in schema:
            yield entry.name, arrays.pop().astype(entry.dtype, copy=False)


def _assembled(parts, spec: ModelSpec, dtype) -> ModelWeights:
    """The ``spec`` model of ``dtype`` that ``parts`` (see
    ``_expanded_parts``) make up, sharing no array between its parts (an
    inserted half holds the arrays it copies from a widened half
    themselves)."""
    seen: set[int] = set()

    def own(a: np.ndarray) -> np.ndarray:
        if dtype != np.float64:
            return a.astype(dtype)
        if id(a) in seen:
            a = a.copy()
        seen.add(id(a))  # every part is kept, so no id is reused
        return a

    (_, embedding), *halves, (_, decoder) = [(t, map_arrays(p, own)) for t, p in parts]
    by_block = {(t, isinstance(half[1], MlpWeights)): half for t, half in halves}
    return ModelWeights(embedding, [BlockWeights(*by_block[t, False], *by_block[t, True])
                                    for t in range(spec.depth)], *decoder)


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
    checkpoint instead, each target module (a block's attention or MLP
    half) placed in the file as soon as it is built, in the order
    :func:`expand_depth` builds them, so besides the module being built
    no more than one source block (from memory, the source) and one
    widened module are held; the returned weights are then None.
    ``out`` is replaced only once the whole checkpoint is written.
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
    parts = _expanded_parts(shell, source_block, spec, target_spec, plan)
    if out is not None:
        write_tensors(out, target_spec, in_dtype, _named(parts, target_spec, in_dtype))
        expanded = None
    else:
        expanded = _assembled(parts, target_spec, in_dtype)
        validate_weights(expanded, target_spec)
    return expanded, target_spec, _duplicate_map(spec, target_spec, plan.policy)


def _duplicate_map(spec: ModelSpec, target_spec: ModelSpec, policy: str) -> dict:
    """Which target heads and hidden units replicate one source unit, in
    the blocks that carry the source function: every carrier, and the
    first (heads) and last (hidden units) block of a post_ln chain."""
    roles: list[str] = []
    for count in layer_multiplicities(spec.depth, target_spec.depth):
        if spec.norm_style == "post_ln" and count > 1:
            roles += ["attn_carrier", *["inserted"] * (count - 2), "mlp_carrier"]
        else:
            roles += ["carrier", *["inserted"] * (count - 1)]
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

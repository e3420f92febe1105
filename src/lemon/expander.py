"""Whole-model width and depth expansion.

:func:`expand_model` is the one way to expand a model: it reads an open
checkpoint one source block at a time and writes the grown model to
another, one grown tensor at a time.

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
                    HeadWeights, MlpWeights, ModelSpec, NormParams, block_from,
                    block_schema, decoder_schema, embedding_schema, flat_arrays,
                    nonfinite_tensor, spec_with)
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


def _expand_head(head: HeadWeights, d_t: int, policy: str, rng: np.random.Generator,
                 noise_scale: float) -> Iterator[np.ndarray]:
    """One head's tensors in checkpoint order, its input dimension grown
    to ``d_t`` (its biases and output dim stay), each drawn when asked
    for."""
    for w in (head.wq, head.wk, head.wv):
        yield _row_expanded_cols(w, w.shape[0], "circ", d_t, "rand", policy, rng, noise_scale)
    for b in (head.bq, head.bk, head.bv):
        yield b.copy()


def expand_mha(attn: AttentionWeights, spec: ModelSpec, d_t: int, policy: str,
               rng: np.random.Generator, noise_scale: float,
               row_mode: str = "avg") -> Iterator[np.ndarray]:
    """Expand attention weights to width ``d_t``, one tensor at a time:
    the grown tensors in checkpoint order (every head's, then ``wo`` and
    ``bo``; see :func:`lemon.model.attention_from`), each drawn from
    ``rng`` only when asked for.

    Heads replicate circularly (head dimension unchanged), each replica
    drawing its own input-dimension split so replicas are distinguishable
    under the lemon policy.  The output projection expands rows with
    ``row_mode`` and columns with a policy-driven circular split, making
    the whole module map zero-expanded inputs to ``row_mode``-expanded
    outputs exactly as the source module maps the originals.
    """
    for m in range(d_t // spec.head_dim):
        yield from _expand_head(attn.heads[m % spec.n_heads], d_t, policy, rng, noise_scale)
    yield _row_expanded_cols(attn.wo, d_t, row_mode, d_t, "circ", policy, rng, noise_scale)
    yield expand_bias(attn.bo, d_t, row_mode)


def expand_mlp(mlp: MlpWeights, spec: ModelSpec, d_t: int, hidden_t: int,
               policy: str, rng: np.random.Generator, noise_scale: float,
               row_mode: str = "avg") -> Iterator[np.ndarray]:
    """Expand MLP weights to width ``d_t`` / hidden size ``hidden_t``, one
    tensor at a time: ``w1``, ``b1``, ``w2``, ``b2``, each drawn from
    ``rng`` only when asked for, so ``w2`` is built once ``w1`` is taken.

    The first layer grows rows circularly and columns by a random split;
    the second grows rows by ``row_mode`` and columns by a policy-driven
    circular split (the fan-out of the replicated hidden units).
    """
    yield _row_expanded_cols(mlp.w1, hidden_t, "circ", d_t, "rand", policy, rng, noise_scale)
    yield expand_bias(mlp.b1, hidden_t, "circ")
    yield _row_expanded_cols(mlp.w2, d_t, row_mode, hidden_t, "circ", policy, rng, noise_scale)
    yield expand_bias(mlp.b2, d_t, row_mode)


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
             noise_scale: float) -> Iterator[np.ndarray]:
    """The width expansion of ``block``, one tensor at a time in
    checkpoint order (a norm's eps as a 0-d array), each drawn from
    ``rng`` only when asked for.  The source attention is dropped once
    widened."""
    row_mode = "zero" if spec.is_rms else "avg"
    ln2, mlp = block.ln2, block.mlp
    yield from flat_arrays(expand_norm_params(block.ln1, d_t, rng, spec.is_rms))
    yield from expand_mha(block.attn, spec, d_t, policy, rng, noise_scale, row_mode)
    del block
    yield from flat_arrays(expand_norm_params(ln2, d_t, rng, spec.is_rms))
    yield from expand_mlp(mlp, spec, d_t, hidden_t, policy, rng, noise_scale, row_mode)


def expand_block_width(block: BlockWeights, spec: ModelSpec, d_t: int,
                       hidden_t: int, policy: str, rng: np.random.Generator,
                       noise_scale: float) -> BlockWeights:
    """Expand one block: both norms, the attention module, and the MLP."""
    return block_from(_widened(block, spec, d_t, hidden_t, policy, rng, noise_scale),
                      spec_with(spec, width=d_t))


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


def _cancelling_fanout(d_t: int, units_s: int, units_t: int, size: int,
                       rng: np.random.Generator, noise_scale: float) -> np.ndarray:
    """A ``(d_t, units_t * size)`` output projection over ``units_t``
    replicated units of ``size`` columns each (heads, or hidden units of
    size 1), whose fan-out forms ± pairs: unit ``s`` pairs with unit
    ``s + units_s``, and every output element gets exactly one pair."""
    w = np.zeros((d_t, units_t * size))
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


def _cancelling(src: BlockWeights, spec: ModelSpec, d_t: int, hidden_t: int, t: int,
                policy: str, rng: np.random.Generator,
                noise_scale: float) -> Iterator[tuple[list[str], np.ndarray]]:
    """type2: the attention and MLP of inserted block ``t``, whose
    replicas share bitwise-identical incoming weights and whose fan-out
    forms ± pairs, one pair per output element, so the module output is
    exactly zero on any input while the output projections stay
    trainable.

    They are built from the source block ``src``, one tensor at a time in
    checkpoint order, each with the names of every tensor of block ``t``
    that holds it (a grown head's with those of its replicas) and drawn
    from ``rng`` only when asked for.  The block's norms are its
    carrier's, which :func:`expand_depth` names.  Units without a replica
    (including every unit when the width is not grown) get zero fan-out,
    which is the only zero-sum choice for a group of one.
    """
    p, h_s, h_t = f"blocks.{t}", spec.n_heads, d_t // spec.head_dim
    for s in range(h_s):
        grown = _expand_head(src.attn.heads[s], d_t, policy, rng, noise_scale)
        for f in fields(HeadWeights):
            # the grown head s is every one of its replicas
            yield [f"{p}.attn.head{m}.{f.name}" for m in range(s, h_t, h_s)], next(grown)
    yield [f"{p}.attn.wo"], _cancelling_fanout(d_t, h_s, h_t, spec.head_dim, rng, noise_scale)
    yield [f"{p}.attn.bo"], np.zeros(d_t)

    # the columns grow first, so every replica row is the same; the split
    # is drawn into the leading rows of w1, and the replicas copy them
    w1 = np.empty((hidden_t, d_t))
    top = w1[:spec.hidden_dim]
    column_split(src.mlp.w1, d_t, "rand", policy, rng, noise_scale, out=top)
    for rows, block in row_blocks(top, hidden_t, "circ")[1:]:
        w1[rows] = block
        del block  # a view of w1, which would keep it past its write
    del top
    yield [f"{p}.mlp.w1"], w1
    del w1  # written: w2 is drawn without it
    yield [f"{p}.mlp.b1"], expand_bias(src.mlp.b1, hidden_t, "circ")
    yield [f"{p}.mlp.w2"], _cancelling_fanout(d_t, spec.hidden_dim, hidden_t, 1, rng,
                                              noise_scale)
    yield [f"{p}.mlp.b2"], np.zeros(d_t)


def _insert_kind(spec: ModelSpec, plan: ExpansionPlan) -> str:
    """How inserted blocks are built, and so what they read of the block
    they copy: ``post_ln`` (a chain that carries the block's function),
    ``zero_norm`` and ``zero_output`` (they copy its widened tensors) or
    ``cancelling`` (type2: built from its source form)."""
    if spec.norm_style == "post_ln":
        return "post_ln"
    if spec.norm_style == "post_res_norm":
        return "zero_norm"
    return "zero_output" if plan.depth_mode == "type1" else "cancelling"


_OUTPUTS = ("wo", "bo", "w2", "b2")


def _holders(kind: str, leaf: str, chain: list[int]) -> tuple[list[int], float | None]:
    """Which blocks of ``chain``, a carrier and then the inserted blocks
    that copy it, hold the carrier's widened tensor ``leaf`` (``mu``,
    ``wq``, ``w2``, ...) itself, and the value every entry of that tensor
    holds in the others: None when all hold it, or when the others build
    their own (``cancelling``)."""
    norm = leaf in ("mu", "beta")
    if kind == "cancelling":  # an insert keeps its carrier's norms
        return (chain if norm or leaf == "eps" else chain[:1]), None
    if kind == "post_ln":
        # the first block keeps the real attention and the last the real
        # MLP; every norm but the last block's is an identity affine, which
        # re-normalizes (exact for eps 0)
        if norm:
            return chain[-1:], float(leaf == "mu")
        if leaf in _OUTPUTS:
            return (chain[:1] if leaf in ("wo", "bo") else chain[-1:]), 0.0
    if kind == "zero_norm" and norm or kind == "zero_output" and leaf in _OUTPUTS:
        return chain[:1], 0.0
    return chain, None


def expand_depth(blocks: Iterator[BlockWeights], spec: ModelSpec, target_spec: ModelSpec,
                 plan: ExpansionPlan) -> Iterator[tuple[list[str], np.ndarray]]:
    """Grow the source blocks, which ``blocks`` gives one at a time in
    order (float64), into the target blocks, one grown float64 tensor at
    a time: ``(names, tensor)`` pairs, ``names`` being every tensor of
    the target blocks that holds ``tensor``, each built only once the one
    before it has been taken.

    Source block ``s`` grows into ``layer_multiplicities`` blocks: a
    carrier that computes its function, then inserted blocks that add
    nothing at initialization (post_ln: a chain of blocks that computes
    it together).  The tensors come block-major, not in file order.
    Block ``s`` is widened a tensor at a time, and each widened tensor
    goes at once to its carrier and to every insert that holds it: the
    inserts of its own group, or under ``depth_source="next"`` those of
    the group before it (and, for the last block, its own).  An insert
    that holds something else in its place (zero output projections, or
    a zero or identity norm) gets it, one tensor for all of them, once
    the widened tensor has been taken.  type2 inserts hold only their
    carrier's norms: the rest of each is built from the source block it
    copies, after the carrier, or under ``next`` as soon as the block it
    copies is read.  So besides the tensor being built, one source block
    is held.
    """
    counts = layer_multiplicities(spec.depth, target_spec.depth)
    first = list(itertools.accumulate(counts, initial=0))
    kind = _insert_kind(spec, plan)
    d_t, hidden_t, policy, noise = (target_spec.width, target_spec.hidden_dim, plan.policy,
                                    plan.noise_scale)
    next_source = plan.depth_source == "next" and kind != "post_ln"

    def cancelling(g: int, src: BlockWeights) -> Iterator[tuple[list[str], np.ndarray]]:
        for c in range(counts[g] - 1):
            yield from _cancelling(src, spec, d_t, hidden_t, first[g] + 1 + c, policy,
                                   substream(plan.seed, "depth", g, c), noise)

    # the block each group's inserts copy: its own, or under "next" the one
    # after it (the last block's group copies the last block)
    donor = [min(g + 1, spec.depth - 1) if next_source else g for g in range(spec.depth)]
    for s in range(spec.depth):
        groups = [g for g in (s - 1, s) if g >= 0 and counts[g] > 1 and donor[g] == s]
        block = next(blocks)
        if kind == "cancelling":
            if groups and groups[0] < s:
                yield from cancelling(groups[0], block)
            chain = list(range(first[s], first[s + 1]))  # its carrier's norms
        else:
            chain = [first[s], *(t for g in groups for t in range(first[g] + 1, first[g + 1]))]
        wide = _widened(block, spec, d_t, hidden_t, policy, substream(plan.seed, "block", s),
                        noise)
        if kind != "cancelling":
            del block  # _widened drops it a half at a time
        for entry in block_schema(target_spec, first[s], np.dtype(np.float64)):
            field = entry.name.split(".", 2)[2]
            held, fill = _holders(kind, field.rsplit(".", 1)[1], chain)
            yield [f"blocks.{t}.{field}" for t in held], next(wide)
            taken = set(held)
            rest = [f"blocks.{t}.{field}" for t in chain if t not in taken]
            if fill is not None and rest:
                # allocated only once the tensor it stands in for is taken
                yield rest, np.full(entry.shape, fill) if fill else np.zeros(entry.shape)
        del wide  # it would hold the source MLP until the next block is widened
        if kind == "cancelling":
            if groups and groups[-1] == s:
                yield from cancelling(s, block)
            del block  # before the next is read


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


def _expanded_parts(embedding: EmbeddingWeights, source: CheckpointReader,
                    target_spec: ModelSpec, plan: ExpansionPlan):
    """The target model one grown float64 tensor at a time (a norm's eps
    as a 0-d array), as ``(names, tensor)`` pairs, ``names`` being every
    tensor of the target that holds it: the embedding's, then the blocks'
    as :func:`expand_depth` yields them, then the final norm's and the
    decoder's.

    ``embedding`` is the source's, in float64; it is dropped once
    expanded.  Each source block is read from ``source`` once, in order,
    then promoted to float64 and checked for NaN and Inf; the final norm
    and decoder are read once the blocks are done.

    Every part draws from its own substream (``("block", i)``,
    ``("depth", i, c)``, ``"final_norm"``, ``"decoder"``), so the order
    in which parts are built does not change a single value.
    """
    spec = source.spec
    d_t, seed, policy, noise = target_spec.width, plan.seed, plan.policy, plan.noise_scale
    f64 = np.dtype(np.float64)
    grown = flat_arrays(expand_embeddings(embedding, spec, d_t, _stream_mode(spec.norm_style)))
    del embedding
    for entry in embedding_schema(target_spec, f64):
        yield [entry.name], grown.pop(0)
    blocks = (_checked_finite(_as64(source.block(j)), block_schema(spec, j, f64))
              for j in range(spec.depth))
    yield from expand_depth(blocks, spec, target_spec, plan)

    final_norm, dec_weight, dec_bias = _as64(list(source.decoder()))
    if final_norm is not None:
        final_norm = expand_norm_params(final_norm, d_t, substream(seed, "final_norm"),
                                        spec.is_rms)
        if spec.tied_decoder:
            # tiled embedding rows dot a zero-tailed hidden state k times
            k = d_t // spec.width
            if k > 1:
                final_norm.mu = final_norm.mu / k
                if final_norm.beta is not None:
                    final_norm.beta = final_norm.beta / k
    if dec_weight is not None:
        dec_weight = expand_decoder(dec_weight, d_t, policy, substream(seed, "decoder"), noise)
    grown = flat_arrays([final_norm, dec_weight, dec_bias.copy()])
    del final_norm, dec_weight
    for entry in decoder_schema(target_spec, f64):
        yield [entry.name], grown.pop(0)


def _named(parts, dtype):
    """The tensors of ``parts`` (see ``_expanded_parts``) as ``(name,
    tensor)`` pairs, each tensor cast once to ``dtype`` (an eps stays
    float64) and given under each of its names.  Each is dropped here
    once given under its last name, so nothing of it is still held while
    the next tensor is built."""
    for names, tensor in parts:
        if tensor.ndim:
            tensor = tensor.astype(dtype, copy=False)
        for name in names:
            yield name, tensor
        del tensor


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


def expand_model(source: CheckpointReader, plan: ExpansionPlan,
                 out) -> tuple[ModelSpec, dict]:
    """Expand the model of the open checkpoint ``source`` per ``plan``,
    width first, then depth, into a checkpoint written to ``out``.

    Returns the target spec and a duplicate map describing which target
    heads/hidden units are replicas of the same source unit (per
    function-carrying block).  The expanded model computes the same
    function as the source on every input.  A source tensor holding NaN
    or Inf raises :class:`PlanError`.

    The embedding and decoder are read and checked first.  Source blocks
    are then read one at a time, as the expansion reaches them, and
    dropped once their target blocks are built; the decoder is read again
    once the blocks are done.  Each grown tensor is placed in the file,
    under every name of the target that holds it, as soon as it is built,
    in the order :func:`expand_depth` builds them, so besides the tensor
    being built no more than one source block is held.  ``out`` is
    replaced only once the whole checkpoint is written.
    """
    spec, dtype = source.spec, source.dtype
    shell = source.shell()
    plan.validate(spec)
    shell = _checked_finite(_as64(shell), itertools.chain(
        embedding_schema(spec, dtype), decoder_schema(spec, dtype)))

    target_spec = spec_with(spec, width=plan.target_width, depth=plan.target_depth)
    parts = _expanded_parts(shell.embedding, source, target_spec, plan)
    del shell  # the embedding goes once expanded, the decoder is read again
    write_tensors(out, target_spec, dtype, _named(parts, dtype))
    return target_spec, _duplicate_map(spec, target_spec, plan.policy)


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

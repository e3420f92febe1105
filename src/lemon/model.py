"""Forward-only reference Transformer used as the losslessness oracle.

Four block variants are supported, differing in where the normalization
sits relative to the residual branch:

* ``pre_ln``         : x + Module(LN(x)); final LN before the decoder.
* ``post_res_norm``  : x + LN(Module(x)); no final norm.
* ``post_ln``        : LN(Module(x) + x); no final norm.
* ``rms_pre``        : x + Module(RMS(x)); final RMS before the decoder.

A block is two residual sub-layers, :func:`attention_sublayer` then
:func:`mlp_sublayer`, which place the norm the same way; ``verify`` runs
them one at a time, holding one module of the model at once.

Attention is bidirectional (no causal mask).  Token models embed ids
straight from a table; vision models project flattened patches, prepend
a class token, add learned positional embeddings, and decode from the
class-token position.  All linear layers carry biases, and every weight
matrix is stored (out, in): the forward pass multiplies by its ``.T``
view, so a layer's fan-out from input unit ``j`` is column ``j``.

An attention or MLP module that contributes exactly its output bias is
not evaluated: no q/k/v, softmax, ``w1`` or activation runs for it.
:func:`bias_only` decides that from the stored weights alone, never
from how they were made.  Every row of the output projection
(``attn.wo`` or ``mlp.w2``) must be all zero (the blocks ``type1``
depth growth inserts), or hold exactly two nonzero entries ``a`` and
``-a`` at the same offset in two units, heads or hidden units, whose
incoming weights and biases are bitwise equal (the ``type2`` ± pairs).
Those two units then emit bitwise-equal values, so every partial sum
of the row is 0, x or -x, and ``kernels.matmul`` sums it to exactly +0
(its non-BLAS loop sums from +0); ``+0 + bias`` is what both paths
return.  The rule is therefore exact for finite activations, and a NaN
or Inf that would arise inside such a module is not reported here
(``verify`` checks such a module's stored tensors for NaN and Inf).

Everything here is a pure function of the weights; there is no training
machinery of any kind.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import PlanError, ShapeError

NORM_STYLES = ("pre_ln", "post_res_norm", "post_ln", "rms_pre")
ACTIVATIONS = ("gelu", "relu")
INPUT_KINDS = ("token", "vision")

#: styles whose blocks normalize with RMS instead of LayerNorm
RMS_STYLES = ("rms_pre",)
#: styles that keep a final norm in front of the decoder
FINAL_NORM_STYLES = ("pre_ln", "rms_pre")
#: every norm's eps is stored in this dtype, whatever the weights' dtype
EPS_DTYPE = np.dtype("<f8")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; every tensor extent derives from it."""

    norm_style: str
    depth: int
    width: int
    head_dim: int
    mlp_ratio: float
    vocab_or_classes: int
    tied_decoder: bool = False
    activation: str = "gelu"
    eps: float = 1e-5
    input_kind: str = "token"
    patch_dim: int = 0      # vision: flattened pixels per patch
    num_patches: int = 0    # vision: patches per image

    @property
    def n_heads(self) -> int:
        return self.width // self.head_dim

    @property
    def hidden_dim(self) -> int:
        return int(round(self.mlp_ratio * self.width))

    @property
    def has_final_norm(self) -> bool:
        return self.norm_style in FINAL_NORM_STYLES

    @property
    def is_rms(self) -> bool:
        return self.norm_style in RMS_STYLES

    def validate(self) -> "ModelSpec":
        for name in ("depth", "width", "head_dim", "vocab_or_classes", "patch_dim",
                     "num_patches"):
            if not _is_int(getattr(self, name)):
                raise PlanError(f"{name} must be an integer")
        for name in ("mlp_ratio", "eps"):
            if not _is_real(getattr(self, name)):
                raise PlanError(f"{name} must be a number")
        if self.norm_style not in NORM_STYLES:
            raise PlanError(f"unknown norm_style {self.norm_style!r}")
        if self.activation not in ACTIVATIONS:
            raise PlanError(f"unknown activation {self.activation!r}")
        if self.input_kind not in INPUT_KINDS:
            raise PlanError(f"unknown input_kind {self.input_kind!r}")
        if self.depth < 0 or self.width <= 0 or self.head_dim <= 0:
            raise PlanError("depth must be >= 0 and width/head_dim positive")
        if self.width % self.head_dim != 0:
            raise PlanError(f"width {self.width} not a multiple of head_dim {self.head_dim}")
        if self.vocab_or_classes <= 0:
            raise PlanError("vocab_or_classes must be positive")
        for name in ("width", "vocab_or_classes", "patch_dim", "num_patches"):
            if not _finite(lambda: float(getattr(self, name))):
                raise PlanError(f"{name} does not fit in a float")
        if not _finite(lambda: self.mlp_ratio * self.width):
            raise PlanError("mlp_ratio must yield a finite hidden dim")
        if self.mlp_ratio <= 0 or self.hidden_dim <= 0:
            raise PlanError("mlp_ratio must yield a positive hidden dim")
        if not (_finite(lambda: self.eps) and self.eps >= 0):
            raise PlanError("eps must be finite and non-negative")
        if self.width == 1 and self.eps == 0 and not self.is_rms:
            # the variance of one value is 0: every norm would divide by 0
            raise PlanError("a width-1 layernorm model needs eps > 0")
        if self.tied_decoder:
            if self.input_kind != "token":
                raise PlanError("tied_decoder requires token-embedding input")
            if not self.has_final_norm:
                raise PlanError("tied_decoder requires a norm style with a final norm")
        if self.input_kind == "vision" and (self.patch_dim <= 0 or self.num_patches <= 0):
            raise PlanError("vision input requires positive patch_dim and num_patches")
        return self


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(compute) -> bool:
    """Whether ``compute()`` is a finite number; an int too large for a
    float counts as infinite."""
    try:
        return math.isfinite(compute())
    except OverflowError:
        return False


@dataclass
class NormParams:
    """Affine norm parameters; ``beta`` is None for RMS norms.

    Each norm owns its eps because expansion rescales eps per layer.
    """

    mu: np.ndarray
    beta: np.ndarray | None
    eps: float


@dataclass
class HeadWeights:
    """One attention head: wq/wk/wv are (head_dim, width), biases (head_dim,)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray


@dataclass
class AttentionWeights:
    heads: list[HeadWeights]
    wo: np.ndarray   # (width, n_heads * head_dim)
    bo: np.ndarray   # (width,)


@dataclass
class MlpWeights:
    w1: np.ndarray   # (hidden, width)
    b1: np.ndarray   # (hidden,)
    w2: np.ndarray   # (width, hidden)
    b2: np.ndarray   # (width,)


@dataclass
class BlockWeights:
    ln1: NormParams
    attn: AttentionWeights
    ln2: NormParams
    mlp: MlpWeights


@dataclass
class EmbeddingWeights:
    """Token table, or patch projection + class token + positions (vision)."""

    token_table: np.ndarray | None = None   # (vocab, width)
    patch_weight: np.ndarray | None = None  # (width, patch_dim)
    patch_bias: np.ndarray | None = None    # (width,)
    cls_token: np.ndarray | None = None     # (width,)
    positions: np.ndarray | None = None     # (num_patches + 1, width)


@dataclass
class ModelWeights:
    embedding: EmbeddingWeights
    blocks: list[BlockWeights]
    final_norm: NormParams | None
    dec_weight: np.ndarray | None   # (classes, width); None when tied
    dec_bias: np.ndarray            # (classes,)


# ---------------------------------------------------------------------------
# tensor schema: the name, shape and dtype of every tensor a spec implies,
# in checkpoint order (the order the weight dataclasses declare their
# fields in); checkpoints and validate_weights both follow it


class TensorEntry(NamedTuple):
    name: str
    shape: tuple[int, ...]
    dtype: np.dtype


def _norm_schema(prefix: str, spec: ModelSpec, dtype: np.dtype):
    yield TensorEntry(f"{prefix}.mu", (spec.width,), dtype)
    if not spec.is_rms:
        yield TensorEntry(f"{prefix}.beta", (spec.width,), dtype)
    yield TensorEntry(f"{prefix}.eps", (), EPS_DTYPE)


def attention_schema(spec: ModelSpec, i: int, dtype: np.dtype):
    """The attention half of block ``i``: ``ln1`` and the attention."""
    d, hd = spec.width, spec.head_dim
    p = f"blocks.{i}"
    yield from _norm_schema(f"{p}.ln1", spec, dtype)
    for h in range(spec.n_heads):
        for f in ("wq", "wk", "wv"):
            yield TensorEntry(f"{p}.attn.head{h}.{f}", (hd, d), dtype)
        for f in ("bq", "bk", "bv"):
            yield TensorEntry(f"{p}.attn.head{h}.{f}", (hd,), dtype)
    yield TensorEntry(f"{p}.attn.wo", (d, spec.n_heads * hd), dtype)
    yield TensorEntry(f"{p}.attn.bo", (d,), dtype)


def mlp_schema(spec: ModelSpec, i: int, dtype: np.dtype):
    """The MLP half of block ``i``: ``ln2`` and the MLP."""
    d, hidden = spec.width, spec.hidden_dim
    p = f"blocks.{i}"
    yield from _norm_schema(f"{p}.ln2", spec, dtype)
    yield TensorEntry(f"{p}.mlp.w1", (hidden, d), dtype)
    yield TensorEntry(f"{p}.mlp.b1", (hidden,), dtype)
    yield TensorEntry(f"{p}.mlp.w2", (d, hidden), dtype)
    yield TensorEntry(f"{p}.mlp.b2", (d,), dtype)


def block_schema(spec: ModelSpec, i: int, dtype: np.dtype):
    """The tensors of block ``i``, in checkpoint order."""
    yield from attention_schema(spec, i, dtype)
    yield from mlp_schema(spec, i, dtype)


def embedding_schema(spec: ModelSpec, dtype: np.dtype):
    """The embedding's tensors, in checkpoint order."""
    d = spec.width
    if spec.input_kind == "token":
        yield TensorEntry("embedding.token_table", (spec.vocab_or_classes, d), dtype)
        return
    yield TensorEntry("embedding.patch_weight", (d, spec.patch_dim), dtype)
    yield TensorEntry("embedding.patch_bias", (d,), dtype)
    yield TensorEntry("embedding.cls_token", (d,), dtype)
    yield TensorEntry("embedding.positions", (spec.num_patches + 1, d), dtype)


def decoder_schema(spec: ModelSpec, dtype: np.dtype):
    """Everything after the blocks: final norm and decoder."""
    if spec.has_final_norm:
        yield from _norm_schema("final_norm", spec, dtype)
    if not spec.tied_decoder:
        yield TensorEntry("decoder.weight", (spec.vocab_or_classes, spec.width), dtype)
    yield TensorEntry("decoder.bias", (spec.vocab_or_classes,), dtype)


def tensor_schema(spec: ModelSpec, dtype):
    """Every tensor of a ``spec`` model with weights of ``dtype``, in
    checkpoint order, as :class:`TensorEntry` records (lazily)."""
    dtype = np.dtype(dtype)
    yield from embedding_schema(spec, dtype)
    for i in range(spec.depth):
        yield from block_schema(spec, i, dtype)
    yield from decoder_schema(spec, dtype)


def flat_arrays(obj) -> list[np.ndarray]:
    """The arrays of a weight structure (the whole model or any part of
    it) in checkpoint order.

    Dataclass fields are declared in checkpoint order, so this is a walk
    over fields and lists that skips absent (None) tensors and turns each
    norm's float eps into a 0-d float64 array.
    """
    out: list[np.ndarray] = []
    _flatten(obj, out)
    return out


def _flatten(obj, out: list) -> None:
    if isinstance(obj, np.ndarray):
        out.append(obj)
    elif isinstance(obj, list):
        for item in obj:
            _flatten(item, out)
    elif is_dataclass(obj):
        for name in obj.__dataclass_fields__:
            _flatten(getattr(obj, name), out)
    elif obj is not None:
        out.append(np.asarray(obj, dtype=EPS_DTYPE))


# The inverse of flat_arrays, a part at a time: each takes the tensors of
# a ``spec`` model's part from ``arrays``, an iterator over them in
# checkpoint order, and leaves the iterator at the next part.


def norm_from(arrays, spec: ModelSpec) -> NormParams:
    mu = next(arrays)
    beta = None if spec.is_rms else next(arrays)
    return NormParams(mu, beta, float(next(arrays)))


def attention_from(arrays, spec: ModelSpec) -> AttentionWeights:
    heads = [HeadWeights(*(next(arrays) for _ in range(6))) for _ in range(spec.n_heads)]
    return AttentionWeights(heads, next(arrays), next(arrays))


def mlp_from(arrays) -> MlpWeights:
    return MlpWeights(*(next(arrays) for _ in range(4)))


def block_from(arrays, spec: ModelSpec) -> BlockWeights:
    return BlockWeights(norm_from(arrays, spec), attention_from(arrays, spec),
                        norm_from(arrays, spec), mlp_from(arrays))


def nonfinite_tensor(part, schema) -> str | None:
    """The name of the first tensor of ``part`` (named by ``schema``, in
    checkpoint order) that holds NaN or Inf, or None if none does."""
    for i, a in enumerate(flat_arrays(part)):
        # one reduction per tensor, with no temporary; a sum can also
        # overflow, so confirm
        if not math.isfinite(a.sum()) and not np.isfinite(a).all():
            return next(itertools.islice(schema, i, None)).name
    return None


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def validate_weights(w: ModelWeights, spec: ModelSpec) -> None:
    """Check every tensor extent against the spec's tensor schema."""
    spec.validate()
    _expect(len(w.blocks) == spec.depth,
            f"expected {spec.depth} blocks, got {len(w.blocks)}")
    schema = list(tensor_schema(spec, np.float64))  # only the shapes are checked
    arrays = flat_arrays(w)
    for entry, a in zip(schema, arrays):
        _expect(a.shape == entry.shape,
                f"{entry.name}: shape {a.shape}, the spec needs {entry.shape}")
    _expect(len(arrays) == len(schema),
            f"{len(arrays)} tensors, the spec needs {len(schema)}")


def apply_norm(x: np.ndarray, norm: NormParams, spec: ModelSpec) -> np.ndarray:
    if spec.is_rms:
        return kernels.rmsnorm(x, norm.mu, norm.eps)
    return kernels.layernorm(x, norm.mu, norm.beta, norm.eps)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` hold the same bits (so -0.0 is not 0.0,
    and a NaN may equal itself)."""
    kind = f"u{a.itemsize}"
    return (a.shape == b.shape and a.dtype == b.dtype
            and bool((a.view(kind) == b.view(kind)).all()))


def _cancels(proj: np.ndarray, size: int, same) -> bool:
    """The :func:`bias_only` rule on an output projection ``proj`` whose
    columns are units of ``size`` columns each.  ``same(a, b, n)`` says
    whether units ``a .. a+n-1`` have the same incoming weights and
    biases, bit for bit, as units ``b .. b+n-1``."""
    first = np.count_nonzero(proj[0])
    if first not in (0, 2):
        return False  # a block that carries a function fails here, on one row
    if first == 0 and not proj.any():
        return True  # no pairs at all; checked without a temporary
    # flat indices in row order, so a row's entries are adjacent
    rows, cols = np.divmod(np.flatnonzero(proj != 0), proj.shape[1])
    if rows.size % 2:
        return False
    r, lo, hi = rows[0::2], cols[0::2], cols[1::2]
    if ((rows[1::2] != r).any() or (r[1:] == r[:-1]).any()
            or (lo % size != hi % size).any()):
        return False  # a row with one, or more than two, nonzero entries
    a = proj[r, lo]
    if not (np.isfinite(a).all() and (a == -proj[r, hi]).all()):
        return False
    units = proj.shape[1] // size
    # the distinct unit pairs, in order; np.unique would import numpy.ma
    keys = np.sort(lo // size * units + hi // size)
    first, second = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], units)
    # compare the units a run of pairs names as one slice each: a run
    # steps both of its units by one
    cut = np.flatnonzero((first[1:] - first[:-1] != 1) | (second[1:] - second[:-1] != 1)) + 1
    return all(same(first[s], second[s], e - s)
               for s, e in zip([0, *cut], [*cut, first.size]))


#: the incoming weights and biases of a head, which its replicas share
_HEAD_INPUTS = ("wq", "wk", "wv", "bq", "bk", "bv")


def bias_only(module: AttentionWeights | MlpWeights) -> bool:
    """Whether an attention or MLP module contributes exactly its output
    bias on every input that keeps it finite; see the module docstring
    for the rule.  A module that carries a function is rejected on the
    first row of its output projection."""
    if isinstance(module, AttentionWeights):
        heads = module.heads
        return _cancels(module.wo, heads[0].wq.shape[0], lambda a, b, n: all(
            _same_bits(getattr(heads[a + i], f), getattr(heads[b + i], f))
            for i in range(n) for f in _HEAD_INPUTS))
    w1, b1 = module.w1, module.b1
    return _cancels(module.w2, 1, lambda a, b, n: (
        _same_bits(w1[a:a + n], w1[b:b + n]) and _same_bits(b1[a:a + n], b1[b:b + n])))


def mha_forward(x: np.ndarray, attn: AttentionWeights, spec: ModelSpec,
                skip: bool | None = None) -> np.ndarray:
    """Bidirectional multi-head attention over a (tokens, width) input.
    ``skip`` is ``bias_only(attn)`` when the caller has decided it
    already; None decides it here.  Under ``kernels.split_on`` the heads
    run in contiguous groups on the pool, and their outputs are stacked
    in head order, as one loop stacks them."""
    if x.ndim != 2 or x.shape[1] != attn.heads[0].wq.shape[1]:
        raise ShapeError(f"attention input shape {x.shape} does not match weights")
    if bias_only(attn) if skip is None else skip:
        return np.zeros((x.shape[0], attn.wo.shape[0]), x.dtype) + attn.bo
    scale = x.dtype.type(1.0 / math.sqrt(spec.head_dim))

    def run_heads(r: tuple[int, int]) -> list[np.ndarray]:
        outs = []
        for head in attn.heads[r[0]:r[1]]:
            q = kernels.matmul(x, head.wq.T) + head.bq
            k = kernels.matmul(x, head.wk.T) + head.bk
            v = kernels.matmul(x, head.wv.T) + head.bv
            scores = kernels.matmul(q, k.T) * scale
            outs.append(kernels.matmul(kernels.softmax_rows(scores), v))
        return outs

    # q, k and v, then scores and their product with v, for every head
    rows, inner = x.shape[0], attn.wo.shape[1]
    groups = kernels.split_ranges(len(attn.heads), rows * inner * (3 * x.shape[1] + 2 * rows))
    outs = [out for group in kernels.split_map(run_heads, groups) for out in group]
    return kernels.matmul(np.hstack(outs), attn.wo.T) + attn.bo


def mlp_forward(x: np.ndarray, mlp: MlpWeights, spec: ModelSpec,
                skip: bool | None = None) -> np.ndarray:
    """Per-token two-layer MLP: w2 @ act(w1 @ x + b1) + b2.  ``skip`` is
    ``bias_only(mlp)`` when the caller has decided it already; None
    decides it here."""
    if x.ndim != 2 or x.shape[1] != mlp.w1.shape[1]:
        raise ShapeError(f"MLP input shape {x.shape} does not match weights")
    if bias_only(mlp) if skip is None else skip:
        return np.zeros((x.shape[0], mlp.w2.shape[0]), x.dtype) + mlp.b2
    hidden = kernels.activation(kernels.matmul(x, mlp.w1.T) + mlp.b1, spec.activation)
    return kernels.matmul(hidden, mlp.w2.T) + mlp.b2


def _residual(x: np.ndarray, norm: NormParams, spec: ModelSpec, module) -> np.ndarray:
    """One residual sub-layer around ``module``, a function of the stream,
    with the spec's norm placement."""
    style = spec.norm_style
    if style in ("pre_ln", "rms_pre"):
        return x + module(apply_norm(x, norm, spec))
    if style == "post_res_norm":
        return x + apply_norm(module(x), norm, spec)
    if style == "post_ln":
        return apply_norm(module(x) + x, norm, spec)
    raise PlanError(f"unknown norm_style {style!r}")


def attention_sublayer(x: np.ndarray, ln1: NormParams, attn: AttentionWeights,
                       spec: ModelSpec, skip: bool | None = None) -> np.ndarray:
    """The attention half of a block: ``attn`` and its norm ``ln1`` around
    the residual, with ``skip`` passed to :func:`mha_forward`."""
    return _residual(x, ln1, spec, lambda h: mha_forward(h, attn, spec, skip))


def mlp_sublayer(x: np.ndarray, ln2: NormParams, mlp: MlpWeights,
                 spec: ModelSpec, skip: bool | None = None) -> np.ndarray:
    """The MLP half of a block: ``mlp`` and its norm ``ln2`` around the
    residual, with ``skip`` passed to :func:`mlp_forward`."""
    return _residual(x, ln2, spec, lambda h: mlp_forward(h, mlp, spec, skip))


def block_forward(x: np.ndarray, block: BlockWeights, spec: ModelSpec) -> np.ndarray:
    """Apply the attention sub-layer then the MLP sub-layer."""
    x = attention_sublayer(x, block.ln1, block.attn, spec)
    return mlp_sublayer(x, block.ln2, block.mlp, spec)


def embed(inputs: np.ndarray, emb: EmbeddingWeights, spec: ModelSpec) -> np.ndarray:
    """Map raw inputs to the (tokens, width) stream entering the blocks."""
    if spec.input_kind == "token":
        ids = np.asarray(inputs)
        if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
            raise ShapeError("token input must be a 1-D integer array")
        if ids.size and (ids.min() < 0 or ids.max() >= spec.vocab_or_classes):
            raise ShapeError("token id out of range")
        return emb.token_table[ids]
    patches = np.asarray(inputs, dtype=emb.patch_weight.dtype)
    if patches.ndim != 2 or patches.shape != (spec.num_patches, spec.patch_dim):
        raise ShapeError(f"patch input must have shape "
                         f"{(spec.num_patches, spec.patch_dim)}, got {patches.shape}")
    x = kernels.matmul(patches, emb.patch_weight.T) + emb.patch_bias
    x = np.vstack([emb.cls_token[None, :], x])
    return x + emb.positions


def model_forward(inputs: np.ndarray, w: ModelWeights, spec: ModelSpec) -> np.ndarray:
    """Embedding -> blocks -> (final norm) -> decoder logits.

    Token models return per-position logits ``(tokens, vocab)``; vision
    models return the class-token logits ``(classes,)``.
    """
    x = embed(inputs, w.embedding, spec)
    for block in w.blocks:
        x = block_forward(x, block, spec)
    return decode(x, w, spec)


def decode(x: np.ndarray, w: ModelWeights, spec: ModelSpec) -> np.ndarray:
    """The stream leaving the last block -> (final norm) -> decoder logits,
    of the class-token position for vision models.  Reads no block of
    ``w``."""
    if w.final_norm is not None:
        x = apply_norm(x, w.final_norm, spec)
    table = w.embedding.token_table if spec.tied_decoder else w.dec_weight
    logits = kernels.matmul(x, table.T) + w.dec_bias
    if spec.input_kind == "vision":
        return logits[0]
    return logits


def random_weights(spec: ModelSpec, rng: np.random.Generator,
                   dtype=np.float64) -> ModelWeights:
    """Deterministic random weights for a spec (test fixtures, init-random)."""
    spec.validate()
    d, hd, hidden = spec.width, spec.head_dim, spec.hidden_dim

    def mat(*shape):
        a = rng.standard_normal(shape)
        a *= 0.25
        return a.astype(dtype, copy=False)

    def norm() -> NormParams:
        mu = (1.0 + 0.2 * rng.standard_normal(d)).astype(dtype)
        beta = None if spec.is_rms else (0.1 * rng.standard_normal(d)).astype(dtype)
        return NormParams(mu, beta, spec.eps)

    if spec.input_kind == "token":
        embedding = EmbeddingWeights(token_table=mat(spec.vocab_or_classes, d))
    else:
        embedding = EmbeddingWeights(
            patch_weight=mat(d, spec.patch_dim),
            patch_bias=mat(d),
            cls_token=mat(d),
            positions=mat(spec.num_patches + 1, d),
        )
    blocks = []
    for _ in range(spec.depth):
        heads = [HeadWeights(mat(hd, d), mat(hd, d), mat(hd, d),
                             mat(hd), mat(hd), mat(hd))
                 for _ in range(spec.n_heads)]
        attn = AttentionWeights(heads, mat(d, spec.n_heads * hd), mat(d))
        mlp = MlpWeights(mat(hidden, d), mat(hidden), mat(d, hidden), mat(d))
        blocks.append(BlockWeights(norm(), attn, norm(), mlp))
    final = norm() if spec.has_final_norm else None
    dec_w = None if spec.tied_decoder else mat(spec.vocab_or_classes, d)
    weights = ModelWeights(embedding, blocks, final, dec_w, mat(spec.vocab_or_classes))
    validate_weights(weights, spec)
    return weights


def spec_with(spec: ModelSpec, **changes) -> ModelSpec:
    return replace(spec, **changes).validate()

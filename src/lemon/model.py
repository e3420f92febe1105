"""Forward-only reference Transformer used as the losslessness oracle.

Four block variants are supported, differing in where the normalization
sits relative to the residual branch:

* ``pre_ln``         : x + Module(LN(x)); final LN before the decoder.
* ``post_res_norm``  : x + LN(Module(x)); no final norm.
* ``post_ln``        : LN(Module(x) + x); no final norm.
* ``rms_pre``        : x + Module(RMS(x)); final RMS before the decoder.

Attention is bidirectional (no causal mask).  Token models embed ids
straight from a table; vision models project flattened patches, prepend
a class token, add learned positional embeddings, and decode from the
class-token position.  All linear layers carry biases.

An attention or MLP module whose stored output projection (``attn.wo``
or ``mlp.w2``) is all zero contributes exactly its output bias, so it is
not evaluated: no q/k/v, softmax, ``w1`` or activation runs for it.  The
rule looks at the stored weights only, never at how they were made, and
is exact for finite activations: the full path's zero matmul yields +0
(einsum sums its ±0 products from +0), and ``+0 + bias`` is what both
paths return.  A NaN or Inf that would
arise inside such a module is therefore not reported.

Everything here is a pure function of the weights; there is no training
machinery of any kind.
"""

from __future__ import annotations

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
        if not _finite(lambda: float(self.width)):
            raise PlanError("width does not fit in a float")
        if not _finite(lambda: self.mlp_ratio * self.width):
            raise PlanError("mlp_ratio must yield a finite hidden dim")
        if self.mlp_ratio <= 0 or self.hidden_dim <= 0:
            raise PlanError("mlp_ratio must yield a positive hidden dim")
        if not (_finite(lambda: self.eps) and self.eps >= 0):
            raise PlanError("eps must be finite and non-negative")
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

    def copy(self) -> "NormParams":
        return NormParams(self.mu.copy(),
                          None if self.beta is None else self.beta.copy(),
                          self.eps)


@dataclass
class HeadWeights:
    """One attention head: wq/wk/wv are (width, head_dim), biases (head_dim,)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray

    def copy(self) -> "HeadWeights":
        return HeadWeights(*(getattr(self, f).copy()
                             for f in ("wq", "wk", "wv", "bq", "bk", "bv")))


@dataclass
class AttentionWeights:
    heads: list[HeadWeights]
    wo: np.ndarray   # (n_heads * head_dim, width)
    bo: np.ndarray   # (width,)

    def copy(self) -> "AttentionWeights":
        return AttentionWeights([h.copy() for h in self.heads],
                                self.wo.copy(), self.bo.copy())


@dataclass
class MlpWeights:
    w1: np.ndarray   # (hidden, width)
    b1: np.ndarray   # (hidden,)
    w2: np.ndarray   # (width, hidden)
    b2: np.ndarray   # (width,)

    def copy(self) -> "MlpWeights":
        return MlpWeights(self.w1.copy(), self.b1.copy(),
                          self.w2.copy(), self.b2.copy())


@dataclass
class BlockWeights:
    ln1: NormParams
    attn: AttentionWeights
    ln2: NormParams
    mlp: MlpWeights

    def copy(self) -> "BlockWeights":
        return BlockWeights(self.ln1.copy(), self.attn.copy(),
                            self.ln2.copy(), self.mlp.copy())


@dataclass
class EmbeddingWeights:
    """Token table, or patch projection + class token + positions (vision)."""

    token_table: np.ndarray | None = None   # (vocab, width)
    patch_weight: np.ndarray | None = None  # (width, patch_dim)
    patch_bias: np.ndarray | None = None    # (width,)
    cls_token: np.ndarray | None = None     # (width,)
    positions: np.ndarray | None = None     # (num_patches + 1, width)

    def copy(self) -> "EmbeddingWeights":
        def cp(a):
            return None if a is None else a.copy()
        return EmbeddingWeights(cp(self.token_table), cp(self.patch_weight),
                                cp(self.patch_bias), cp(self.cls_token),
                                cp(self.positions))


@dataclass
class ModelWeights:
    embedding: EmbeddingWeights
    blocks: list[BlockWeights]
    final_norm: NormParams | None
    dec_weight: np.ndarray | None   # (classes, width); None when tied
    dec_bias: np.ndarray            # (classes,)

    def copy(self) -> "ModelWeights":
        return ModelWeights(self.embedding.copy(),
                            [b.copy() for b in self.blocks],
                            None if self.final_norm is None else self.final_norm.copy(),
                            None if self.dec_weight is None else self.dec_weight.copy(),
                            self.dec_bias.copy())


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


def block_schema(spec: ModelSpec, i: int, dtype: np.dtype):
    """The tensors of block ``i``, in checkpoint order."""
    d, hd, hidden = spec.width, spec.head_dim, spec.hidden_dim
    p = f"blocks.{i}"
    yield from _norm_schema(f"{p}.ln1", spec, dtype)
    for h in range(spec.n_heads):
        for f in ("wq", "wk", "wv"):
            yield TensorEntry(f"{p}.attn.head{h}.{f}", (d, hd), dtype)
        for f in ("bq", "bk", "bv"):
            yield TensorEntry(f"{p}.attn.head{h}.{f}", (hd,), dtype)
    yield TensorEntry(f"{p}.attn.wo", (spec.n_heads * hd, d), dtype)
    yield TensorEntry(f"{p}.attn.bo", (d,), dtype)
    yield from _norm_schema(f"{p}.ln2", spec, dtype)
    yield TensorEntry(f"{p}.mlp.w1", (hidden, d), dtype)
    yield TensorEntry(f"{p}.mlp.b1", (hidden,), dtype)
    yield TensorEntry(f"{p}.mlp.w2", (d, hidden), dtype)
    yield TensorEntry(f"{p}.mlp.b2", (d,), dtype)


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


def mha_forward(x: np.ndarray, attn: AttentionWeights, spec: ModelSpec) -> np.ndarray:
    """Bidirectional multi-head attention over a (tokens, width) input."""
    if x.ndim != 2 or x.shape[1] != attn.heads[0].wq.shape[0]:
        raise ShapeError(f"attention input shape {x.shape} does not match weights")
    if not attn.wo.any():  # the module contributes exactly its bias
        return np.zeros((x.shape[0], attn.wo.shape[1]), x.dtype) + attn.bo
    scale = 1.0 / math.sqrt(spec.head_dim)
    outs = []
    for head in attn.heads:
        q = kernels.matmul(x, head.wq) + head.bq
        k = kernels.matmul(x, head.wk) + head.bk
        v = kernels.matmul(x, head.wv) + head.bv
        scores = kernels.matmul(q, k.T) * x.dtype.type(scale)
        outs.append(kernels.matmul(kernels.softmax_rows(scores), v))
    return kernels.matmul(np.hstack(outs), attn.wo) + attn.bo


def mlp_forward(x: np.ndarray, mlp: MlpWeights, spec: ModelSpec) -> np.ndarray:
    """Per-token two-layer MLP: w2 @ act(w1 @ x + b1) + b2."""
    if x.ndim != 2 or x.shape[1] != mlp.w1.shape[1]:
        raise ShapeError(f"MLP input shape {x.shape} does not match weights")
    if not mlp.w2.any():  # the module contributes exactly its bias
        return np.zeros((x.shape[0], mlp.w2.shape[0]), x.dtype) + mlp.b2
    hidden = kernels.activation(kernels.matmul(x, mlp.w1.T) + mlp.b1, spec.activation)
    return kernels.matmul(hidden, mlp.w2.T) + mlp.b2


def block_forward(x: np.ndarray, block: BlockWeights, spec: ModelSpec) -> np.ndarray:
    """Apply the attention sub-block then the MLP sub-block, honoring the
    spec's norm placement."""
    style = spec.norm_style
    if style in ("pre_ln", "rms_pre"):
        x = x + mha_forward(apply_norm(x, block.ln1, spec), block.attn, spec)
        x = x + mlp_forward(apply_norm(x, block.ln2, spec), block.mlp, spec)
    elif style == "post_res_norm":
        x = x + apply_norm(mha_forward(x, block.attn, spec), block.ln1, spec)
        x = x + apply_norm(mlp_forward(x, block.mlp, spec), block.ln2, spec)
    elif style == "post_ln":
        x = apply_norm(mha_forward(x, block.attn, spec) + x, block.ln1, spec)
        x = apply_norm(mlp_forward(x, block.mlp, spec) + x, block.ln2, spec)
    else:
        raise PlanError(f"unknown norm_style {style!r}")
    return x


def embed(inputs: np.ndarray, w: ModelWeights, spec: ModelSpec) -> np.ndarray:
    """Map raw inputs to the (tokens, width) stream entering the blocks."""
    emb = w.embedding
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
    x = embed(inputs, w, spec)
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
        return (rng.standard_normal(shape) * 0.25).astype(dtype)

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
        heads = [HeadWeights(mat(d, hd), mat(d, hd), mat(d, hd),
                             mat(hd), mat(hd), mat(hd))
                 for _ in range(spec.n_heads)]
        attn = AttentionWeights(heads, mat(spec.n_heads * hd, d), mat(d))
        mlp = MlpWeights(mat(hidden, d), mat(hidden), mat(d, hidden), mat(d))
        blocks.append(BlockWeights(norm(), attn, norm(), mlp))
    final = norm() if spec.has_final_norm else None
    dec_w = None if spec.tied_decoder else mat(spec.vocab_or_classes, d)
    weights = ModelWeights(embedding, blocks, final, dec_w, mat(spec.vocab_or_classes))
    validate_weights(weights, spec)
    return weights


def spec_with(spec: ModelSpec, **changes) -> ModelSpec:
    return replace(spec, **changes).validate()

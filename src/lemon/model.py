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

Everything here is a pure function of the weights; there is no training
machinery of any kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if self.mlp_ratio <= 0 or self.hidden_dim <= 0:
            raise PlanError("mlp_ratio must yield a positive hidden dim")
        if self.eps < 0:
            raise PlanError("eps must be non-negative")
        if self.tied_decoder:
            if self.input_kind != "token":
                raise PlanError("tied_decoder requires token-embedding input")
            if not self.has_final_norm:
                raise PlanError("tied_decoder requires a norm style with a final norm")
        if self.input_kind == "vision" and (self.patch_dim <= 0 or self.num_patches <= 0):
            raise PlanError("vision input requires positive patch_dim and num_patches")
        return self


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


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def validate_weights(w: ModelWeights, spec: ModelSpec) -> None:
    """Check every tensor extent against the spec."""
    spec.validate()
    d, hd, hidden = spec.width, spec.head_dim, spec.hidden_dim
    _expect(len(w.blocks) == spec.depth,
            f"expected {spec.depth} blocks, got {len(w.blocks)}")
    emb = w.embedding
    if spec.input_kind == "token":
        _expect(emb.token_table is not None
                and emb.token_table.shape == (spec.vocab_or_classes, d),
                "token table shape mismatch")
    else:
        _expect(emb.patch_weight is not None and emb.patch_weight.shape == (d, spec.patch_dim),
                "patch projection shape mismatch")
        _expect(emb.patch_bias is not None and emb.patch_bias.shape == (d,),
                "patch bias shape mismatch")
        _expect(emb.cls_token is not None and emb.cls_token.shape == (d,),
                "class token shape mismatch")
        _expect(emb.positions is not None
                and emb.positions.shape == (spec.num_patches + 1, d),
                "positional embedding shape mismatch")
    for i, blk in enumerate(w.blocks):
        _expect(len(blk.attn.heads) == spec.n_heads, f"block {i}: head count mismatch")
        for h in blk.attn.heads:
            for name in ("wq", "wk", "wv"):
                _expect(getattr(h, name).shape == (d, hd), f"block {i}: {name} shape")
            for name in ("bq", "bk", "bv"):
                _expect(getattr(h, name).shape == (hd,), f"block {i}: {name} shape")
        _expect(blk.attn.wo.shape == (spec.n_heads * hd, d), f"block {i}: wo shape")
        _expect(blk.attn.bo.shape == (d,), f"block {i}: bo shape")
        _expect(blk.mlp.w1.shape == (hidden, d), f"block {i}: w1 shape")
        _expect(blk.mlp.b1.shape == (hidden,), f"block {i}: b1 shape")
        _expect(blk.mlp.w2.shape == (d, hidden), f"block {i}: w2 shape")
        _expect(blk.mlp.b2.shape == (d,), f"block {i}: b2 shape")
        for ln in (blk.ln1, blk.ln2):
            _expect(ln.mu.shape == (d,), f"block {i}: norm weight shape")
            _expect((ln.beta is None) == spec.is_rms, f"block {i}: norm beta presence")
            if ln.beta is not None:
                _expect(ln.beta.shape == (d,), f"block {i}: norm beta shape")
    _expect((w.final_norm is not None) == spec.has_final_norm, "final norm presence")
    if w.final_norm is not None:
        _expect(w.final_norm.mu.shape == (d,), "final norm shape")
    if spec.tied_decoder:
        _expect(w.dec_weight is None, "tied decoder must not carry its own weight")
    else:
        _expect(w.dec_weight is not None
                and w.dec_weight.shape == (spec.vocab_or_classes, d),
                "decoder weight shape mismatch")
    _expect(w.dec_bias.shape == (spec.vocab_or_classes,), "decoder bias shape mismatch")


def apply_norm(x: np.ndarray, norm: NormParams, spec: ModelSpec) -> np.ndarray:
    if spec.is_rms:
        return kernels.rmsnorm(x, norm.mu, norm.eps)
    return kernels.layernorm(x, norm.mu, norm.beta, norm.eps)


def mha_forward(x: np.ndarray, attn: AttentionWeights, spec: ModelSpec) -> np.ndarray:
    """Bidirectional multi-head attention over a (tokens, width) input."""
    if x.ndim != 2 or x.shape[1] != attn.heads[0].wq.shape[0]:
        raise ShapeError(f"attention input shape {x.shape} does not match weights")
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

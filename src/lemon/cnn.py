"""Bottleneck-block expansion for convolutional networks.

A bottleneck is three conv+BN stages on a residual branch: a 1x1 conv
squeezing the outer channel count down to the inner width, a 3x3 conv at
the inner width, and a 1x1 conv expanding back.  Growing the inner width
replicates the first stage's output channels circularly (BatchNorm
statistics are per channel, so replicated channels normalize
identically) and splits the in-channel weights of the later stages so
each group of replicated channels sums back to the original kernel.
The split is the Transformer path's ``lemon`` column split, so every
entry of every pair of replica kernels differs by more than
``expander.MIN_SEPARATION`` times the noise scale, which breaks
symmetry.  The block output is unchanged.

BatchNorm is inference-mode throughout: fixed running statistics, no
batch reductions.  Convolutions are direct (im2col + the package
matmul), stride 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ShapeError
from .expander import column_split, map_arrays


@dataclass
class ConvWeights:
    weight: np.ndarray  # (c_out, c_in, kh, kw)
    bias: np.ndarray    # (c_out,)
    padding: int = 0


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5


@dataclass
class BottleneckWeights:
    """conv1/bn1 -> relu -> conv2/bn2 -> relu -> conv3/bn3, plus identity
    shortcut; inner channels are conv1's outputs."""

    conv1: ConvWeights
    bn1: BatchNormParams
    conv2: ConvWeights
    bn2: BatchNormParams
    conv3: ConvWeights
    bn3: BatchNormParams


def conv2d(x: np.ndarray, conv: ConvWeights) -> np.ndarray:
    """Direct stride-1 cross-correlation of (c_in, h, w) with the kernel."""
    w, b, pad = conv.weight, conv.bias, conv.padding
    if x.ndim != 3 or x.shape[0] != w.shape[1]:
        raise ShapeError(f"conv input shape {x.shape} does not match weight {w.shape}")
    c_out, c_in, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = x.shape[1] - kh + 1
    w_out = x.shape[2] - kw + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError("kernel larger than padded input")
    cols = np.empty((c_in * kh * kw, h_out * w_out), dtype=x.dtype)
    idx = 0
    for c in range(c_in):
        for dy in range(kh):
            for dx in range(kw):
                cols[idx] = x[c, dy:dy + h_out, dx:dx + w_out].reshape(-1)
                idx += 1
    flat = kernels.matmul(w.reshape(c_out, -1), cols)
    return flat.reshape(c_out, h_out, w_out) + b[:, None, None]


def batchnorm_infer(x: np.ndarray, bn: BatchNormParams) -> np.ndarray:
    """Per-channel normalization with fixed running statistics."""
    if x.shape[0] != bn.mean.shape[0]:
        raise ShapeError("batchnorm channel count mismatch")
    scale = bn.gamma / np.sqrt(bn.var + bn.eps)
    return (x - bn.mean[:, None, None]) * scale[:, None, None] + bn.beta[:, None, None]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def bottleneck_forward(x: np.ndarray, w: BottleneckWeights) -> np.ndarray:
    """Residual bottleneck with identity shortcut and final ReLU."""
    r = _relu(batchnorm_infer(conv2d(x, w.conv1), w.bn1))
    r = _relu(batchnorm_infer(conv2d(r, w.conv2), w.bn2))
    r = batchnorm_infer(conv2d(r, w.conv3), w.bn3)
    if r.shape != x.shape:
        raise ShapeError(f"branch output {r.shape} does not match shortcut {x.shape}")
    return _relu(r + x)


def _bn_take(bn: BatchNormParams, idx: np.ndarray) -> BatchNormParams:
    return BatchNormParams(bn.gamma[idx], bn.beta[idx], bn.mean[idx], bn.var[idx], bn.eps)


def expand_cnn_bottleneck(w: BottleneckWeights, d_t: int,
                          rng: np.random.Generator,
                          noise_scale: float = 0.02) -> BottleneckWeights:
    """Grow the inner channel count to ``d_t`` without changing the block
    output.

    Stage 1 replicates output channels (weights, bias, BN stats)
    circularly; stage 2 splits its in-channels and replicates its
    out-channels with the same circular pattern (the in-channel split is
    drawn once per source channel and tiled, so replicated outputs stay
    bitwise identical); stage 3 splits its in-channels and keeps its
    outputs untouched.

    An in-channel split is the circular ``lemon`` column split of the
    kernel viewed as a ``(c_out*kh*kw, d_s)`` matrix, drawn in float64
    and cast back to the weight's dtype.
    """
    d_s = w.conv1.weight.shape[0]

    def split_in_channels(weight: np.ndarray) -> np.ndarray:
        c_out, c_in, kh, kw = weight.shape
        m = weight.transpose(0, 2, 3, 1).reshape(-1, c_in).astype(np.float64, copy=False)
        grown = column_split(m, d_t, "circ", "lemon", rng, noise_scale)
        return np.ascontiguousarray(
            grown.reshape(c_out, kh, kw, d_t).transpose(0, 3, 1, 2), dtype=weight.dtype)

    circ = np.arange(d_t) % d_s  # source channel of each grown inner channel
    mid = split_in_channels(w.conv2.weight)
    return BottleneckWeights(
        ConvWeights(w.conv1.weight[circ], w.conv1.bias[circ], w.conv1.padding),
        _bn_take(w.bn1, circ),
        ConvWeights(mid[circ], w.conv2.bias[circ], w.conv2.padding),
        _bn_take(w.bn2, circ),
        ConvWeights(split_in_channels(w.conv3.weight), w.conv3.bias.copy(), w.conv3.padding),
        map_arrays(w.bn3, np.copy))


def random_bottleneck(outer: int, inner: int, kernel: int,
                      rng: np.random.Generator, eps: float = 1e-5,
                      dtype=np.float64) -> BottleneckWeights:
    """Random inference-mode bottleneck (test fixtures)."""
    def conv(c_out, c_in, k, pad):
        weight = rng.standard_normal((c_out, c_in, k, k))
        weight *= 0.3  # in place, and cast without a copy when dtype is float64
        return ConvWeights(weight.astype(dtype, copy=False),
                           (rng.standard_normal(c_out) * 0.1).astype(dtype), pad)

    def bn(c):
        return BatchNormParams((1.0 + 0.2 * rng.standard_normal(c)).astype(dtype),
                               (0.1 * rng.standard_normal(c)).astype(dtype),
                               (0.1 * rng.standard_normal(c)).astype(dtype),
                               (1.0 + 0.5 * rng.random(c)).astype(dtype), eps)

    return BottleneckWeights(conv(inner, outer, 1, 0), bn(inner),
                             conv(inner, inner, kernel, (kernel - 1) // 2), bn(inner),
                             conv(outer, inner, 1, 0), bn(outer))

import tracemalloc

import numpy as np
import pytest

from lemon import PlanError, ShapeError
from lemon.cnn import (BatchNormParams, ConvWeights, batchnorm_infer,
                       bottleneck_forward, conv2d, expand_cnn_bottleneck,
                       random_bottleneck)
from lemon.rng import substream


def naive_conv(x, weight, bias, pad):
    """Independent nested-loop cross-correlation."""
    c_out, c_in, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h = xp.shape[1] - kh + 1
    w = xp.shape[2] - kw + 1
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for y in range(h):
            for z in range(w):
                acc = 0.0
                for c in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += weight[o, c, dy, dx] * xp[c, y + dy, z + dx]
                out[o, y, z] = acc + bias[o]
    return out


class TestConv:
    @pytest.mark.parametrize("kernel,pad", [(1, 0), (3, 1), (3, 0)])
    def test_matches_naive_oracle(self, rng, kernel, pad):
        g = rng("conv", kernel, pad)
        w = ConvWeights(g.standard_normal((3, 2, kernel, kernel)),
                        g.standard_normal(3), pad)
        x = g.standard_normal((2, 5, 5))
        np.testing.assert_allclose(conv2d(x, w),
                                   naive_conv(x, w.weight, w.bias, pad),
                                   rtol=0, atol=1e-12)

    def test_shape_errors(self, rng):
        w = ConvWeights(np.zeros((2, 3, 1, 1)), np.zeros(2), 0)
        with pytest.raises(ShapeError):
            conv2d(np.zeros((2, 4, 4)), w)  # channel mismatch
        big = ConvWeights(np.zeros((1, 2, 7, 7)), np.zeros(1), 0)
        with pytest.raises(ShapeError):
            conv2d(np.zeros((2, 4, 4)), big)  # kernel larger than input

    def test_batchnorm_formula(self, rng):
        g = rng("bn")
        bn = BatchNormParams(g.standard_normal(3), g.standard_normal(3),
                             g.standard_normal(3), 1.0 + g.random(3), 1e-5)
        x = g.standard_normal((3, 4, 4))
        want = np.empty_like(x)
        for c in range(3):
            want[c] = ((x[c] - bn.mean[c]) / np.sqrt(bn.var[c] + bn.eps)
                       * bn.gamma[c] + bn.beta[c])
        np.testing.assert_allclose(batchnorm_infer(x, bn), want, atol=1e-12)

    def test_bottleneck_shortcut_shape_guard(self, rng):
        w = random_bottleneck(outer=4, inner=2, kernel=3, rng=rng("g"))
        w.conv2.padding = 0  # branch now shrinks spatially
        with pytest.raises(ShapeError):
            bottleneck_forward(rng("x").standard_normal((4, 6, 6)), w)


def old_random_bottleneck(outer, inner, kernel, rng, eps=1e-5, dtype=np.float64):
    """random_bottleneck as it was, with two full copies of each conv weight."""
    def conv(c_out, c_in, k, pad):
        return ConvWeights((rng.standard_normal((c_out, c_in, k, k)) * 0.3).astype(dtype),
                           (rng.standard_normal(c_out) * 0.1).astype(dtype), pad)

    def bn(c):
        return BatchNormParams((1.0 + 0.2 * rng.standard_normal(c)).astype(dtype),
                               (0.1 * rng.standard_normal(c)).astype(dtype),
                               (0.1 * rng.standard_normal(c)).astype(dtype),
                               (1.0 + 0.5 * rng.random(c)).astype(dtype), eps)

    return [conv(inner, outer, 1, 0), bn(inner),
            conv(inner, inner, kernel, (kernel - 1) // 2), bn(inner),
            conv(outer, inner, 1, 0), bn(outer)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_random_bottleneck_keeps_the_old_bits_without_copying_weights(dtype):
    outer, inner, kernel = 4, 64, 3
    want = old_random_bottleneck(outer, inner, kernel, substream(21, "r"), dtype=dtype)
    tracemalloc.start()
    try:
        got = random_bottleneck(outer, inner, kernel, substream(21, "r"), dtype=dtype)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stages = [got.conv1, got.bn1, got.conv2, got.bn2, got.conv3, got.bn3]
    for stage, ref in zip(stages, want):
        for name, value in vars(ref).items():
            mine = getattr(stage, name)
            if isinstance(value, np.ndarray):
                assert mine.dtype == dtype and mine.tobytes() == value.tobytes(), name
            else:
                assert mine == value, name
    # past what it keeps, only the float64 draw of a float32 conv2 weight;
    # the old expression held a second copy of a float64 one
    drawn = got.conv2.weight.size * 8
    assert peak - final < (drawn if dtype == np.float32 else 0) + 0.1 * drawn


class TestBottleneckExpansion:
    @pytest.mark.parametrize("d_s,d_t", [(2, 3), (4, 6), (2, 5), (3, 7)])
    def test_lossless(self, d_s, d_t):
        w = random_bottleneck(outer=5, inner=d_s, kernel=3,
                              rng=substream(1, "bl", d_s))
        big = expand_cnn_bottleneck(w, d_t, substream(2, "ex", d_s, d_t))
        for i in range(4):
            x = substream(3, "x", i, d_s, d_t).standard_normal((5, 4, 4))
            np.testing.assert_allclose(bottleneck_forward(x, big),
                                       bottleneck_forward(x, w),
                                       rtol=0, atol=1e-10)

    def test_one_by_one_reduces_to_matrix_case(self):
        w = random_bottleneck(outer=4, inner=2, kernel=1, rng=substream(4, "m"))
        big = expand_cnn_bottleneck(w, 3, substream(5, "m"))
        x = substream(6, "m").standard_normal((4, 3, 3))
        np.testing.assert_allclose(bottleneck_forward(x, big),
                                   bottleneck_forward(x, w), rtol=0, atol=1e-10)

    def test_identity(self):
        w = random_bottleneck(outer=4, inner=3, kernel=3, rng=substream(7, "i"))
        big = expand_cnn_bottleneck(w, 3, substream(8, "i"))
        x = substream(9, "i").standard_normal((4, 4, 4))
        np.testing.assert_array_equal(bottleneck_forward(x, big),
                                      bottleneck_forward(x, w))

    def test_first_stage_is_circular(self):
        w = random_bottleneck(outer=4, inner=2, kernel=3, rng=substream(10, "c"))
        big = expand_cnn_bottleneck(w, 5, substream(11, "c"))
        for i in range(5):
            np.testing.assert_array_equal(big.conv1.weight[i],
                                          w.conv1.weight[i % 2])
            assert big.bn1.mean[i] == w.bn1.mean[i % 2]

    def test_replicated_in_channels_sum_to_source(self):
        w = random_bottleneck(outer=4, inner=2, kernel=3, rng=substream(12, "s"))
        big = expand_cnn_bottleneck(w, 5, substream(13, "s"))
        for z in range(2):
            copies = [i for i in range(5) if i % 2 == z]
            total = sum(big.conv3.weight[:, i] for i in copies)
            np.testing.assert_allclose(total, w.conv3.weight[:, z],
                                       rtol=0, atol=1e-12)

    def test_replicated_in_channels_entrywise_distinct(self):
        w = random_bottleneck(outer=4, inner=2, kernel=3, rng=substream(14, "d"))
        big = expand_cnn_bottleneck(w, 4, substream(15, "d"))
        for z in range(2):
            a, b = big.conv3.weight[:, z], big.conv3.weight[:, z + 2]
            assert np.abs(a - b).min() > 0

    def test_shrinking_rejected(self):
        w = random_bottleneck(outer=4, inner=3, kernel=3, rng=substream(16, "e"))
        with pytest.raises(ShapeError):
            expand_cnn_bottleneck(w, 2, substream(17, "e"))

    def test_float32_keeps_dtype_and_stays_lossless(self):
        w = random_bottleneck(outer=5, inner=3, kernel=3, rng=substream(18, "f"),
                              dtype=np.float32)
        big = expand_cnn_bottleneck(w, 7, substream(19, "f"))
        for conv in (big.conv1, big.conv2, big.conv3):
            assert conv.weight.dtype == np.float32 and conv.bias.dtype == np.float32
        x = substream(20, "f").standard_normal((5, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(bottleneck_forward(x, big),
                                   bottleneck_forward(x, w), rtol=0, atol=1e-5)

    def test_unseparable_noise_rejected(self, zero_normal):
        w = random_bottleneck(outer=4, inner=2, kernel=3, rng=substream(21, "z"))
        with pytest.raises(PlanError):
            expand_cnn_bottleneck(w, 5, zero_normal())

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemon import NumericsError, ShapeError
from lemon import kernels
from lemon.rng import substream


class TestMatmul:
    def test_identity(self, rng):
        m = rng("id").standard_normal((2, 5))
        np.testing.assert_array_equal(kernels.matmul(np.eye(2), m), m)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(kernels.matmul(a, b), [[3.0], [7.0]])

    def test_zero(self, rng):
        a = rng("z").standard_normal((3, 4))
        out = kernels.matmul(a, np.zeros((4, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            kernels.matmul(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            kernels.matmul(np.ones(3), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            kernels.matmul(np.ones((2, 3), dtype=np.float32), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            kernels.matmul(np.ones((2, 2), dtype=np.int64), np.ones((2, 2)))

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_associativity(self, rng, dtype, tol):
        g = rng("assoc", str(dtype))
        for _ in range(30):
            a = g.standard_normal((4, 3)).astype(dtype)
            b = g.standard_normal((3, 5)).astype(dtype)
            c = g.standard_normal((5, 2)).astype(dtype)
            left = kernels.matmul(kernels.matmul(a, b), c)
            right = kernels.matmul(a, kernels.matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=tol, atol=tol)

    def test_large_k_consistent_with_blas(self, rng):
        g = rng("chunk")
        a = g.standard_normal((3, 700))
        b = g.standard_normal((700, 2))
        np.testing.assert_allclose(kernels.matmul(a, b), a @ b, rtol=1e-12, atol=1e-12)

    def test_nonfinite_rejected(self):
        a = np.full((1, 2), 1e308)
        b = np.full((2, 1), 1e308)
        with pytest.raises(NumericsError):
            kernels.matmul(a, b)

    @pytest.mark.parametrize("impl", ("einsum", "fallback"))
    @pytest.mark.parametrize("a,b", [(np.full((1, 2), 1e308), np.full((2, 1), 1e308)),
                                     (np.array([[np.inf, 1.0]]), np.array([[0.0], [1.0]]))],
                             ids=["overflow", "inf_times_zero"])
    def test_nonfinite_is_a_numerics_error_under_raising_seterr(self, monkeypatch, impl,
                                                                a, b):
        # an overflow or inf * 0 surfaces as NumericsError on either inner
        # loop, never as a numpy FloatingPointError, whatever np.seterr says
        inner = kernels._einsum if impl == "einsum" else kernels._multiply_then_sum
        monkeypatch.setattr(kernels, "_inner", inner)
        with np.errstate(all="raise"), pytest.raises(NumericsError):
            kernels.matmul(a, b)

    @pytest.mark.parametrize("impl", ("active", "fallback"))
    def test_accumulation_contracts(self, rng, monkeypatch, impl):
        # both inner loops must keep replicated columns bitwise equal and
        # cancel exact +/- pairs to exactly zero, whether the right operand
        # is stored (in, out) or is the transposed view of an (out, in) weight
        if impl == "fallback":
            monkeypatch.setattr(kernels, "_inner", kernels._multiply_then_sum)
        g = rng("contract", impl)
        for k in (6, 300):
            for layout in (np.ascontiguousarray, np.asfortranarray):
                base = g.standard_normal((k, 5))
                dup = layout(np.hstack([base, base, base[:, :2]]))
                c = kernels.matmul(g.standard_normal((4, k)), dup)
                for j in range(dup.shape[1]):
                    np.testing.assert_array_equal(c[:, j], c[:, j % 5])
                h = g.standard_normal((4, 2 * k))
                h[:, k:] = h[:, :k]
                w = np.zeros((2 * k, 3))
                for t in range(3):
                    z = int(g.integers(0, k))
                    w[z, t] = g.standard_normal()
                    w[z + k, t] = -w[z, t]
                out = kernels.matmul(h, layout(w))
                assert np.all(out == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3072), n=st.integers(1, 6), m=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_transposed_view_contracts(self, k, n, m, seed):
        # the model passes (out, in) weights as w.T views
        g = np.random.default_rng(seed)
        base = g.standard_normal((n, k))
        w = np.vstack([base, base, base[:1]])  # duplicated output rows
        c = kernels.matmul(g.standard_normal((m, k)), w.T)
        for j in range(w.shape[0]):
            np.testing.assert_array_equal(c[:, j], c[:, j % n])
        h = g.standard_normal((m, 2 * k))
        h[:, k:] = h[:, :k]
        pm = np.zeros((3, 2 * k))  # one +/- pair over the input dim per row
        rows, z = np.arange(3), g.integers(0, k, size=3)
        pm[rows, z] = g.standard_normal(3)
        pm[rows, z + k] = -pm[rows, z]
        assert np.all(kernels.matmul(h, pm.T) == 0.0)

    @pytest.mark.parametrize("impl", ("einsum", "fallback"))
    @pytest.mark.parametrize("k", (3, kernels._CHUNK - 1, kernels._CHUNK, kernels._CHUNK + 1,
                                   2 * kernels._CHUNK + 3))
    def test_pair_row_sums_to_positive_zero(self, rng, monkeypatch, impl, k):
        # a module that is only its bias (model.bias_only) returns +0 + bias
        # unevaluated: that is exact only while each inner loop sums a row
        # holding one (a, -a) pair over two bitwise-equal columns among
        # zeros to +0.0, never -0.0, wherever the chunks cut the row.  The
        # negative columns make every zero product -0.0.
        inner = kernels._einsum if impl == "einsum" else kernels._multiply_then_sum
        monkeypatch.setattr(kernels, "_inner", inner)
        g = rng("pair-zero", impl, k)
        h = -np.abs(g.standard_normal((4, 2 * k)))
        h[:, k:] = h[:, :k]
        w = np.zeros((2 * k, 3))
        for t, z in enumerate((0, k - 1, int(g.integers(0, k)))):
            w[z, t] = g.standard_normal()
            w[z + k, t] = -w[z, t]
        for layout in (np.ascontiguousarray, np.asfortranarray):
            out = kernels.matmul(h, layout(w))
            assert np.all(out == 0.0) and not np.signbit(out).any()
        # with no pair at all, every product is -0.0
        out = kernels.matmul(h, np.zeros((2 * k, 3)))
        assert np.all(out == 0.0) and not np.signbit(out).any()

    def test_fallback_probe_runs(self):
        assert kernels._einsum_is_trustworthy() in (True, False)

    def test_failing_transposed_probe_selects_fallback(self, monkeypatch):
        real = kernels._einsum

        def wrong_on_views(a, b):
            out = real(a, b)
            return out if b.flags.c_contiguous else out + 1e-300

        monkeypatch.setattr(kernels, "_einsum", wrong_on_views)
        monkeypatch.setattr(kernels, "_inner", None)
        assert not kernels._einsum_is_trustworthy()
        kernels.matmul(np.ones((2, 3)), np.ones((3, 2)))
        assert kernels._inner is kernels._multiply_then_sum

    def test_slabs_that_differ_from_the_whole_fail_the_probe_and_never_split(
            self, monkeypatch):
        real = kernels._einsum

        def off_in_slabs(a, b, out=None):
            if out is None:
                return real(a, b)
            out[...] = real(a, b) + 1e-300  # a slab written into its columns
            return out

        monkeypatch.setattr(kernels, "_einsum", off_in_slabs)
        monkeypatch.setattr(kernels, "_inner", None)
        monkeypatch.setattr(kernels, "_slabs_exact", None)
        monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
        assert not kernels._einsum_slabs_are_exact()
        pool = _CountingPool()
        with kernels.split_on(pool, 2):
            out = kernels.matmul(np.ones((2, 3)), np.ones((3, 4)))
        # the unsplit einsum loop stays
        assert kernels._inner is off_in_slabs and pool.maps == 0
        np.testing.assert_array_equal(out, np.full((2, 4), 3.0))

    def test_fallback_loop_never_splits(self, monkeypatch):
        monkeypatch.setattr(kernels, "_inner", kernels._multiply_then_sum)
        monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
        pool = _CountingPool()
        with kernels.split_on(pool, 2):
            kernels.matmul(np.ones((2, 3)), np.ones((3, 4)))
        assert pool.maps == 0

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 24), k=st.integers(1, 700), n=st.integers(2, 900),
           workers=st.integers(2, 3), transposed=st.booleans(),
           dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**32 - 1))
    def test_column_slabs_equal_the_whole_product(self, m, k, n, workers, transposed, dtype,
                                                  seed):
        # the split verify runs relies on this: slabs written into one
        # output hold the bits of the unsplit product, in either layout
        g = np.random.default_rng(seed)
        a = g.standard_normal((m, k), dtype)
        b = g.standard_normal((n, k), dtype).T if transposed else g.standard_normal((k, n), dtype)
        whole = kernels.matmul(a, b)
        with mock.patch.object(kernels, "_SPLIT_WORK", 0), \
                ThreadPoolExecutor(workers) as pool, kernels.split_on(pool, workers):
            assert len(kernels.split_ranges(n, m * k * n)) == min(workers, n)
            split = kernels.matmul(a, b)
        assert split.tobytes() == whole.tobytes()


class _CountingPool:
    """A pool that counts its maps and runs them in the calling thread."""

    maps = 0

    def map(self, fn, items):
        self.maps += 1
        return map(fn, items)


class TestLayernorm:
    def test_hand_case(self):
        out = kernels.layernorm(np.array([1.0, 3.0]), np.ones(2), np.zeros(2), 0.0)
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-15)

    def test_constant_input_returns_beta(self):
        beta = np.array([0.5, -0.5, 2.0])
        out = kernels.layernorm(np.full(3, 7.0), np.ones(3), beta, 1e-5)
        np.testing.assert_array_equal(out, beta)

    def test_fixed_point(self):
        x = np.array([-1.0, 1.0])  # zero mean, unit population variance
        out = kernels.layernorm(x, np.ones(2), np.zeros(2), 0.0)
        np.testing.assert_allclose(out, x, atol=1e-15)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_output_moments(self, rng, dtype, tol):
        x = rng("mom", str(dtype)).standard_normal((6, 9)).astype(dtype)
        out = kernels.layernorm(x, np.ones(9, dtype=dtype), np.zeros(9, dtype=dtype), 0.0)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=tol)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=tol, atol=tol)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 33), cols=st.integers(1, 65),
           scale=st.sampled_from((1e-5, 1e-2, 1.0, 1e2, 1e5)),
           dtype=st.sampled_from((np.float32, np.float64)),
           eps=st.sampled_from((0.0, 1e-6, 1e-5)), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_the_var_form(self, rows, cols, scale, dtype, eps, seed):
        # x - mean is computed once; the output keeps every bit of the form
        # that let x.var compute the mean and the difference again
        g = np.random.default_rng(seed)
        x = (scale * g.standard_normal((rows, cols)) + scale * g.standard_normal()).astype(dtype)
        if not (x.var(axis=-1) + eps > 0).all():
            return  # constant rows at eps 0 are refused, not normalized
        mu, beta = g.standard_normal(cols).astype(dtype), g.standard_normal(cols).astype(dtype)
        want = ((x - x.mean(axis=-1, keepdims=True))
                / np.sqrt(x.var(axis=-1, keepdims=True) + eps) * mu + beta)
        got = kernels.layernorm(x, mu, beta, eps)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_zero_denominator(self):
        with pytest.raises(NumericsError):
            kernels.layernorm(np.full(4, 3.0), np.ones(4), np.zeros(4), 0.0)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_overflowing_variance_is_an_error_not_beta(self, dtype):
        # the true output is about [1.73, -0.58, -0.58, -0.58]; an overflowed
        # variance would silently divide it down to beta, here zero
        x = np.array([[1e200 if dtype == np.float64 else 1e30, 1.0, 2.0, 3.0]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="finite"):
                kernels.layernorm(x, np.ones(4, dtype=dtype), np.zeros(4, dtype=dtype), 1e-5)

    def test_param_shape_error(self):
        with pytest.raises(ShapeError):
            kernels.layernorm(np.ones(4), np.ones(3), np.zeros(4), 0.0)


class TestRmsnorm:
    def test_unit_rms(self):
        out = kernels.rmsnorm(np.array([1.0, -1.0]), np.ones(2), 0.0)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-15)

    def test_hand_case(self):
        out = kernels.rmsnorm(np.array([2.0, 0.0]), np.ones(2), 0.0)
        np.testing.assert_allclose(out, [math.sqrt(2.0), 0.0], atol=1e-15)

    def test_zero_input_positive_eps(self):
        out = kernels.rmsnorm(np.zeros(3), np.ones(3), 1e-5)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_zero_denominator(self):
        with pytest.raises(NumericsError):
            kernels.rmsnorm(np.zeros(3), np.ones(3), 0.0)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_overflowing_mean_square_is_an_error_not_zero(self, dtype):
        x = np.array([[1e200 if dtype == np.float64 else 1e30, 1.0, 2.0, 3.0]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="finite"):
                kernels.rmsnorm(x, np.ones(4, dtype=dtype), 1e-5)


class TestSoftmax:
    def test_equal_values_uniform(self):
        out = kernels.softmax_rows(np.full((2, 4), 3.0))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_closed_form(self):
        out = kernels.softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_single_column(self):
        out = kernels.softmax_rows(np.array([[5.0], [-2.0]]))
        np.testing.assert_array_equal(out, [[1.0], [1.0]])

    def test_rows_sum_to_one(self, rng):
        m = rng("sm").standard_normal((20, 7)) * 30
        np.testing.assert_allclose(kernels.softmax_rows(m).sum(axis=1), 1.0,
                                   rtol=0, atol=1e-12)

    def test_stabilized_under_large_logits(self):
        out = kernels.softmax_rows(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])


class TestActivation:
    def test_relu_values(self):
        np.testing.assert_array_equal(
            kernels.activation(np.array([-1.0, 2.0]), "relu"), [0.0, 2.0])

    def test_gelu_origin(self):
        assert kernels.activation(np.array([0.0]), "gelu")[0] == 0.0

    def test_gelu_against_erf_oracle(self):
        # independent reference through the standard library erf
        x = 1.0
        expected = 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))
        got = kernels.activation(np.array([x]), "gelu")[0]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            kernels.activation(np.zeros(2), "tanh")

    @given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_gelu_against_math_erf(self, xs):
        x = np.array(xs)
        expected = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in xs])
        # 1 + erf cancels far below 0 in both forms, so the tolerance
        # scales with |x|, not with the result
        err = np.abs(kernels.activation(x, "gelu") - expected)
        assert (err <= 6e-16 * np.abs(x) + 5e-324).all()

    def test_gelu_huge_inputs_stay_finite(self):
        x = np.array([1e308, -1e308, 5e-324, -5e-324])
        np.testing.assert_array_equal(kernels.activation(x, "gelu"), [1e308, 0.0, 0.0, -0.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_gelu_non_finite_input_is_an_error_not_a_warning(self, value):
        # a pre-activation reaches inf through a stored bias of inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                kernels.activation(np.array([1.0, value]), "gelu")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_gelu_replica_units_stay_bitwise_equal(self, rng, dtype, rows):
        # 2 x 1366 units a row: whatever the row count, some replica
        # pairs fall in different chunks
        assert 1366 < kernels._CHUNK_ELEMS < 2 * 1366
        base = (rng("replica", rows).standard_normal((rows, 1366)) * 4).astype(dtype)
        out = kernels.activation(np.hstack([base, base]), "gelu")
        assert out.dtype == dtype
        assert _same_bits(out[:, :1366], out[:, 1366:])
        assert _same_bits(out[:, :1366], kernels.activation(base, "gelu"))

    def test_gelu_float32_rounds_the_float64_value_once(self, rng):
        x = rng("f32").standard_normal(5000).astype(np.float32)
        kept = x.copy()
        got = kernels.activation(x, "gelu")
        assert got.dtype == np.float32
        assert _same_bits(x, kept)
        assert _same_bits(got, kernels.activation(x.astype(np.float64), "gelu").astype(np.float32))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    kind = f"u{a.dtype.itemsize}"
    return a.shape == b.shape and a.dtype == b.dtype and bool(
        (np.ascontiguousarray(a).view(kind) == np.ascontiguousarray(b).view(kind)).all())


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between doubles of one sign."""
    assert (np.signbit(got) == np.signbit(want)).all()
    return np.abs(got.view(np.int64) - want.view(np.int64))


def _math_erf(x: np.ndarray) -> np.ndarray:
    return np.array([math.erf(v) for v in x.ravel()]).reshape(x.shape)


class TestErf:
    """``kernels.erf`` against libm's erf (``math.erf``) and mpmath."""

    def test_sweep_within_one_ulp_of_math_erf(self, rng):
        g, grid = rng("erf-sweep"), kernels._ERF_GRID
        tiny = np.exp(g.uniform(math.log(5e-324), math.log(1e-2), 40_000))
        x = np.concatenate([g.uniform(-6.5, 6.5, 200_000), g.uniform(-0.05, 0.05, 40_000),
                            tiny, -tiny, g.uniform(-30.0, 30.0, 10_000),
                            np.arange(-6 * grid, 6 * grid + 1) / grid,
                            (np.arange(-6 * grid, 6 * grid) + 0.5) / grid])
        assert _ulps(kernels.erf(x), _math_erf(x)).max() <= 1

    @given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_within_one_ulp_of_math_erf(self, xs):
        x = np.array(xs)
        assert _ulps(kernels.erf(x), _math_erf(x)).max() <= 1

    def test_special_values(self):
        got = kernels.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 6.0, -1e308]))
        assert _same_bits(got[:2], np.array([0.0, -0.0]))
        np.testing.assert_array_equal(got[2:4], [1.0, -1.0])
        assert np.isnan(got[4])
        np.testing.assert_array_equal(got[5:], [1.0, -1.0])

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_odd_bit_for_bit(self, xs):
        x = np.array(xs)
        assert _same_bits(kernels.erf(-x), -kernels.erf(x))

    @given(st.floats(min_value=-30.0, max_value=30.0),
           st.sampled_from([1, kernels._CHUNK_ELEMS - 1, kernels._CHUNK_ELEMS,
                            kernels._CHUNK_ELEMS + 1, 2 * kernels._CHUNK_ELEMS + 5]),
           st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_bits_independent_of_size_shape_and_offset(self, v, size, where):
        chunk = kernels._CHUNK_ELEMS
        alone = kernels.erf(np.array([v]))
        x = substream(where, "erf-fill").uniform(-7.0, 7.0, 2 * size)
        offsets = {where % size, (chunk - 1) % size, chunk % size, size - 1}
        for o in offsets:
            x[o] = v
            x[size + o] = v
            assert _same_bits(kernels.erf(x[:size])[o:o + 1], alone)
            # a strided view, and a 2-D array
            assert _same_bits(kernels.erf(x[o::size])[:1], alone)
            if size % 3 == 0:
                assert _same_bits(kernels.erf(x[:size].reshape(3, -1)).reshape(-1)[o:o + 1], alone)
            assert _same_bits(kernels.erf(x)[size + o:size + o + 1], alone)

    def test_dtypes(self):
        assert kernels.erf(np.array([0.5], dtype=np.float32)).dtype == np.float32
        assert kernels.erf(np.array([1, 2])).dtype == np.float64
        assert kernels.erf(0.5) == pytest.approx(math.erf(0.5), rel=2e-16)

    def test_within_one_ulp_of_the_exact_value(self, rng):
        mpmath = pytest.importorskip("mpmath")
        g = rng("erf-exact")
        grid = kernels._ERF_GRID
        # the ends of every grid point's interval carry the largest h
        x = np.concatenate([g.uniform(0.0, 6.0, 1500), g.uniform(0.0, 0.05, 500),
                            (np.arange(6 * grid) + 0.5 - 1e-9) / grid])
        got = kernels.erf(x)
        with mpmath.workprec(120):
            err = [abs(mpmath.mpf(y) - mpmath.erf(mpmath.mpf(v))) / math.ulp(y)
                   for v, y in zip(x.tolist(), got.tolist())]
        assert max(err) < 0.9

    def test_table_matches_mpmath_bit_for_bit(self):
        mpmath = pytest.importorskip("mpmath")
        from lemon.erf_table import ERF_HI_LO
        assert len(ERF_HI_LO) == kernels._ERF_END * kernels._ERF_GRID + 1
        with mpmath.workprec(200):
            want = []
            for k in range(len(ERF_HI_LO)):
                e = mpmath.erf(mpmath.mpf(k) / kernels._ERF_GRID)
                hi = float(e)
                want.append((hi, float(e - hi)))
        assert _same_bits(np.array(ERF_HI_LO), np.array(want))

    def test_cutoffs_round_to_one(self):
        # larger arguments are clamped to each cut-off, so erf must
        # already round to 1.0 there
        mpmath = pytest.importorskip("mpmath")
        assert float(mpmath.erf(kernels._ERF_END)) == 1.0
        assert float(mpmath.erf(kernels._GELU_HALF_END * mpmath.sqrt(2))) == 1.0


class TestActGrad:
    """``verify._act_grad``, the derivative ``toy_mlp_gradient_step`` uses."""

    @pytest.mark.parametrize("kind, points", [
        ("gelu", [-7.5, -6.2, -2.0, -0.3, 0.0, 0.4, 1.7, 6.1, 8.0]),
        ("relu", [-7.5, -0.3, 0.4, 6.5]),
    ])
    def test_central_difference(self, kind, points):
        from lemon.verify import _act_grad
        z, step = np.array(points), 1e-5
        numeric = (kernels.activation(z + step, kind)
                   - kernels.activation(z - step, kind)) / (2 * step)
        np.testing.assert_allclose(_act_grad(z, kind), numeric, rtol=0, atol=1e-9)

    def test_relu_takes_zero_at_the_kink(self):
        from lemon.verify import _act_grad
        assert _act_grad(np.array([0.0]), "relu")[0] == 0.0

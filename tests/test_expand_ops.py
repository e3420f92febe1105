import tracemalloc

import numpy as np
import pytest

from lemon import (ShapeError, SplitError, expand_bias,
                   expand_layernorm, expand_matrix_cols, expand_matrix_rows,
                   expand_rmsnorm, expand_vector, norm_expansion_gain)
from lemon import kernels

MODES = ("avg", "zero", "circ", "rand")


def random_rand_split(m, d_t, g):
    """Valid random split for rand-mode column expansion."""
    p, d_s = m.shape
    k, r = d_t // d_s, d_t % d_s
    parts = [g.standard_normal((p, d_s)) for _ in range(k - 1)]
    parts.append(m - sum(parts) if parts else m.copy())
    return np.hstack([*parts, g.standard_normal((p, r))])


def random_circ_split(m, d_t, g):
    """Valid random split for circ-mode column expansion."""
    p, d_s = m.shape
    k, r = d_t // d_s, d_t % d_s
    parts = [g.standard_normal((p, d_s)) for _ in range(k - 1)]
    residual = g.standard_normal((p, r))
    last = m - (sum(parts) if parts else np.zeros_like(m))
    last[:, :r] -= residual
    parts.append(last)
    return np.hstack([*parts, residual])


class TestExpandVector:
    def test_avg_hand(self):
        np.testing.assert_array_equal(
            expand_vector(np.array([1.0, 3.0]), 5, "avg"), [1, 3, 1, 3, 2])

    def test_zero_hand(self):
        np.testing.assert_array_equal(
            expand_vector(np.array([1.0, 3.0]), 5, "zero"), [1, 3, 1, 3, 0])

    def test_circ_hand(self):
        np.testing.assert_array_equal(
            expand_vector(np.array([1.0, 3.0]), 5, "circ"), [1, 3, 1, 3, 1])

    def test_rand_tail(self):
        out = expand_vector(np.array([1.0, 3.0]), 5, "rand", tail=np.array([9.0]))
        np.testing.assert_array_equal(out, [1, 3, 1, 3, 9])

    @pytest.mark.parametrize("mode", MODES)
    def test_identity(self, rng, mode):
        x = rng("ident").standard_normal(4)
        tail = np.zeros(0) if mode == "rand" else None
        np.testing.assert_array_equal(expand_vector(x, 4, mode, tail=tail), x)

    def test_stacked_rows(self):
        x = np.array([[1.0, 3.0], [2.0, 6.0]])
        np.testing.assert_array_equal(expand_vector(x, 3, "avg"),
                                      [[1, 3, 2], [2, 6, 4]])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("shape, d_t", (((3,), 3), ((3,), 11), ((2, 4, 3), 7), ((5, 1), 4)))
    def test_equals_the_concatenated_copies(self, rng, mode, dtype, shape, d_t):
        x = rng("concat", mode).standard_normal(shape).astype(dtype)
        k, r = divmod(d_t, shape[-1])
        tail = rng("concat-tail").standard_normal(shape[:-1] + (r,)) if mode == "rand" else None
        want = {"avg": np.broadcast_to(x.mean(axis=-1, keepdims=True), shape[:-1] + (r,)),
                "zero": np.zeros(shape[:-1] + (r,), dtype), "circ": x[..., :r],
                "rand": None if tail is None else tail.astype(dtype)}[mode]
        want = np.concatenate([x] * k + [want], axis=-1)
        got = expand_vector(x, d_t, mode, tail=tail)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_allocates_only_the_result(self):
        tracemalloc.start()
        try:
            out = expand_vector(np.ones((1, 1)), 2**22, "zero")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list of k references to x, before numpy allocates, would add
        # as much again as the result
        assert peak < 1.2 * out.nbytes

    def test_errors(self):
        with pytest.raises(ShapeError):
            expand_vector(np.ones(4), 3, "avg")
        with pytest.raises(ShapeError):
            expand_vector(np.ones(2), 5, "rand", tail=np.ones(2))
        with pytest.raises(ShapeError):
            expand_vector(np.ones(2), 5, "rand")
        with pytest.raises(ShapeError):
            expand_vector(np.ones(2), 5, "nope")

    @pytest.mark.parametrize("mode", MODES)
    def test_leading_entries_are_the_source(self, rng, mode):
        # a stack of vectors too: the trailing axis is the one expanded
        g = rng("round", mode)
        for _ in range(50):
            d_s = int(g.integers(1, 9))
            d_t = int(g.integers(d_s, 3 * d_s + 1))
            x = g.standard_normal((int(g.integers(1, 4)), d_s))
            tail = g.standard_normal((x.shape[0], d_t % d_s)) if mode == "rand" else None
            out = expand_vector(x, d_t, mode, tail=tail)
            assert out[:, :d_s].tobytes() == x.tobytes()

    @pytest.mark.parametrize("mode", ("zero", "circ"))
    def test_additivity_exact(self, rng, mode):
        g = rng("add", mode)
        for _ in range(30):
            d_s = int(g.integers(1, 8))
            d_t = int(g.integers(d_s, 3 * d_s))
            x, y = g.standard_normal(d_s), g.standard_normal(d_s)
            np.testing.assert_array_equal(
                expand_vector(x, d_t, mode) + expand_vector(y, d_t, mode),
                expand_vector(x + y, d_t, mode))

    def test_additivity_avg(self, rng):
        g = rng("addavg")
        for _ in range(30):
            d_s = int(g.integers(1, 8))
            d_t = int(g.integers(d_s, 3 * d_s))
            x, y = g.standard_normal(d_s), g.standard_normal(d_s)
            np.testing.assert_allclose(
                expand_vector(x, d_t, "avg") + expand_vector(y, d_t, "avg"),
                expand_vector(x + y, d_t, "avg"), rtol=0, atol=1e-14)


class TestExpandMatrixRows:
    def test_avg_hand(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(expand_matrix_rows(m, 3, "avg"),
                                      [[1, 2], [3, 4], [2, 3]])

    def test_avg_product_matches_vector_expansion(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.array([[1.0], [1.0]])
        out = kernels.matmul(expand_matrix_rows(m, 3, "avg"), x)
        np.testing.assert_array_equal(out.ravel(), [3, 7, 5])
        np.testing.assert_array_equal(out.ravel(),
                                      expand_vector(np.array([3.0, 7.0]), 3, "avg"))

    @pytest.mark.parametrize("mode", ("avg", "zero", "circ"))
    def test_losslessness_property(self, rng, mode):
        # oracle: expand the small product with the matching vector mode
        g = rng("rows", mode)
        for _ in range(60):
            d_s, p = int(g.integers(1, 7)), int(g.integers(1, 6))
            d_t = int(g.integers(d_s, 3 * d_s + 1))
            m = g.standard_normal((d_s, p))
            x = g.standard_normal((p, 1))
            got = kernels.matmul(expand_matrix_rows(m, d_t, mode), x).ravel()
            want = expand_vector(kernels.matmul(m, x).ravel(), d_t, mode)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_identity(self, rng):
        m = rng("ri").standard_normal((3, 4))
        np.testing.assert_array_equal(expand_matrix_rows(m, 3, "circ"), m)

    def test_errors(self):
        with pytest.raises(ShapeError):
            expand_matrix_rows(np.ones((3, 2)), 2, "avg")
        with pytest.raises(ShapeError):
            expand_matrix_rows(np.ones((2, 2)), 4, "rand")


class TestExpandMatrixCols:
    def test_rand_hand(self):
        m = np.array([[4.0, 6.0]])
        split = np.hstack([np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]),
                           np.array([[7.0]])])
        out = expand_matrix_cols(m, 5, "rand", split)
        assert out is split
        np.testing.assert_array_equal(out, [[1, 2, 3, 4, 7]])
        x = np.array([1.0, 3.0])
        big = kernels.matmul(out, expand_vector(x, 5, "zero")[:, None])
        np.testing.assert_array_equal(big, [[22.0]])
        np.testing.assert_array_equal(big, kernels.matmul(m, x[:, None]))

    def test_circ_hand(self):
        m = np.array([[4.0, 6.0]])
        split = np.hstack([np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]),
                           np.array([[1.0]])])
        out = expand_matrix_cols(m, 5, "circ", split)
        assert out is split
        np.testing.assert_array_equal(out, [[1, 2, 2, 4, 1]])
        x = np.array([1.0, 3.0])
        big = kernels.matmul(out, expand_vector(x, 5, "circ")[:, None])
        np.testing.assert_array_equal(big, [[22.0]])

    def test_identity_single_part(self, rng):
        m = rng("ci").standard_normal((2, 3))
        grown = m.copy()
        out = expand_matrix_cols(m, 3, "rand", grown)
        assert out is grown
        np.testing.assert_array_equal(out, m)

    @pytest.mark.parametrize("mode", ("rand", "circ"))
    def test_losslessness_property(self, rng, mode):
        g = rng("cols", mode)
        vec_mode = "zero" if mode == "rand" else "circ"
        for _ in range(60):
            d_s, p = int(g.integers(1, 7)), int(g.integers(1, 6))
            d_t = int(g.integers(d_s, 3 * d_s + 1))
            m = g.standard_normal((p, d_s))
            split = (random_rand_split(m, d_t, g) if mode == "rand"
                     else random_circ_split(m, d_t, g))
            big = expand_matrix_cols(m, d_t, mode, split)
            x = g.standard_normal(d_s)
            got = kernels.matmul(big, expand_vector(x, d_t, vec_mode)[:, None])
            want = kernels.matmul(m, x[:, None])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_sum_violation_rejected(self):
        m = np.array([[4.0, 6.0]])
        bad = np.hstack([np.array([[1.0, 2.0]]), np.array([[3.0, 4.1]]),
                         np.array([[7.0]])])
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 5, "rand", bad)

    def test_tiny_violation_within_tolerance_accepted(self):
        m = np.array([[4.0, 6.0]])
        split = np.hstack([np.array([[1.0, 2.0]]), np.array([[3.0, 4.0 + 1e-14]]),
                           np.array([[7.0]])])
        expand_matrix_cols(m, 5, "rand", split)  # within 1e-12 relative

    def test_circ_constraint_violation_rejected(self):
        m = np.array([[4.0, 6.0]])
        bad = np.hstack([np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]),
                         np.array([[2.0]])])  # wrapped sum off by 1
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 5, "circ", bad)

    def test_structural_errors(self):
        m = np.ones((1, 2))
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 5, "rand", m.copy())  # one part, no tail
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 5, "rand", np.hstack([m, np.zeros((1, 2))]))  # no tail
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 5, "circ", np.hstack([m, np.zeros((1, 2))]))  # no residual
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 4, "rand", np.hstack([m, np.zeros((1, 3))]))  # extra columns
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 5, "circ", np.ones((2, 5)))  # wrong row count


class TestExpandBias:
    def test_avg_hand(self):
        np.testing.assert_array_equal(expand_bias(np.array([2.0, 4.0]), 3, "avg"),
                                      [2, 4, 3])

    def test_zero_hand(self):
        np.testing.assert_array_equal(expand_bias(np.array([2.0, 4.0]), 3, "zero"),
                                      [2, 4, 0])

    def test_identity(self):
        b = np.array([2.0, 4.0])
        np.testing.assert_array_equal(expand_bias(b, 2, "circ"), b)

    @pytest.mark.parametrize("mode", ("avg", "zero", "circ"))
    def test_add_operator_losslessness(self, rng, mode):
        g = rng("bias", mode)
        for _ in range(30):
            d_s = int(g.integers(1, 7))
            d_t = int(g.integers(d_s, 3 * d_s))
            x, b = g.standard_normal(d_s), g.standard_normal(d_s)
            got = expand_vector(x, d_t, mode) + expand_bias(b, d_t, mode)
            want = expand_vector(x + b, d_t, mode)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestNormExpansion:
    def test_gain_values(self):
        assert norm_expansion_gain(2, 4) == 1.0
        assert norm_expansion_gain(2, 2) == 1.0
        assert norm_expansion_gain(2, 3) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
        assert 0 < norm_expansion_gain(5, 7) <= 1.0

    def test_layernorm_hand_case(self):
        # derived: x=[1,3] normalizes to [-1,1]; tail position must be 0
        mu_t, beta_t, eps_t = expand_layernorm(np.ones(2), np.zeros(2), 0.0, 3,
                                               tail=np.array([0.7]))
        out = kernels.layernorm(expand_vector(np.array([1.0, 3.0]), 3, "avg"),
                                mu_t, beta_t, eps_t)
        np.testing.assert_allclose(out, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_divisible_tiles_weights(self, rng):
        g = rng("lnd")
        mu, beta = g.standard_normal(3), g.standard_normal(3)
        mu_t, beta_t, eps_t = expand_layernorm(mu, beta, 1e-5, 6, tail=np.zeros(0))
        np.testing.assert_array_equal(mu_t, np.concatenate([mu, mu]))
        np.testing.assert_array_equal(beta_t, np.concatenate([beta, beta]))
        assert eps_t == 1e-5
        x = g.standard_normal(3)
        out = kernels.layernorm(expand_vector(x, 6, "avg"), mu_t, beta_t, eps_t)
        small = kernels.layernorm(x, mu, beta, 1e-5)
        np.testing.assert_allclose(out, np.concatenate([small, small]), atol=1e-12)

    def test_identity(self, rng):
        g = rng("lni")
        mu, beta = g.standard_normal(4), g.standard_normal(4)
        mu_t, beta_t, eps_t = expand_layernorm(mu, beta, 1e-5, 4, tail=np.zeros(0))
        np.testing.assert_array_equal(mu_t, mu)
        np.testing.assert_array_equal(beta_t, beta)
        assert eps_t == 1e-5

    @pytest.mark.parametrize("eps", (0.0, 1e-5, 1e-1))
    def test_layernorm_expansion_contract(self, rng, eps):
        g = rng("lnp", eps)
        for _ in range(50):
            d_s = int(g.integers(2, 8))
            d_t = int(g.integers(d_s, 3 * d_s + 1))
            x = g.standard_normal(d_s) * 3
            mu, beta = g.standard_normal(d_s), g.standard_normal(d_s)
            tail = g.uniform(-1, 1, d_t % d_s)
            mu_t, beta_t, eps_t = expand_layernorm(mu, beta, eps, d_t, tail)
            got = kernels.layernorm(expand_vector(x, d_t, "avg"), mu_t, beta_t, eps_t)
            want = expand_vector(kernels.layernorm(x, mu, beta, eps), d_t, "zero")
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_rmsnorm_hand_case(self):
        mu_t, eps_t = expand_rmsnorm(np.ones(2), 0.0, 3, tail=np.array([0.4]))
        out = kernels.rmsnorm(expand_vector(np.array([1.0, -1.0]), 3, "zero"),
                              mu_t, eps_t)
        np.testing.assert_allclose(out, [1.0, -1.0, 0.0], atol=1e-12)

    def test_rmsnorm_divisible_and_identity(self, rng):
        g = rng("rmsd")
        mu = g.standard_normal(3)
        mu_t, eps_t = expand_rmsnorm(mu, 1e-5, 6, tail=np.zeros(0))
        np.testing.assert_array_equal(mu_t, np.concatenate([mu, mu]))
        assert eps_t == 1e-5
        mu_i, eps_i = expand_rmsnorm(mu, 2e-5, 3, tail=np.zeros(0))
        np.testing.assert_array_equal(mu_i, mu)
        assert eps_i == 2e-5

    @pytest.mark.parametrize("eps", (0.0, 1e-5, 1e-1))
    def test_rmsnorm_expansion_contract(self, rng, eps):
        g = rng("rmsp", eps)
        for _ in range(50):
            d_s = int(g.integers(1, 8))
            d_t = int(g.integers(d_s, 3 * d_s + 1))
            x = g.standard_normal(d_s) * 3
            if eps == 0.0 and not np.any(x):
                continue
            mu = g.standard_normal(d_s)
            tail = g.uniform(-1, 1, d_t % d_s)
            mu_t, eps_t = expand_rmsnorm(mu, eps, d_t, tail)
            got = kernels.rmsnorm(expand_vector(x, d_t, "zero"), mu_t, eps_t)
            want = expand_vector(kernels.rmsnorm(x, mu, eps), d_t, "zero")
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


class TestComposition:
    def test_two_layer_chain(self, rng):
        # row expansion of the first layer feeds the matching column
        # expansion of the second; the chain preserves the original map
        g = rng("chain")
        for _ in range(40):
            d_in = int(g.integers(1, 5))
            d_mid = int(g.integers(1, 6))
            d_out = int(g.integers(1, 5))
            d_mid_t = int(g.integers(d_mid, 3 * d_mid + 1))
            m1 = g.standard_normal((d_mid, d_in))
            m2 = g.standard_normal((d_out, d_mid))
            x = g.standard_normal((d_in, 1))
            for row_mode, col_mode in (("circ", "circ"), ("zero", "rand")):
                m1_t = expand_matrix_rows(m1, d_mid_t, row_mode)
                split = (random_circ_split(m2, d_mid_t, g) if col_mode == "circ"
                         else random_rand_split(m2, d_mid_t, g))
                m2_t = expand_matrix_cols(m2, d_mid_t, col_mode, split)
                got = kernels.matmul(m2_t, kernels.matmul(m1_t, x))
                want = kernels.matmul(m2, kernels.matmul(m1, x))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

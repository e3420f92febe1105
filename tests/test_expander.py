import tracemalloc
from dataclasses import fields, is_dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemon import (ColumnSplit, ExpansionPlan, ModelSpec, PlanError, SplitError,
                   block_forward,
                   expand_mha, expand_mlp, expand_model, expand_vector,
                   mha_forward, mlp_forward, model_forward, random_weights,
                   toy_mlp_gradient_step, validate_weights)
from lemon.container import named_tensors
from lemon.expand_ops import expand_matrix_cols, expand_matrix_rows
from lemon.expander import (MIN_SEPARATION, POLICIES, _row_expanded_cols,
                            _split_copies, column_split,
                            expand_block_width, expand_decoder, expand_depth,
                            expand_embeddings, layer_multiplicities,
                            map_arrays, replica_groups)
from lemon.model import flat_arrays
from lemon import kernels
from lemon.rng import substream


def forward_diff(small_w, small_spec, big_w, big_spec, n=8, seed=0, seq=6):
    worst = 0.0
    for i in range(n):
        g = substream(seed, "cmp", i)
        x = (g.integers(0, small_spec.vocab_or_classes, size=seq)
             if small_spec.input_kind == "token"
             else g.standard_normal((small_spec.num_patches, small_spec.patch_dim)))
        d = np.abs(model_forward(x, big_w, big_spec)
                   - model_forward(x, small_w, small_spec)).max()
        worst = max(worst, float(d))
    return worst


class TestColumnSplit:
    def test_net2net_parts_identical(self, rng):
        m = rng("s1").standard_normal((3, 4))
        split = column_split(m, 8, "rand", "net2net_equal", rng("s2"), 0.02)
        np.testing.assert_array_equal(split.parts[0], split.parts[1])
        np.testing.assert_array_equal(split.parts[0], m / 2)

    def test_lemon_parts_distinct(self, rng):
        m = rng("s3").standard_normal((3, 4))
        split = column_split(m, 8, "rand", "lemon", rng("s4"), 0.02)
        assert np.abs(split.parts[0] - split.parts[1]).max() > 1e-6 * 0.02

    def test_zero_tail_pattern(self, rng):
        m = rng("s5").standard_normal((3, 4))
        split = column_split(m, 10, "rand", "zero_tail", rng("s6"), 0.02)
        np.testing.assert_array_equal(split.parts[0], m)
        np.testing.assert_array_equal(split.parts[1], np.zeros_like(m))
        np.testing.assert_array_equal(split.tail, np.zeros((3, 2)))

    @pytest.mark.parametrize("mode", ("rand", "circ"))
    @pytest.mark.parametrize("policy", ("lemon", "net2net_equal", "zero_tail"))
    def test_splits_satisfy_constraints(self, rng, mode, policy):
        from lemon.expand_ops import expand_matrix_cols
        g = rng("s7", mode, policy)
        for _ in range(25):
            p, d_s = int(g.integers(1, 5)), int(g.integers(1, 6))
            d_t = int(g.integers(d_s, 3 * d_s + 1))
            m = g.standard_normal((p, d_s))
            split = column_split(m, d_t, mode, policy, g, 0.02)
            expand_matrix_cols(m, d_t, mode, split)  # validates internally

    def test_circ_net2net_shares_per_column(self, rng):
        m = rng("s8").standard_normal((2, 3))
        split = column_split(m, 5, "circ", "net2net_equal", rng("s9"), 0.02)
        # wrapped columns are consumed twice, the rest once
        np.testing.assert_array_equal(split.parts[0][:, 0], m[:, 0] / 2)
        np.testing.assert_array_equal(split.residual[:, 0], m[:, 0] / 2)
        np.testing.assert_array_equal(split.parts[0][:, 2], m[:, 2])

    def test_identity_split(self, rng):
        m = rng("s10").standard_normal((2, 3))
        split = column_split(m, 3, "circ", "lemon", rng("s11"), 0.02)
        np.testing.assert_array_equal(split.parts[0], m)


class TestSplitProperties:
    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 4), d_s=st.integers(1, 6), extra=st.integers(0, 13),
           mode=st.sampled_from(("rand", "circ")), policy=st.sampled_from(POLICIES),
           seed=st.integers(0, 2**32 - 1))
    def test_column_split_contract(self, p, d_s, extra, mode, policy, seed):
        d_t = d_s + extra
        m = substream(seed, "m").standard_normal((p, d_s))
        split = column_split(m, d_t, mode, policy, substream(seed, "split"), 0.02)
        expand_matrix_cols(m, d_t, mode, split)  # raises SplitError on a bad split
        again = column_split(m, d_t, mode, policy, substream(seed, "split"), 0.02)
        for a, b in zip(split.parts + [split.tail, split.residual],
                        again.parts + [again.tail, again.residual]):
            np.testing.assert_array_equal(a, b)
        if policy != "lemon":
            return
        for z in range(d_s):
            replicas = [part[:, z] for part in split.parts]
            if mode == "circ" and z < d_t % d_s:
                replicas.append(split.residual[:, z])
            for a, b in combinations(replicas, 2):
                assert np.abs(a - b).min() > MIN_SEPARATION * 0.02

    @pytest.mark.parametrize("mode", ("rand", "circ"))
    def test_unseparable_lemon_split_rejected(self, rng, zero_normal, mode):
        m = rng("z1").standard_normal((3, 4))
        with pytest.raises(PlanError):
            column_split(m, 10, mode, "lemon", zero_normal(), 0.02)

    def test_unseparable_type2_pairs_rejected(self, toy_model, zero_normal,
                                              monkeypatch):
        # net2net_equal draws no split noise, so only the ± pairs can fail
        w, spec = toy_model(depth=1)
        monkeypatch.setattr("lemon.expander.substream", lambda *tags: zero_normal())
        plan = ExpansionPlan(16, 2, policy="net2net_equal", depth_mode="type2")
        with pytest.raises(PlanError):
            expand_model(w, spec, plan)

    def test_overflowing_decoder_tail_noise_rejected(self, toy_model):
        # depth 0: only the decoder's free rand tail draws noise, and no sum
        # check covers a tail
        w, spec = toy_model(depth=0)
        with pytest.raises(PlanError, match="noise_scale"):
            expand_model(w, spec, ExpansionPlan(12, 0, noise_scale=1e308))


class TestGrowOnce:
    """column_split draws every piece straight into the grown matrix, and
    expand_matrix_cols checks those pieces and returns that matrix."""

    @pytest.mark.parametrize("k", (1, 3))
    @pytest.mark.parametrize("with_tail", (False, True))
    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(1, 4), d_s=st.integers(2, 6), pick=st.integers(0, 100),
           mode=st.sampled_from(("rand", "circ")), policy=st.sampled_from(POLICIES),
           seed=st.integers(0, 2**32 - 1))
    def test_grown_matrix_is_its_pieces(self, k, with_tail, p, d_s, pick, mode, policy,
                                        seed):
        r = 1 + pick % (d_s - 1) if with_tail else 0
        d_t = k * d_s + r
        m = substream(seed, "m").standard_normal((p, d_s))
        split = column_split(m, d_t, mode, policy, substream(seed, "split"), 0.02)
        grown = expand_matrix_cols(m, d_t, mode, split)
        extra = split.tail if mode == "rand" else split.residual
        assert grown.shape == (p, d_t) and grown.flags.c_contiguous
        assert grown.tobytes() == np.hstack(split.parts + [extra]).tobytes()
        assert not np.shares_memory(grown, m)
        # the same pieces as separate arrays are assembled into the same matrix
        copies = ColumnSplit(parts=[a.copy() for a in split.parts],
                             tail=None if split.tail is None else split.tail.copy(),
                             residual=None if split.residual is None else split.residual.copy())
        assembled = expand_matrix_cols(m, d_t, mode, copies)
        assert assembled.tobytes() == grown.tobytes()
        assert not np.shares_memory(assembled, m)

    @pytest.mark.parametrize("mode", ("rand", "circ"))
    def test_corrupted_replica_fails_the_check(self, rng, monkeypatch, mode):
        calls = []

        def corrupt_first(m, out, *args):
            _split_copies(m, out, *args)
            if not calls:
                out[1][0, 0] += 1.0  # replica 1 of the first draw
            calls.append(len(out))
            return out

        monkeypatch.setattr("lemon.expander._split_copies", corrupt_first)
        m = rng("corrupt").standard_normal((3, 4))
        split = column_split(m, 10, mode, "lemon", rng("corrupt-split"), 0.02)
        assert calls
        with pytest.raises(SplitError):
            expand_matrix_cols(m, 10, mode, split)

    @pytest.mark.parametrize("mode", ("rand", "circ"))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("d_s,d_t", ((1024, 1536), (512, 1280)))  # k = 1 and 2
    def test_growing_a_matrix_allocates_it_once(self, rng, mode, policy, d_s, d_t):
        # 384 rows: larger than a sum check's row chunk
        m = rng("once").standard_normal((384, d_s))
        g = rng("once-split", mode, policy)
        tracemalloc.start()
        try:
            grown = expand_matrix_cols(m, d_t, mode, column_split(m, d_t, mode, policy, g, 0.02))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grown matrix once, plus draw and check temporaries smaller than
        # it; a second copy of it (concatenate, hstack) would reach 2x
        assert peak < 1.9 * grown.nbytes

    def test_expand_mlp_builds_no_row_expanded_copy(self, toy_spec):
        spec = toy_spec(depth=1, width=256, head_dim=64, ratio=4.0)
        mlp = random_weights(spec, substream(7, "mlp-peak")).blocks[0].mlp
        tracemalloc.start()
        try:
            out = expand_mlp(mlp, spec, 384, 1536, "lemon", substream(8, "mlp-peak"), 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grown w1 and w2 plus draw and check temporaries; a row-expanded
        # copy of w1 (kept while w2 grows) and of w2 would add 2/3 of them
        assert peak < 1.6 * sum(a.nbytes for a in flat_arrays(out))

    def test_type1_inserted_block_allocates_only_what_it_keeps(self, toy_spec):
        spec = toy_spec(depth=1, width=64, head_dim=16, ratio=4.0)
        blk = random_weights(spec, substream(6, "inserted")).blocks[0]
        blocks = expand_depth(0, 2, blk, lambda: blk, spec, spec.hidden_dim,
                              ExpansionPlan(64, 2, depth_mode="type1"))
        carrier, role = next(blocks)
        assert carrier is blk and role == "carrier"
        del carrier
        tracemalloc.start()
        try:
            inserted, role = next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert role == "inserted"
        assert not inserted.attn.wo.any() and not inserted.mlp.w2.any()
        # copies of what it keeps and zeros for both output projections: one
        # block's worth; copying the whole donor first would add wo and w2
        assert peak < 1.1 * sum(a.nbytes for a in flat_arrays(inserted))


class TooClose:
    """A generator whose first two lemon draws have every third column
    zero, so those replicas coincide and are redrawn."""

    def __init__(self, seed):
        self.g, self.draws = substream(seed, "too-close"), 0

    def normal(self, loc, scale, size):
        z = self.g.normal(loc, scale, size)
        if len(size) == 3 and self.draws < 2:
            self.draws += 1
            z[..., ::3] = 0.0
        return z


class TestRowsInSplit:
    """A row-expanded matrix's column split, drawn one row block at a
    time, is a column split of the built row expansion."""

    @staticmethod
    def pieces(grown: np.ndarray, d_s: int, mode: str) -> ColumnSplit:
        """``grown`` cut into its column pieces, as separate arrays."""
        k = grown.shape[1] // d_s
        parts = [grown[:, i * d_s:(i + 1) * d_s].copy() for i in range(k)]
        extra = grown[:, k * d_s:].copy()
        if mode == "rand":
            return ColumnSplit(parts=parts, tail=extra)
        return ColumnSplit(parts=parts, residual=extra)

    def check(self, m, d_rows, row_mode, d_t, mode, policy, rng):
        """Grow ``m``; the pieces must pass the sum checks against the
        built row expansion and, under lemon, every pair of replicas of a
        source column must differ in every row."""
        d_s = m.shape[1]
        grown = _row_expanded_cols(m, d_rows, row_mode, d_t, mode, policy, rng, 0.02)
        built = expand_matrix_rows(m, d_rows, row_mode)
        again = expand_matrix_cols(built, d_t, mode, self.pieces(grown, d_s, mode))
        assert again.tobytes() == grown.tobytes()
        if policy != "lemon":
            return
        # the replicas of source column c: c + i*d_s in every part, and in
        # the residual too when c is a wrapped column
        for c in range(d_s):
            cols = [j for j in range(c, d_t, d_s) if mode == "circ" or j < d_t - d_t % d_s]
            for a, b in combinations(cols, 2):
                assert (np.abs(grown[:, a] - grown[:, b]) > MIN_SEPARATION * 0.02).all()

    @pytest.mark.parametrize("k", (1, 3))
    @pytest.mark.parametrize("col_tail", (False, True))
    @pytest.mark.parametrize("row_tail", (False, True))
    @pytest.mark.parametrize("row_mode", ("circ", "avg", "zero"))
    @pytest.mark.parametrize("mode", ("rand", "circ"))
    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=8, deadline=None)
    @given(p=st.integers(2, 4), row_copies=st.integers(1, 3), pick=st.integers(0, 100),
           d_s=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_equals_row_expansion_then_split(self, k, col_tail, row_tail, row_mode, mode,
                                             policy, p, row_copies, pick, d_s, seed):
        d_rows = row_copies * p + (1 + pick % (p - 1) if row_tail else 0)
        d_t = k * d_s + (1 + pick % (d_s - 1) if col_tail else 0)
        m = substream(seed, "m").standard_normal((p, d_s))
        self.check(m, d_rows, row_mode, d_t, mode, policy, substream(seed, "split"))

    @pytest.mark.parametrize("row_mode", ("circ", "avg", "zero"))
    @pytest.mark.parametrize("mode", ("rand", "circ"))
    @pytest.mark.parametrize("d_t", (10, 16))  # k = 2 and 3: lemon draws replicas
    def test_redrawn_columns_read_the_expansion_again(self, rng, row_mode, mode, d_t):
        g = TooClose(1)
        self.check(rng("redraw").standard_normal((6, 5)), 14, row_mode, d_t, mode, "lemon", g)
        assert g.draws == 2

    @pytest.mark.parametrize("row", (4, 7))  # the second row block, then the tail block
    @pytest.mark.parametrize("row_mode", ("circ", "avg", "zero"))
    @pytest.mark.parametrize("mode", ("rand", "circ"))
    def test_corrupted_replica_row_fails_the_check(self, rng, row, row_mode, mode):
        m = rng("corrupt").standard_normal((3, 4))
        grown = _row_expanded_cols(m, 8, row_mode, 10, mode, "lemon", rng("corrupt-split"),
                                   0.02)
        built = expand_matrix_rows(m, 8, row_mode)
        split = self.pieces(grown, 4, mode)
        expand_matrix_cols(built, 10, mode, split)
        split.parts[1][row, 2] += 1e-6
        with pytest.raises(SplitError):
            expand_matrix_cols(built, 10, mode, split)


class TestSplitPiecesInPlace:
    """expand_matrix_cols returns a split's grown matrix only when the
    pieces are that matrix's own column blocks, in order."""

    def test_split_drawn_into_a_view_is_returned_as_is(self, rng):
        m = rng("in-view").standard_normal((3, 4))
        buf = np.zeros((6, 10))
        split = column_split(m, 10, "rand", "lemon", rng("in-view-split"), 0.02,
                             out=buf[:3])
        assert expand_matrix_cols(m, 10, "rand", split) is split.grown

    def test_pieces_elsewhere_in_the_buffer_are_assembled(self, rng):
        m = rng("foreign").standard_normal((3, 4))
        buf = np.zeros((3, 20))
        drawn = column_split(m, 10, "rand", "lemon", rng("foreign-split"), 0.02,
                             out=buf[:, 10:])
        # the pieces lie in buf, but not in the grown matrix the split names
        split = ColumnSplit(parts=drawn.parts, tail=drawn.tail, grown=buf[:, :10])
        got = expand_matrix_cols(m, 10, "rand", split)
        assert got is not split.grown
        assert got.tobytes() == np.hstack(drawn.parts + [drawn.tail]).tobytes()

    def test_reordered_pieces_are_assembled(self, rng):
        m = rng("reorder").standard_normal((3, 4))
        drawn = column_split(m, 10, "rand", "lemon", rng("reorder-split"), 0.02)
        split = ColumnSplit(parts=drawn.parts[::-1], tail=drawn.tail, grown=drawn.grown)
        got = expand_matrix_cols(m, 10, "rand", split)
        assert got is not drawn.grown
        assert got.tobytes() == np.hstack(drawn.parts[::-1] + [drawn.tail]).tobytes()


class TestModuleExpansion:
    def test_mha_identity(self, toy_model):
        w, spec = toy_model(depth=1)
        attn = w.blocks[0].attn
        out = expand_mha(attn, spec, spec.width, "lemon", substream(0, "a"), 0.02)
        for h_new, h_old in zip(out.heads, attn.heads):
            np.testing.assert_array_equal(h_new.wq, h_old.wq)
            np.testing.assert_array_equal(h_new.bq, h_old.bq)
        np.testing.assert_array_equal(out.wo, attn.wo)
        np.testing.assert_array_equal(out.bo, attn.bo)

    @pytest.mark.parametrize("policy", ("lemon", "net2net_equal", "zero_tail"))
    @pytest.mark.parametrize("d_t", (12, 16, 20))
    def test_mha_losslessness(self, toy_model, rng, policy, d_t):
        # oracle: reference forward on both modules
        w, spec = toy_model(depth=1)
        attn = w.blocks[0].attn
        big_spec = spec.__class__(**{**spec.__dict__, "width": d_t})
        big = expand_mha(attn, spec, d_t, policy, substream(1, "m", d_t), 0.02)
        x = rng("mha", policy, d_t).standard_normal((5, spec.width))
        got = mha_forward(expand_vector(x, d_t, "zero"), big, big_spec)
        want = expand_vector(mha_forward(x, attn, spec), d_t, "avg")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_net2net_divisible_doubling_equal_fanout(self, toy_model):
        w, spec = toy_model(depth=1)
        big = expand_mha(w.blocks[0].attn, spec, 2 * spec.width, "net2net_equal",
                         substream(2, "d"), 0.02)
        hd, h_s = spec.head_dim, spec.n_heads
        for s in range(h_s):
            a = big.wo[:, s * hd:(s + 1) * hd]
            b = big.wo[:, (s + h_s) * hd:(s + h_s + 1) * hd]
            np.testing.assert_array_equal(a, b)

    def test_mlp_identity(self, toy_model):
        w, spec = toy_model(depth=1)
        mlp = w.blocks[0].mlp
        out = expand_mlp(mlp, spec, spec.width, spec.hidden_dim, "lemon",
                         substream(3, "i"), 0.02)
        for f in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(out, f), getattr(mlp, f))

    @pytest.mark.parametrize("policy", ("lemon", "net2net_equal"))
    def test_mlp_losslessness(self, toy_spec, rng, policy):
        spec = toy_spec(width=4, head_dim=4, depth=1)
        w = random_weights(spec, substream(4, "w"))
        mlp = w.blocks[0].mlp
        d_t, hidden_t = 6, 12
        big_spec = spec.__class__(**{**spec.__dict__, "width": d_t})
        big = expand_mlp(mlp, spec, d_t, hidden_t, policy, substream(5, "m"), 0.02)
        x = rng("mlp", policy).standard_normal((5, 4))
        got = mlp_forward(expand_vector(x, d_t, "zero"), big, big_spec)
        want = expand_vector(mlp_forward(x, mlp, spec), d_t, "avg")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_lemon_duplicated_hidden_units_have_distinct_fanout(self, toy_model):
        w, spec = toy_model(depth=1)
        big = expand_mlp(w.blocks[0].mlp, spec, 2 * spec.width, 2 * spec.hidden_dim,
                         "lemon", substream(6, "f"), 0.02)
        h = spec.hidden_dim
        for z in range(h):
            assert np.abs(big.w2[:, z] - big.w2[:, z + h]).max() > 1e-6 * 0.02

    @pytest.mark.parametrize("style", ("pre_ln", "post_res_norm", "rms_pre"))
    def test_block_width_residual_losslessness(self, toy_model, rng, style):
        w, spec = toy_model(style=style, depth=1)
        d_t = 20
        hidden_t = int(round(spec.mlp_ratio * d_t))
        big_spec = spec.__class__(**{**spec.__dict__, "width": d_t})
        big = expand_block_width(w.blocks[0], spec, d_t, hidden_t, "lemon",
                                 substream(7, "b", style), 0.02)
        mode = "zero" if style in ("post_res_norm", "rms_pre") else "avg"
        x = rng("blk", style).standard_normal((4, spec.width))
        got = block_forward(expand_vector(x, d_t, mode), big, big_spec)
        want = expand_vector(block_forward(x, w.blocks[0], spec), d_t, mode)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_divisible_doubling_tiles_norm_weights(self, toy_model):
        w, spec = toy_model(depth=1)
        big = expand_block_width(w.blocks[0], spec, 2 * spec.width,
                                 2 * spec.hidden_dim, "lemon", substream(8, "n"), 0.02)
        np.testing.assert_array_equal(big.ln1.mu,
                                      np.concatenate([w.blocks[0].ln1.mu] * 2))
        assert big.ln1.eps == w.blocks[0].ln1.eps

    @pytest.mark.parametrize("policy,exact", [("net2net_equal", True),
                                              ("lemon", False)])
    def test_zero_module_block_stays_identity(self, toy_model, rng, policy, exact):
        w, spec = toy_model(depth=1)
        blk = w.blocks[0]
        blk.attn.wo[:] = 0.0
        blk.attn.bo[:] = 0.0
        blk.mlp.w2[:] = 0.0
        blk.mlp.b2[:] = 0.0
        d_t = 20
        big_spec = spec.__class__(**{**spec.__dict__, "width": d_t})
        big = expand_block_width(blk, spec, d_t, int(round(spec.mlp_ratio * d_t)),
                                 policy, substream(28, policy), 0.02)
        x = expand_vector(rng("zm", policy).standard_normal((4, spec.width)),
                          d_t, "avg")
        out = block_forward(x, big, big_spec)
        if exact:
            np.testing.assert_array_equal(out, x)
        else:
            np.testing.assert_allclose(out, x, rtol=0, atol=1e-10)


class TestEmbeddingsAndDecoder:
    def test_token_row_hand_case(self, toy_spec):
        spec = toy_spec(width=2, head_dim=2, vocab=1)
        w = random_weights(spec, substream(9, "e"))
        w.embedding.token_table = np.array([[1.0, 3.0]])
        out = expand_embeddings(w.embedding, spec, 3, "avg")
        np.testing.assert_array_equal(out.token_table, [[1.0, 3.0, 2.0]])

    def test_identity(self, toy_model):
        w, spec = toy_model()
        out = expand_embeddings(w.embedding, spec, spec.width, "avg")
        np.testing.assert_array_equal(out.token_table, w.embedding.token_table)

    def test_rows_match_post_hoc_expansion(self, toy_model, rng):
        w, spec = toy_model()
        out = expand_embeddings(w.embedding, spec, 20, "avg")
        ids = rng("emb").integers(0, spec.vocab_or_classes, size=5)
        np.testing.assert_array_equal(
            out.token_table[ids],
            expand_vector(w.embedding.token_table[ids], 20, "avg"))

    def test_vision_embeddings(self, toy_spec, rng):
        spec = toy_spec(input_kind="vision", vocab=5, patch_dim=6, num_patches=4)
        w = random_weights(spec, substream(10, "v"))
        out = expand_embeddings(w.embedding, spec, 20, "avg")
        assert out.patch_weight.shape == (20, 6)
        assert out.positions.shape == (5, 20)
        np.testing.assert_array_equal(out.cls_token,
                                      expand_vector(w.embedding.cls_token, 20, "avg"))

    def test_untied_decoder_preserves_logits(self, toy_model, rng):
        w, spec = toy_model()
        big = expand_decoder(w.dec_weight, 20, "lemon", substream(11, "d"), 0.02)
        h = rng("dec").standard_normal(spec.width)
        got = kernels.matmul(big, expand_vector(h, 20, "zero")[:, None])
        want = kernels.matmul(w.dec_weight, h[:, None])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_tied_rescale_halves_final_norm(self, toy_model):
        w, spec = toy_model(tied_decoder=True)
        plan = ExpansionPlan(2 * spec.width, spec.depth, seed=3)
        big_w, big_spec, _ = expand_model(w, spec, plan)
        # same expansion without tying, for the unscaled reference
        w_untied = random_weights(spec.__class__(**{**spec.__dict__,
                                                    "tied_decoder": False}),
                                  substream(12, "u"))
        w_untied.final_norm = map_arrays(w.final_norm, np.copy)
        big_u, _, _ = expand_model(
            w_untied, spec.__class__(**{**spec.__dict__, "tied_decoder": False}), plan)
        np.testing.assert_array_equal(big_w.final_norm.mu, big_u.final_norm.mu / 2)

    def test_tied_identity_width_no_rescale(self, toy_model):
        w, spec = toy_model(tied_decoder=True)
        big_w, _, _ = expand_model(w, spec, ExpansionPlan(spec.width, spec.depth))
        np.testing.assert_array_equal(big_w.final_norm.mu, w.final_norm.mu)


class TestDepthExpansion:
    def test_multiplicities(self):
        assert layer_multiplicities(2, 3) == [2, 1]
        assert layer_multiplicities(6, 12) == [2] * 6
        assert layer_multiplicities(3, 5) == [2, 2, 1]
        assert layer_multiplicities(2, 2) == [1, 1]

    def test_replica_groups(self):
        assert replica_groups(2, 5) == {0: [0, 2, 4], 1: [1, 3]}
        assert replica_groups(2, 2) == {}

    @pytest.mark.parametrize("mode", ("type1", "type2"))
    def test_inserted_blocks_are_exact_identities(self, toy_model, rng, mode):
        w, spec = toy_model(depth=2)
        plan = ExpansionPlan(20, 5, depth_mode=mode, seed=13)
        big_w, big_spec, _ = expand_model(w, spec, plan)
        x = rng("ins", mode).standard_normal((5, 20))
        for idx in (1, 2, 4):  # multiplicities [3, 2] -> inserted at 1, 2, 4
            out = block_forward(x, big_w.blocks[idx], big_spec)
            np.testing.assert_array_equal(out, x)

    def test_type2_output_layers_are_nonzero(self, toy_model):
        w, spec = toy_model(depth=1)
        plan = ExpansionPlan(16, 2, depth_mode="type2", seed=14)
        big_w, _, _ = expand_model(w, spec, plan)
        inserted = big_w.blocks[1]
        assert np.abs(inserted.attn.wo).max() > 0
        assert np.abs(inserted.mlp.w2).max() > 0
        # cancelling pairs: fan-out sums over each replica group vanish
        h = spec.hidden_dim
        sums = inserted.mlp.w2[:, :h] + inserted.mlp.w2[:, h:]
        np.testing.assert_array_equal(sums, np.zeros_like(sums))

    def test_type2_pairs_follow_the_reference_layout(self, toy_model):
        # d_t = 20: heads 2 -> 5 (heads 0, 1 paired), hidden 16 -> 40
        w, spec = toy_model(depth=1)
        big_w, _, _ = expand_model(w, spec, ExpansionPlan(20, 2, depth_mode="type2",
                                                          seed=19))
        blk = big_w.blocks[1]
        hd, h_s, hidden_s = spec.head_dim, spec.n_heads, spec.hidden_dim
        want_wo = np.zeros_like(blk.attn.wo)
        for row in range(20):
            col = (row % h_s) * hd + row % hd
            a = blk.attn.wo[row, col]
            assert abs(a) > 0
            want_wo[row, col], want_wo[row, col + h_s * hd] = a, -a
        np.testing.assert_array_equal(blk.attn.wo, want_wo)
        want_w2 = np.zeros_like(blk.mlp.w2)
        for row in range(20):
            a = blk.mlp.w2[row, row % hidden_s]
            assert abs(a) > 0
            want_w2[row, row % hidden_s], want_w2[row, row % hidden_s + hidden_s] = a, -a
        np.testing.assert_array_equal(blk.mlp.w2, want_w2)

    def test_type2_without_width_growth_degenerates_to_zero(self, toy_model):
        w, spec = toy_model(depth=1)
        plan = ExpansionPlan(spec.width, 2, depth_mode="type2", seed=15)
        big_w, _, _ = expand_model(w, spec, plan)
        np.testing.assert_array_equal(big_w.blocks[1].attn.wo,
                                      np.zeros_like(big_w.blocks[1].attn.wo))
        np.testing.assert_array_equal(big_w.blocks[1].mlp.w2,
                                      np.zeros_like(big_w.blocks[1].mlp.w2))

    def test_depth_doubling_six_to_twelve_is_lossless(self, toy_model):
        w, spec = toy_model(depth=6)
        for mode in ("type1", "type2"):
            big_w, big_spec, _ = expand_model(
                w, spec, ExpansionPlan(spec.width, 12, depth_mode=mode, seed=16))
            assert forward_diff(w, spec, big_w, big_spec) <= 1e-10

    def test_post_res_norm_inserted_blocks(self, toy_model, rng):
        w, spec = toy_model(style="post_res_norm", depth=2)
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(16, 4, seed=17))
        x = rng("prn").standard_normal((4, 16))
        np.testing.assert_array_equal(block_forward(x, big_w.blocks[1], big_spec), x)
        np.testing.assert_array_equal(big_w.blocks[1].ln1.mu, np.zeros(16))

    def test_aki_style_copies_next_block(self, toy_model):
        w, spec = toy_model(depth=2)
        plan = ExpansionPlan(spec.width, 4, depth_mode="type1", seed=18,
                             depth_source="next")
        big_w, big_spec, _ = expand_model(w, spec, plan)
        # inserted block after block 0 carries block 1's inner weights
        np.testing.assert_array_equal(big_w.blocks[1].mlp.w1, w.blocks[1].mlp.w1)
        np.testing.assert_array_equal(big_w.blocks[1].attn.heads[0].wq,
                                      w.blocks[1].attn.heads[0].wq)
        assert forward_diff(w, spec, big_w, big_spec) <= 1e-10


class TestExpandModel:
    @pytest.mark.parametrize("style", ("pre_ln", "post_res_norm", "rms_pre"))
    @pytest.mark.parametrize("policy", ("lemon", "net2net_equal", "zero_tail"))
    def test_end_to_end_losslessness(self, toy_model, style, policy):
        w, spec = toy_model(style=style)
        plan = ExpansionPlan(20, 4, policy=policy, depth_mode="type2", seed=19)
        big_w, big_spec, _ = expand_model(w, spec, plan)
        assert forward_diff(w, spec, big_w, big_spec) <= 1e-10

    def test_identity_plan_returns_identical_weights(self, toy_model):
        w, spec = toy_model()
        big_w, big_spec, dup = expand_model(w, spec,
                                            ExpansionPlan(spec.width, spec.depth))
        for (na, a), (nb, b) in zip(named_tensors(w, spec),
                                    named_tensors(big_w, big_spec)):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        assert dup["blocks"] == []

    def test_vision_end_to_end(self, toy_spec):
        spec = toy_spec(input_kind="vision", vocab=9, patch_dim=8, num_patches=5)
        w = random_weights(spec, substream(20, "v"))
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(20, 4, seed=21))
        assert forward_diff(w, spec, big_w, big_spec) <= 1e-10

    def test_deterministic_given_seed(self, toy_model):
        w, spec = toy_model()
        plan = ExpansionPlan(20, 5, depth_mode="type2", seed=22)
        a, sa, _ = expand_model(w, spec, plan)
        b, sb, _ = expand_model(w, spec, plan)
        for (_, ta), (_, tb) in zip(named_tensors(a, sa), named_tensors(b, sb)):
            np.testing.assert_array_equal(ta, tb)

    def test_different_seed_changes_free_parameters(self, toy_model):
        w, spec = toy_model()
        a, sa, _ = expand_model(w, spec, ExpansionPlan(20, 2, seed=1))
        b, _, _ = expand_model(w, spec, ExpansionPlan(20, 2, seed=2))
        assert any(not np.array_equal(ta, tb)
                   for (_, ta), (_, tb) in zip(named_tensors(a, sa),
                                               named_tensors(b, sa)))

    def test_per_block_substreams_are_isolated(self, toy_model):
        # mutating one block's weights must not shift the random draws
        # used for any other block (parallel == serial contract)
        w, spec = toy_model(depth=2)
        plan = ExpansionPlan(20, 2, seed=4)
        base, bs, _ = expand_model(w, spec, plan)
        altered = map_arrays(w, np.copy)
        altered.blocks[1].mlp.w1 += 1.0
        other, _, _ = expand_model(altered, spec, plan)
        # block 0 is bitwise unaffected, including its free parameters
        for (na, a), (nb, b) in zip(named_tensors(base, bs),
                                    named_tensors(other, bs)):
            if na.startswith("blocks.0."):
                np.testing.assert_array_equal(a, b, err_msg=na)

    def test_float32_round_trip(self, toy_spec):
        spec = toy_spec()
        w = random_weights(spec, substream(23, "f"), dtype=np.float32)
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(16, 3, seed=24))
        assert big_w.blocks[0].mlp.w1.dtype == np.float32
        assert forward_diff(w, spec, big_w, big_spec) <= 1e-5

    def test_plan_validation(self, toy_model):
        w, spec = toy_model()
        with pytest.raises(PlanError):
            ExpansionPlan(4, 2).validate(spec)       # narrower than source
        with pytest.raises(PlanError):
            ExpansionPlan(18, 2).validate(spec)      # not a head_dim multiple
        with pytest.raises(PlanError):
            ExpansionPlan(16, 1).validate(spec)      # shallower than source
        with pytest.raises(PlanError):
            ExpansionPlan(16, 2, policy="magic").validate(spec)
        with pytest.raises(PlanError):
            ExpansionPlan(16, 2, depth_mode="type3").validate(spec)
        with pytest.raises(PlanError):
            ExpansionPlan(16, 2, noise_scale=0.0).validate(spec)

    def test_post_ln_rejects_indivisible_width(self, toy_spec):
        spec = toy_spec(style="post_ln", eps=0.0)
        with pytest.raises(PlanError):
            ExpansionPlan(12, 2).validate(spec)

    def test_post_ln_divisible_losslessness(self, toy_spec):
        spec = toy_spec(style="post_ln", eps=0.0)
        w = random_weights(spec, substream(25, "pl"))
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(16, 5, seed=26))
        assert forward_diff(w, spec, big_w, big_spec) <= 1e-10

    def test_duplicate_map_structure(self, toy_model):
        w, spec = toy_model(depth=2)
        _, _, dup = expand_model(w, spec, ExpansionPlan(20, 3, seed=27))
        assert dup["version"] == 1
        carriers = [b["index"] for b in dup["blocks"]]
        assert carriers == [0, 2]  # multiplicities [2, 1]; inserted block at 1
        entry = dup["blocks"][0]
        assert entry["attn_head_groups"] == {"0": [0, 2, 4], "1": [1, 3]}
        assert "mlp_hidden_groups" in entry


def _containers(obj):
    """Every dataclass and list in a weight structure."""
    if isinstance(obj, list):
        yield obj
        for x in obj:
            yield from _containers(x)
    elif is_dataclass(obj):
        yield obj
        for f in fields(obj):
            yield from _containers(getattr(obj, f.name))


class TestMapArrays:
    @pytest.mark.parametrize("kw", (dict(), dict(style="rms_pre"), dict(tied_decoder=True),
                                    dict(input_kind="vision", vocab=9, patch_dim=8,
                                         num_patches=5)))
    def test_outputs_never_alias_inputs(self, toy_spec, kw):
        spec = toy_spec(**kw)
        w = random_weights(spec, substream(31, "map"))
        out = map_arrays(w, lambda a: a.astype(np.float32))
        validate_weights(out, spec)
        assert not {id(c) for c in _containers(w)} & {id(c) for c in _containers(out)}
        for (na, a), (nb, b) in zip(named_tensors(w, spec), named_tensors(out, spec)):
            assert na == nb and not np.shares_memory(a, b)
            if not na.endswith(".eps"):  # eps travels as a python float
                assert b.dtype == np.float32
                np.testing.assert_array_equal(b, a.astype(np.float32))


class TestMotivatingScale:
    @pytest.mark.slow
    @pytest.mark.parametrize("d_s", (384, 512))
    def test_six_block_to_twelve_block_base_width(self, d_s):
        # the headline shapes: 6 blocks at 384/512 grown to 12 blocks at 768
        spec = ModelSpec("pre_ln", 6, d_s, 64, 4.0, 32, eps=1e-6)
        w = random_weights(spec, substream(30, "scale", d_s))
        big_w, big_spec, _ = expand_model(w, spec,
                                          ExpansionPlan(768, 12, seed=31))
        worst = 0.0
        for i in range(64):
            ids = substream(32, "seq", d_s, i).integers(0, 32, size=2)
            d = np.abs(model_forward(ids, big_w, big_spec)
                       - model_forward(ids, w, spec)).max()
            worst = max(worst, float(d))
        assert worst <= 1e-10


class TestToyGradientStep:
    def test_gradient_matches_finite_differences(self, rng):
        g = rng("fd")
        w1, v = g.standard_normal((3, 2)), g.standard_normal(3)
        x, y = g.standard_normal(2), 0.7
        lr = 1.0

        def loss(w1_, v_):
            return float((v_ @ kernels.activation(w1_ @ x, "gelu") - y) ** 2)

        new_w1, new_v = toy_mlp_gradient_step(w1, v, x, y, lr)
        eps = 1e-6
        for idx in np.ndindex(w1.shape):
            probe = w1.copy()
            probe[idx] += eps
            num = (loss(probe, v) - loss(w1, v)) / eps
            assert new_w1[idx] == pytest.approx(w1[idx] - lr * num, abs=1e-4)
        for j in range(3):
            probe = v.copy()
            probe[j] += eps
            num = (loss(w1, probe) - loss(w1, v)) / eps
            assert new_v[j] == pytest.approx(v[j] - lr * num, abs=1e-4)

import math
from dataclasses import replace

import numpy as np
import pytest

from lemon import (MlpWeights, ModelSpec, PlanError, ShapeError,
                   block_forward, mha_forward, mlp_forward, model_forward,
                   random_weights, validate_weights)
from lemon import kernels
from lemon.model import (NORM_STYLES, apply_norm, attention_sublayer,
                         mlp_sublayer)
from lemon.rng import substream


def naive_mha(x, attn, head_dim):
    """Brute-force per-head attention with plain python loops."""
    e = x.shape[0]
    outs = []
    for head in attn.heads:
        q = x @ head.wq.T + head.bq
        k = x @ head.wk.T + head.bk
        v = x @ head.wv.T + head.bv
        out = np.zeros_like(v)
        for i in range(e):
            logits = np.array([q[i] @ k[j] / math.sqrt(head_dim) for j in range(e)])
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            for j in range(e):
                out[i] += weights[j] * v[j]
        outs.append(out)
    return np.hstack(outs) @ attn.wo.T + attn.bo


class TestMha:
    def test_zero_value_projection(self, toy_model):
        w, spec = toy_model(depth=1)
        attn = w.blocks[0].attn
        for head in attn.heads:
            head.wv[:] = 0.0
            head.bv[:] = 0.0
        attn.bo[:] = 0.0
        x = substream(0, "x").standard_normal((5, spec.width))
        np.testing.assert_array_equal(mha_forward(x, attn, spec), np.zeros_like(x))

    def test_single_token_collapses_to_value(self, toy_model, rng):
        w, spec = toy_model(depth=1)
        attn = w.blocks[0].attn
        x = rng("tok").standard_normal((1, spec.width))
        want = np.hstack([x @ h.wv.T + h.bv for h in attn.heads]) @ attn.wo.T + attn.bo
        np.testing.assert_allclose(mha_forward(x, attn, spec), want, atol=1e-12)

    def test_matches_naive_oracle(self, toy_model, rng):
        w, spec = toy_model(depth=1, width=8, head_dim=4)  # two heads
        attn = w.blocks[0].attn
        x = rng("naive").standard_normal((6, spec.width))
        np.testing.assert_allclose(mha_forward(x, attn, spec),
                                   naive_mha(x, attn, spec.head_dim), atol=1e-12)

    def test_extent_mismatch(self, toy_model):
        w, spec = toy_model(depth=1)
        with pytest.raises(ShapeError):
            mha_forward(np.zeros((3, spec.width + 1)), w.blocks[0].attn, spec)


class TestMlp:
    def test_zero_weights(self, toy_model):
        w, spec = toy_model(depth=1)
        mlp = w.blocks[0].mlp
        for f in ("w1", "b1", "w2", "b2"):
            getattr(mlp, f)[:] = 0.0
        x = substream(1, "x").standard_normal((4, spec.width))
        np.testing.assert_array_equal(mlp_forward(x, mlp, spec), np.zeros_like(x))

    def test_relu_hand_case(self):
        spec = ModelSpec("pre_ln", 1, 2, 2, 0.5, 3, activation="relu")
        mlp = MlpWeights(w1=np.array([[2.0, 0.0]]), b1=np.array([-1.0]),
                         w2=np.array([[3.0], [-2.0]]), b2=np.array([0.5, 0.5]))
        out = mlp_forward(np.array([[1.0, 0.5]]), mlp, spec)
        # hidden = relu(2*1 - 1) = 1 -> out = [3, -2] + 0.5
        np.testing.assert_allclose(out, [[3.5, -1.5]], atol=1e-15)

    def test_matches_kernel_chain(self, toy_model, rng):
        w, spec = toy_model(depth=1)
        mlp = w.blocks[0].mlp
        x = rng("chain").standard_normal((5, spec.width))
        hidden = kernels.activation(
            kernels.matmul(x, mlp.w1.T) + mlp.b1, spec.activation)
        want = kernels.matmul(hidden, mlp.w2.T) + mlp.b2
        np.testing.assert_array_equal(mlp_forward(x, mlp, spec), want)


class TestBlock:
    def _zero_modules(self, blk):
        blk.attn.wo[:] = 0.0
        blk.attn.bo[:] = 0.0
        blk.mlp.w2[:] = 0.0
        blk.mlp.b2[:] = 0.0

    def test_pre_ln_residual_identity(self, toy_model, rng):
        w, spec = toy_model(depth=1)
        self._zero_modules(w.blocks[0])
        x = rng("pl").standard_normal((4, spec.width))
        np.testing.assert_array_equal(block_forward(x, w.blocks[0], spec), x)

    def test_post_res_norm_zero_norms_identity(self, toy_model, rng):
        w, spec = toy_model(style="post_res_norm", depth=1)
        for ln in (w.blocks[0].ln1, w.blocks[0].ln2):
            ln.mu[:] = 0.0
            ln.beta[:] = 0.0
        x = rng("prn").standard_normal((4, spec.width))
        np.testing.assert_array_equal(block_forward(x, w.blocks[0], spec), x)

    @pytest.mark.parametrize("style", ("pre_ln", "post_res_norm", "post_ln", "rms_pre"))
    def test_matches_straight_line_oracle(self, toy_model, rng, style):
        w, spec = toy_model(style=style, depth=1)
        blk = w.blocks[0]
        x = rng("blk", style).standard_normal((5, spec.width))
        if style in ("pre_ln", "rms_pre"):
            mid = x + mha_forward(apply_norm(x, blk.ln1, spec), blk.attn, spec)
            want = mid + mlp_forward(apply_norm(mid, blk.ln2, spec), blk.mlp, spec)
        elif style == "post_res_norm":
            mid = x + apply_norm(mha_forward(x, blk.attn, spec), blk.ln1, spec)
            want = mid + apply_norm(mlp_forward(mid, blk.mlp, spec), blk.ln2, spec)
        else:
            mid = apply_norm(mha_forward(x, blk.attn, spec) + x, blk.ln1, spec)
            want = apply_norm(mlp_forward(mid, blk.mlp, spec) + mid, blk.ln2, spec)
        np.testing.assert_array_equal(block_forward(x, blk, spec), want)


    @pytest.mark.parametrize("zeroed", ((), ("attn",), ("mlp",), ("attn", "mlp")),
                             ids=("none", "attn", "mlp", "both"))
    @pytest.mark.parametrize("style", NORM_STYLES)
    def test_is_its_two_sublayers_bit_for_bit(self, toy_model, rng, style, zeroed):
        # a module whose output projection is zero is skipped by the block's
        # own default, the same as a sublayer told to skip it
        w, spec = toy_model(style=style, depth=1)
        blk = w.blocks[0]
        if "attn" in zeroed:
            blk.attn.wo[:] = 0.0
        if "mlp" in zeroed:
            blk.mlp.w2[:] = 0.0
        x = rng("sub", style).standard_normal((5, spec.width))
        mid = attention_sublayer(x, blk.ln1, blk.attn, spec, "attn" in zeroed)
        want = mlp_sublayer(mid, blk.ln2, blk.mlp, spec, "mlp" in zeroed)
        assert block_forward(x, blk, spec).tobytes() == want.tobytes()

    @pytest.mark.parametrize("module", ("attn", "mlp"))
    @pytest.mark.parametrize("style", NORM_STYLES)
    def test_a_sublayer_runs_or_skips_its_module_as_told(self, toy_model, rng, style, module):
        # skip=True stands the output bias in for the module, which is what
        # the default decides for a module whose output projection is zero;
        # skip=False runs the module, whatever the default would decide
        w, spec = toy_model(style=style, depth=1)
        blk = w.blocks[0]
        x = rng("skip", style).standard_normal((5, spec.width))
        if module == "attn":
            sublayer, norm, weights = attention_sublayer, blk.ln1, blk.attn
            zeroed = replace(weights, wo=np.zeros_like(weights.wo))
        else:
            sublayer, norm, weights = mlp_sublayer, blk.ln2, blk.mlp
            zeroed = replace(weights, w2=np.zeros_like(weights.w2))

        def run(m, skip=None):
            return sublayer(x, norm, m, spec, skip).tobytes()
        assert run(weights, False) == run(weights) != run(weights, True)
        assert run(weights, True) == run(zeroed) == run(zeroed, True) == run(zeroed, False)


class TestModelForward:
    def test_depth_zero_matches_hand_evaluation(self, toy_model, rng):
        w, spec = toy_model(depth=0)
        ids = np.array([3, 0, 7])
        x = w.embedding.token_table[ids]
        x = kernels.layernorm(x, w.final_norm.mu, w.final_norm.beta, w.final_norm.eps)
        want = kernels.matmul(x, w.dec_weight.T) + w.dec_bias
        np.testing.assert_array_equal(model_forward(ids, w, spec), want)

    def test_logits_shape(self, toy_model):
        w, spec = toy_model()
        out = model_forward(np.array([1, 2, 3, 4]), w, spec)
        assert out.shape == (4, spec.vocab_or_classes)

    def test_deterministic(self, toy_model):
        w, spec = toy_model()
        ids = np.array([0, 5, 9])
        a = model_forward(ids, w, spec)
        b = model_forward(ids, w, spec)
        np.testing.assert_array_equal(a, b)

    def test_out_of_range_token(self, toy_model):
        w, spec = toy_model(vocab=6)
        with pytest.raises(ShapeError):
            model_forward(np.array([0, 6]), w, spec)
        with pytest.raises(ShapeError):
            model_forward(np.array([-1]), w, spec)

    def test_vision_forward(self, toy_spec, rng):
        spec = toy_spec(input_kind="vision", vocab=7, patch_dim=6, num_patches=4)
        w = random_weights(spec, substream(5, "vis"))
        patches = rng("vp").standard_normal((4, 6))
        out = model_forward(patches, w, spec)
        assert out.shape == (7,)
        np.testing.assert_array_equal(out, model_forward(patches, w, spec))

    def test_vision_wrong_patch_shape(self, toy_spec):
        spec = toy_spec(input_kind="vision", vocab=7, patch_dim=6, num_patches=4)
        w = random_weights(spec, substream(5, "vis"))
        with pytest.raises(ShapeError):
            model_forward(np.zeros((5, 6)), w, spec)

    def test_tied_decoder_uses_embedding_table(self, toy_model, rng):
        w, spec = toy_model(tied_decoder=True)
        ids = np.array([2, 4])
        logits = model_forward(ids, w, spec)
        x = w.embedding.token_table[ids]
        for blk in w.blocks:
            x = block_forward(x, blk, spec)
        x = apply_norm(x, w.final_norm, spec)
        want = kernels.matmul(x, w.embedding.token_table.T) + w.dec_bias
        np.testing.assert_array_equal(logits, want)


class TestInvariants:
    def test_weight_symmetry_hidden_units(self, toy_model, rng):
        # units with identical fan-in and bias compute identical activations
        w, spec = toy_model(depth=1)
        mlp = w.blocks[0].mlp
        mlp.w1[1] = mlp.w1[0]
        mlp.b1[1] = mlp.b1[0]
        x = rng("sym").standard_normal((6, spec.width))
        hidden = kernels.activation(kernels.matmul(x, mlp.w1.T) + mlp.b1, spec.activation)
        np.testing.assert_array_equal(hidden[:, 0], hidden[:, 1])

    def test_head_permutation_invariance(self, toy_model, rng):
        w, spec = toy_model(width=12, head_dim=4, seed=3)  # three heads
        ids = np.array([1, 3, 5, 7])
        base = model_forward(ids, w, spec)
        perm = [2, 0, 1]
        hd = spec.head_dim
        for blk in w.blocks:
            blk.attn.heads = [blk.attn.heads[p] for p in perm]
            blocks = [blk.attn.wo[:, p * hd:(p + 1) * hd] for p in perm]
            blk.attn.wo = np.ascontiguousarray(np.hstack(blocks))
        np.testing.assert_allclose(model_forward(ids, w, spec), base,
                                   rtol=0, atol=1e-10)


class TestValidation:
    def test_spec_errors(self):
        with pytest.raises(PlanError):
            ModelSpec("pre_ln", 2, 10, 4, 2.0, 5).validate()  # 10 % 4 != 0
        with pytest.raises(PlanError):
            ModelSpec("nope", 2, 8, 4, 2.0, 5).validate()
        with pytest.raises(PlanError):
            ModelSpec("post_ln", 2, 8, 4, 2.0, 5, tied_decoder=True).validate()
        with pytest.raises(PlanError):
            ModelSpec("pre_ln", 2, 8, 4, 2.0, 5, input_kind="vision").validate()

    def test_weight_extent_errors(self, toy_model):
        w, spec = toy_model()
        w.blocks[0].mlp.w1 = w.blocks[0].mlp.w1[:, :-1]
        with pytest.raises(ShapeError):
            validate_weights(w, spec)

    def test_block_count_mismatch(self, toy_model):
        w, spec = toy_model()
        w.blocks.pop()
        with pytest.raises(ShapeError):
            validate_weights(w, spec)


class TestRandomWeights:
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_matrices_are_scaled_standard_normal_draws(self, toy_spec, dtype):
        spec = toy_spec()
        table = random_weights(spec, substream(7, "rw"), dtype=dtype).embedding.token_table
        want = (substream(7, "rw").standard_normal(table.shape) * 0.25).astype(dtype)
        assert table.dtype == dtype and table.tobytes() == want.tobytes()

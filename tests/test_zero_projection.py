"""Modules whose stored output projection is all zero are not evaluated:
they return exactly their bias, bit for bit what the full path gives, and
a projection that is not all zero always takes the full path."""

import math

import numpy as np
import pytest

from lemon import (ExpansionPlan, ShapeError, expand_model, mha_forward, mlp_forward,
                   read_checkpoint, verify_lossless, write_checkpoint)
from lemon import kernels
from lemon.cli import main
from lemon.rng import substream


def full_mha(x, attn, spec):
    """The whole attention kernel chain, whatever the weights."""
    scale = x.dtype.type(1.0 / math.sqrt(spec.head_dim))
    outs = []
    for h in attn.heads:
        q = kernels.matmul(x, h.wq.T) + h.bq
        k = kernels.matmul(x, h.wk.T) + h.bk
        v = kernels.matmul(x, h.wv.T) + h.bv
        outs.append(kernels.matmul(kernels.softmax_rows(kernels.matmul(q, k.T) * scale), v))
    return kernels.matmul(np.hstack(outs), attn.wo.T) + attn.bo


def full_mlp(x, mlp, spec):
    """The whole MLP kernel chain, whatever the weights."""
    hidden = kernels.activation(kernels.matmul(x, mlp.w1.T) + mlp.b1, spec.activation)
    return kernels.matmul(hidden, mlp.w2.T) + mlp.b2


def type1_pair(toy_model, tmp_path, depth=2, target_depth=4):
    """A small checkpoint and its type1 expansion, with the duplicate map."""
    w, spec = toy_model(depth=depth, width=8)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    write_checkpoint(w, spec, small)
    _, big_spec, dup = expand_model(w, spec, ExpansionPlan(12, target_depth, seed=5),
                                    out=big)
    return small, big, spec, big_spec, dup


def inserted_blocks(dup, depth):
    carriers = {b["index"] for b in dup["blocks"]}
    return [i for i in range(depth) if i not in carriers]


class TestPerturbedZeroProjectionFails:
    @pytest.mark.parametrize("tensor", ["mlp.w2", "attn.wo"])
    def test_inserted_block_perturbed_by_1e_6(self, toy_model, tmp_path, capsys, tensor):
        small, big, _, big_spec, dup = type1_pair(toy_model, tmp_path)
        w, _ = read_checkpoint(big)
        bi = inserted_blocks(dup, big_spec.depth)[0]
        module, name = tensor.split(".")
        proj = getattr(getattr(w.blocks[bi], module), name)
        assert not proj.any()
        proj[0, 0] += 1e-6
        write_checkpoint(w, big_spec, big)
        assert main(["verify", "--small", str(small), "--big", str(big),
                     "--samples", "3"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


def test_verify_makes_only_the_live_modules_matmuls(toy_model, tmp_path, monkeypatch):
    small, big, spec, big_spec, dup = type1_pair(toy_model, tmp_path)
    assert inserted_blocks(dup, big_spec.depth) == [1, 3]
    calls = []
    real = kernels.matmul
    monkeypatch.setattr(kernels, "matmul", lambda a, b: calls.append(1) or real(a, b))
    samples = 3
    report = verify_lossless(small, big, samples=samples, seed=2, tol=1e-10)
    assert report.passed

    def model_calls(n_heads, live_blocks):
        # per live block: q, k, v, scores and mix per head, wo, then w1, w2;
        # one decoder matmul
        return live_blocks * (5 * n_heads + 1 + 2) + 1

    want = samples * (model_calls(spec.n_heads, spec.depth)
                      + model_calls(big_spec.n_heads, 2))
    assert len(calls) == want


class TestSkipIsBitwiseTheFullPath:
    @staticmethod
    def check(blocks, spec, negate_bias):
        x = substream(6, "skip").standard_normal((7, spec.width))
        skipped = 0
        for blk in blocks:
            if negate_bias:  # make every zero bias entry a -0.0
                blk.attn.bo = np.where(blk.attn.bo == 0, -0.0, blk.attn.bo)
                blk.mlp.b2 = np.where(blk.mlp.b2 == 0, -0.0, blk.mlp.b2)
            for fwd, full, module, proj in ((mha_forward, full_mha, blk.attn, blk.attn.wo),
                                            (mlp_forward, full_mlp, blk.mlp, blk.mlp.w2)):
                skipped += not proj.any()
                got, want = fwd(x, module, spec), full(x, module, spec)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        return skipped

    @pytest.mark.parametrize("negate_bias", [False, True])
    def test_type1_inserted_blocks(self, toy_model, negate_bias):
        w, spec = toy_model(depth=2, width=8)
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(12, 4, seed=8))
        assert self.check(big_w.blocks, big_spec, negate_bias) == 4

    @pytest.mark.parametrize("negate_bias", [False, True])
    def test_post_ln_chain(self, toy_model, negate_bias):
        w, spec = toy_model(style="post_ln", depth=1, width=8, eps=0.0)
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(16, 3, seed=9))
        first, mid, last = big_w.blocks
        assert not first.mlp.w2.any() and first.attn.wo.any()
        assert not last.attn.wo.any() and last.mlp.w2.any()
        assert self.check(big_w.blocks, big_spec, negate_bias) == 4


def test_type1_report_is_independent_of_threads(toy_model, tmp_path, monkeypatch):
    small, big, *_ = type1_pair(toy_model, tmp_path, depth=3, target_depth=7)
    reports = []
    for threads in ("1", "3"):
        monkeypatch.setenv("LEMON_THREADS", threads)
        reports.append(verify_lossless(small, big, samples=5, seed=4, tol=None).to_dict())
    assert reports[0] == reports[1]
    assert reports[0]["passed"]


@pytest.mark.parametrize("zero", [False, True])
def test_input_extent_is_checked_on_both_paths(toy_model, zero):
    w, spec = toy_model(depth=1)
    blk = w.blocks[0]
    if zero:
        blk.attn.wo[:] = 0.0
        blk.mlp.w2[:] = 0.0
    x = np.zeros((3, spec.width + 1))
    with pytest.raises(ShapeError):
        mha_forward(x, blk.attn, spec)
    with pytest.raises(ShapeError):
        mlp_forward(x, blk.mlp, spec)

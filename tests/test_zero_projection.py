"""Modules that contribute only their output bias are not evaluated.

``model.bias_only`` reads the stored weights: an output projection that
is all zero (type1 inserts), or whose every row is one ± pair over two
units with bitwise-equal incoming weights (type2 inserts).  Such a module
returns exactly its bias, bit for bit what the full path gives, and any
break of the rule takes the full path."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemon import (AttentionWeights, ExpansionPlan, HeadWeights, MlpWeights,
                   NumericsError, ShapeError, expand_model, mha_forward, mlp_forward, read_checkpoint,
                   verify_lossless, write_checkpoint)
from lemon import kernels
from lemon.cli import main
from lemon.container import CheckpointReader
from lemon.model import bias_only
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


def expanded_pair(toy_model, tmp_path, depth=2, target_depth=4, depth_mode="type1"):
    """A small checkpoint and its expansion (type1 unless asked), with the
    duplicate map."""
    w, spec = toy_model(depth=depth, width=8)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    write_checkpoint(w, spec, small)
    with CheckpointReader(small) as reader:
        big_spec, dup = expand_model(
            reader, ExpansionPlan(12, target_depth, depth_mode=depth_mode, seed=5), big)
    return small, big, spec, big_spec, dup


def inserted_blocks(dup, depth):
    carriers = {b["index"] for b in dup["blocks"]}
    return [i for i in range(depth) if i not in carriers]


class TestPerturbedZeroProjectionFails:
    @pytest.mark.parametrize("tensor", ["mlp.w2", "attn.wo"])
    def test_inserted_block_perturbed_by_1e_6(self, toy_model, tmp_path, capsys, tensor):
        small, big, _, big_spec, dup = expanded_pair(toy_model, tmp_path)
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


def verify_cli(small, big, capsys):
    """Exit code, skip line and verdict of a 3-sample ``lemon verify``."""
    code = main(["verify", "--small", str(small), "--big", str(big), "--samples", "3"])
    lines = capsys.readouterr().out.splitlines()
    return code, lines[2], lines[-1]


def _add(array, index):
    array[index] += 1e-6


class TestBrokenPairTakesTheFullPath:
    """A type2 insert (width 8 -> 12, depth 2 -> 4) pairs head 0 with head
    2 in ``attn.wo`` and hidden unit s with s + 16 (s < 8) in ``mlp.w2``;
    a 1e-6 change anywhere in that structure is evaluated in full."""

    BREAKS = {
        "wo_zero_entry": lambda b: _add(b.attn.wo, (0, 1)),
        "wo_pair_entry": lambda b: _add(b.attn.wo, (0, 0)),
        "w2_zero_entry": lambda b: _add(b.mlp.w2, (0, 1)),
        "w2_pair_entry": lambda b: _add(b.mlp.w2, (0, 0)),
        "replica_head_wq": lambda b: _add(b.attn.heads[2].wq, (0, 0)),
        "replica_head_bq": lambda b: _add(b.attn.heads[2].bq, 0),
        "replica_head_bv": lambda b: _add(b.attn.heads[2].bv, 0),
        "replica_w1_row": lambda b: _add(b.mlp.w1, 16),
        "replica_b1_entry": lambda b: _add(b.mlp.b1, 16),
    }

    @staticmethod
    def broken(toy_model, tmp_path, capsys, brk):
        small, big, _, big_spec, dup = expanded_pair(toy_model, tmp_path, depth_mode="type2")
        bi = inserted_blocks(dup, big_spec.depth)[0]
        clean = verify_cli(small, big, capsys)
        assert clean == (0, "skipped 4 of 8 big-model modules whose output is exactly "
                            "their bias", "PASS")
        w, _ = read_checkpoint(big)
        blk = w.blocks[bi]
        assert bias_only(blk.attn) and bias_only(blk.mlp)
        brk(blk)
        assert not (bias_only(blk.attn) and bias_only(blk.mlp))
        write_checkpoint(w, big_spec, big)
        return verify_cli(small, big, capsys)

    @pytest.mark.parametrize("name", sorted(BREAKS))
    def test_break_fails_verify(self, toy_model, tmp_path, capsys, name):
        code, skipped, verdict = self.broken(toy_model, tmp_path, capsys, self.BREAKS[name])
        assert (code, verdict) == (1, "FAIL")
        assert skipped.startswith("skipped 3 of 8 ")

    def test_replica_key_bias_is_evaluated_in_full(self, toy_model, tmp_path, capsys):
        # a key bias shifts every score of a query equally, which softmax
        # undoes: the module is evaluated in full, and stays lossless
        code, skipped, verdict = self.broken(
            toy_model, tmp_path, capsys, lambda b: _add(b.attn.heads[2].bk, 0))
        assert (code, verdict) == (0, "PASS")
        assert skipped.startswith("skipped 3 of 8 ")


class TestNonFiniteSkippedModuleIsAnError:
    """A module that ``verify`` does not evaluate is checked for NaN and
    Inf as it is read: exit 2 with one stderr line naming the tensor, as
    for an evaluated module, and never PASS.  In a type2 insert both
    replicas take the value, so the module still cancels."""

    @pytest.mark.parametrize("depth_mode", ["type1", "type2"])
    @pytest.mark.parametrize("tensor, value", [("mlp.w1", np.nan), ("attn.head0.wq", np.inf)])
    def test_exits_2_naming_the_tensor(self, toy_model, tmp_path, capsys, depth_mode,
                                       tensor, value):
        small, big, _, big_spec, dup = expanded_pair(toy_model, tmp_path,
                                                     depth_mode=depth_mode)
        bi = inserted_blocks(dup, big_spec.depth)[0]
        w, _ = read_checkpoint(big)
        blk = w.blocks[bi]
        paired = depth_mode == "type2"  # see TestBrokenPairTakesTheFullPath
        if tensor == "mlp.w1":
            for unit in (5, 21) if paired else (5,):
                blk.mlp.w1[unit, 3] = value
        else:
            for head in (0, 2) if paired else (0,):
                blk.attn.heads[head].wq[1, 2] = value
        assert bias_only(blk.attn) and bias_only(blk.mlp)
        write_checkpoint(w, big_spec, big)
        name = f"blocks.{bi}.{tensor}"
        with pytest.raises(NumericsError, match=name):
            verify_lossless(small, big, samples=3, seed=0, tol=None)
        code = main(["verify", "--small", str(small), "--big", str(big), "--samples", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and "PASS" not in out
        assert err.count("\n") == 1 and name in err and "NaN or Inf" in err

    @pytest.mark.parametrize("depth_mode", ["type1", "type2"])
    @pytest.mark.parametrize("tensor", ["ln1.mu", "ln1.beta", "attn.bo", "ln2.mu",
                                        "ln2.beta", "mlp.b2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_norm_and_output_bias_fail_in_a_kernel(self, toy_model, tmp_path, capsys,
                                                   depth_mode, tensor, value):
        # only the incoming weights are checked as the module is read: the
        # bias alone still runs its norm and adds its output bias, and a
        # kernel raises on what they give
        small, big, _, big_spec, dup = expanded_pair(toy_model, tmp_path,
                                                     depth_mode=depth_mode)
        bi = inserted_blocks(dup, big_spec.depth)[0]
        w, _ = read_checkpoint(big)
        blk = w.blocks[bi]
        part, field = tensor.split(".")
        getattr(getattr(blk, part), field)[1] = value
        assert bias_only(blk.attn) and bias_only(blk.mlp)
        write_checkpoint(w, big_spec, big)
        with pytest.raises(NumericsError):
            verify_lossless(small, big, samples=3, seed=0, tol=None)
        code = main(["verify", "--small", str(small), "--big", str(big), "--samples", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and "PASS" not in out and err.count("\n") == 1


@pytest.mark.parametrize("depth_mode", ["type1", "type2"])
def test_verify_makes_only_the_live_modules_matmuls(toy_model, tmp_path, monkeypatch,
                                                    depth_mode):
    small, big, spec, big_spec, dup = expanded_pair(toy_model, tmp_path,
                                                    depth_mode=depth_mode)
    assert inserted_blocks(dup, big_spec.depth) == [1, 3]
    calls = []
    real = kernels.matmul
    monkeypatch.setattr(kernels, "matmul", lambda a, b: calls.append(1) or real(a, b))
    samples = 3
    report = verify_lossless(small, big, samples=samples, seed=2, tol=1e-10)
    assert report.passed
    assert (report.skipped, report.modules) == (4, 8)
    assert report.to_dict()["skipped_modules"] == 4

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
            for fwd, full, module in ((mha_forward, full_mha, blk.attn),
                                      (mlp_forward, full_mlp, blk.mlp)):
                skipped += bias_only(module)
                got, want = fwd(x, module, spec), full(x, module, spec)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        return skipped

    @pytest.mark.parametrize("negate_bias", [False, True])
    def test_type1_inserted_blocks(self, toy_model, negate_bias, expanded):
        w, spec = toy_model(depth=2, width=8)
        big_w, big_spec, _ = expanded(w, spec, ExpansionPlan(12, 4, seed=8))
        assert self.check(big_w.blocks, big_spec, negate_bias) == 4

    @pytest.mark.parametrize("loop", ["active", "fallback"])
    @pytest.mark.parametrize("negate_bias", [False, True])
    def test_type2_inserted_blocks(self, toy_model, monkeypatch, negate_bias, loop, expanded):
        if loop == "fallback":
            monkeypatch.setattr(kernels, "_inner", kernels._multiply_then_sum)
        w, spec = toy_model(depth=2, width=8)
        big_w, big_spec, _ = expanded(w, spec,
                                      ExpansionPlan(12, 4, depth_mode="type2", seed=8))
        inserted = big_w.blocks[1::2]
        assert all(b.attn.wo.any() and b.mlp.w2.any() for b in inserted)
        assert self.check(big_w.blocks, big_spec, negate_bias) == 4

    @pytest.mark.parametrize("negate_bias", [False, True])
    def test_post_ln_chain(self, toy_model, negate_bias, expanded):
        w, spec = toy_model(style="post_ln", depth=1, width=8, eps=0.0)
        big_w, big_spec, _ = expanded(w, spec, ExpansionPlan(16, 3, seed=9))
        first, mid, last = big_w.blocks
        assert not first.mlp.w2.any() and first.attn.wo.any()
        assert not last.attn.wo.any() and last.mlp.w2.any()
        assert self.check(big_w.blocks, big_spec, negate_bias) == 4


@pytest.mark.parametrize("depth_mode", ["type1", "type2"])
def test_report_is_independent_of_threads(toy_model, tmp_path, monkeypatch, depth_mode):
    small, big, *_ = expanded_pair(toy_model, tmp_path, depth=3, target_depth=7,
                                   depth_mode=depth_mode)
    reports = []
    for threads in ("1", "3"):
        monkeypatch.setenv("LEMON_THREADS", threads)
        reports.append(verify_lossless(small, big, samples=5, seed=4, tol=None).to_dict())
    assert reports[0] == reports[1]
    assert reports[0]["passed"] and reports[0]["skipped_modules"] == 8


def paired_module(data, attention: bool):
    """An attention or MLP module built like a type2 insert, its head
    size, and whether it was then changed.  Units ``s`` and ``s + n``
    share their incoming weights, some units have no replica, and each
    output row holds no entry or one ± pair over two such units at one
    offset.  The change, if one is drawn, adds to one entry of one tensor
    or swaps a pair entry with another entry of its row; it may or may
    not break the rule."""
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    width, n = data.draw(st.integers(2, 6), label="width"), data.draw(st.integers(1, 3))
    size = data.draw(st.integers(1, 3), label="head_dim") if attention else 1
    units = 2 * n + data.draw(st.integers(0, 2), label="unpaired")
    if attention:
        heads = [HeadWeights(*(g.standard_normal(s) for s in
                               [(size, width)] * 3 + [(size,)] * 3)) for _ in range(units)]
        for s in range(n):
            heads[s + n] = HeadWeights(*(np.copy(a) for a in vars(heads[s]).values()))
        tensors = [a for h in heads for a in vars(h).values()]
    else:
        w1, b1 = g.standard_normal((units, width)), g.standard_normal(units)
        w1[n:2 * n], b1[n:2 * n] = w1[:n], b1[:n]
        tensors = [w1, b1]
    proj = np.zeros((width, units * size))
    for row in range(width):
        if data.draw(st.booleans(), label="paired row"):
            col = int(g.integers(0, n)) * size + int(g.integers(0, size))
            proj[row, col] = g.standard_normal()
            proj[row, col + n * size] = -proj[row, col]
    tensors.append(proj)
    bias = g.standard_normal(width)
    module = (AttentionWeights(heads, proj, bias) if attention
              else MlpWeights(w1, b1, proj, bias))
    changed = data.draw(st.sampled_from(["none", "add", "move"]), label="change")
    if changed == "add":
        flat = tensors[data.draw(st.integers(0, len(tensors) - 1), label="tensor")].reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1), label="entry")] += data.draw(
            st.sampled_from([1e-6, -1.0, 2.5]), label="by")
    elif changed == "move" and proj.any():  # swap a pair entry with another in its row
        rows, cols = np.nonzero(proj)
        i = data.draw(st.integers(0, rows.size - 1), label="pair entry")
        to = data.draw(st.integers(0, proj.shape[1] - 1), label="to column")
        proj[rows[i], [cols[i], to]] = proj[rows[i], [to, cols[i]]]
    return module, size, changed != "none"


@settings(max_examples=200, deadline=None)
@given(data=st.data(), attention=st.booleans())
def test_skipped_module_is_exactly_its_bias(data, attention):
    module, head_dim, changed = paired_module(data, attention)
    skip = bias_only(module)
    assert skip or changed  # the property below is not vacuous
    if skip:
        spec = SimpleNamespace(head_dim=head_dim, activation="gelu")
        bias = module.bo if attention else module.b2
        x = np.random.default_rng(0).standard_normal((5, bias.size))
        full = full_mha(x, module, spec) if attention else full_mlp(x, module, spec)
        np.testing.assert_array_equal(full.view(np.uint64),
                                      (np.zeros_like(full) + bias).view(np.uint64))


def test_incoming_weights_must_match_bit_for_bit(toy_model, expanded):
    w, spec = toy_model(depth=2, width=8)
    big_w, *_ = expanded(w, spec, ExpansionPlan(12, 4, depth_mode="type2", seed=8))
    mlp = big_w.blocks[1].mlp  # hidden unit 16 replicates unit 0
    mlp.w1[0, 0] = mlp.w1[16, 0] = 0.0
    assert bias_only(mlp)
    mlp.w1[16, 0] = -0.0
    assert not bias_only(mlp)


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

"""Block-streamed expand and verify: the streamed paths write and compute
exactly what the whole-model paths do, while holding a fraction of it."""

import itertools
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lemon import (ExpansionPlan, ModelSpec, PlanError, ShapeError, expand_model,
                   model_forward, random_weights, read_checkpoint,
                   symmetry_report, verify_lossless, write_checkpoint)
from lemon.cli import main
from lemon.container import CheckpointReader, tensor_schema
from lemon.model import block_schema
from lemon.rng import substream
from lemon.verify import _draw_input


def payload_bytes(spec: ModelSpec, dtype) -> int:
    return sum(math.prod(e.shape) * e.dtype.itemsize for e in tensor_schema(spec, dtype))


GRID = [dict(style=style, depth_mode=mode, depth_source=source, dtype=dtype)
        for style, mode, source, dtype in itertools.product(
            ("pre_ln", "post_res_norm", "post_ln", "rms_pre"), ("type1", "type2"),
            ("self", "next"), (np.float32, np.float64))]
GRID += [dict(style="pre_ln", depth_mode="type2", depth_source="next", dtype=np.float64,
              tied_decoder=True),
         dict(style="rms_pre", depth_mode="type1", depth_source="self", dtype=np.float32,
              tied_decoder=True),
         dict(style="pre_ln", depth_mode="type2", depth_source="self", dtype=np.float64,
              input_kind="vision", vocab=9, patch_dim=6, num_patches=3),
         dict(style="post_res_norm", depth_mode="type1", depth_source="next",
              dtype=np.float32, input_kind="vision", vocab=9, patch_dim=6, num_patches=3)]


@pytest.mark.parametrize("case", GRID, ids=lambda c: "-".join(
    str(v.__name__ if isinstance(v, type) else v) for v in c.values()))
def test_streamed_bytes_equal_assembled_write(toy_spec, tmp_path, case, capsys):
    case = dict(case)
    dtype = case.pop("dtype")
    mode, source = case.pop("depth_mode"), case.pop("depth_source")
    spec = toy_spec(depth=3, eps=0.0 if case["style"] == "post_ln" else 1e-5, **case)
    w = random_weights(spec, substream(40, "grid"), dtype=dtype)
    width = 16 if spec.norm_style == "post_ln" else 12
    plan = ExpansionPlan(width, 7, depth_mode=mode, depth_source=source, seed=41)
    big_w, big_spec, dup = expand_model(w, spec, plan)
    write_checkpoint(big_w, big_spec, tmp_path / "assembled.lmn")
    assembled = (tmp_path / "assembled.lmn").read_bytes()
    none_w, streamed_spec, streamed_dup = expand_model(w, spec, plan,
                                                       out=tmp_path / "streamed.lmn")
    assert none_w is None and streamed_spec == big_spec and streamed_dup == dup
    assert (tmp_path / "streamed.lmn").read_bytes() == assembled
    # the CLI reads the source from a file, block by block
    write_checkpoint(w, spec, tmp_path / "small.lmn")
    assert main(["expand", "--in", str(tmp_path / "small.lmn"),
                 "--out", str(tmp_path / "cli.lmn"), "--target-width", str(width),
                 "--target-depth", "7", "--depth-mode", mode, "--depth-source", source,
                 "--seed", "41"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "cli.lmn").read_bytes() == assembled
    assert json.loads((tmp_path / "cli.lmn.duplicates.json").read_text()) == dup


def test_streamed_expand_holds_under_half_the_payload(toy_spec, tmp_path):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    w = random_weights(spec, substream(42, "mem"))
    plan = ExpansionPlan(128, 12, depth_mode="type2", seed=43)
    tracemalloc.start()
    try:
        _, big_spec, _ = expand_model(w, spec, plan, out=tmp_path / "big.lmn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * payload_bytes(big_spec, np.float64)


def test_deep_streamed_expand_holds_one_inserted_block_at_a_time(toy_spec, tmp_path):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    w = random_weights(spec, substream(42, "mem"))
    plan = ExpansionPlan(128, 16, depth_mode="type2", seed=43)
    tracemalloc.start()
    try:
        _, big_spec, _ = expand_model(w, spec, plan, out=tmp_path / "big.lmn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * payload_bytes(big_spec, np.float64)


@pytest.mark.parametrize("source", ("self", "next"))
@pytest.mark.parametrize("mode, bound", (("type1", 2.3), ("type2", 1.6)))
def test_streamed_expand_holds_under_two_widened_blocks(toy_spec, tmp_path, mode, bound,
                                                        source):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    w = random_weights(spec, substream(42, "mem"))
    plan = ExpansionPlan(96, 8, depth_mode=mode, depth_source=source, seed=43)
    tracemalloc.start()
    try:
        _, big_spec, _ = expand_model(w, spec, plan, out=tmp_path / "big.lmn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widened = sum(math.prod(e.shape) * e.dtype.itemsize
                  for e in block_schema(big_spec, 0, np.dtype(np.float64)))
    # type2: the inserted block being built and its temporaries (a split's
    # are one row block's); type1 also keeps the widened donor it copies.
    # A written carrier kept alive, or the next block widened before the
    # carrier is taken, adds a whole block
    assert peak < bound * widened


def test_verify_holds_under_half_the_big_payload(toy_spec, tmp_path):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    small = tmp_path / "small.lmn"
    write_checkpoint(random_weights(spec, substream(44, "mem")), spec, small)
    w, _ = read_checkpoint(small)
    _, big_spec, _ = expand_model(w, spec, ExpansionPlan(128, 12, seed=45),
                                  out=tmp_path / "big.lmn")
    del w
    tracemalloc.start()
    try:
        report = verify_lossless(small, tmp_path / "big.lmn", samples=4, seed=1, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5 * payload_bytes(big_spec, np.float64)


def test_cli_expand_reads_the_source_a_block_at_a_time(toy_spec, tmp_path, capsys):
    spec = toy_spec(depth=8, width=64, head_dim=16, ratio=4.0, vocab=50)
    small = tmp_path / "small.lmn"
    write_checkpoint(random_weights(spec, substream(48, "mem")), spec, small)
    argv = ["expand", "--in", str(small), "--out", str(tmp_path / "big.lmn"),
            "--target-width", "64", "--target-depth", "16", "--depth-mode", "type2"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding the whole source alone would take its whole payload
    assert peak < 0.8 * payload_bytes(spec, np.float64)


def test_verify_reads_the_small_model_a_block_at_a_time(toy_spec, tmp_path):
    spec = toy_spec(depth=8, width=64, head_dim=16, ratio=4.0, vocab=50)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    w = random_weights(spec, substream(49, "mem"))
    write_checkpoint(w, spec, small)
    expand_model(w, spec, ExpansionPlan(64, 16, seed=50), out=big)
    del w
    tracemalloc.start()
    try:
        report = verify_lossless(small, big, samples=4, seed=1, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5 * payload_bytes(spec, np.float64)


def test_expand_from_a_reader_of_another_spec_is_refused(toy_model, tmp_path):
    w, spec = toy_model(depth=2)
    write_checkpoint(w, spec, tmp_path / "small.lmn")
    with CheckpointReader(tmp_path / "small.lmn") as reader:
        with pytest.raises(PlanError, match="different model spec"):
            expand_model(reader, replace(spec, depth=3), ExpansionPlan(12, 4))


@pytest.mark.parametrize("threads", ("1", "3"))
def test_perturbed_carrier_fails_where_the_whole_model_does(toy_model, tmp_path,
                                                           monkeypatch, threads):
    monkeypatch.setenv("LEMON_THREADS", threads)
    w, spec = toy_model(depth=2, width=8)
    small = tmp_path / "small.lmn"
    write_checkpoint(w, spec, small)
    big_w, big_spec, dup = expand_model(w, spec, ExpansionPlan(12, 4, seed=46))
    carrier = dup["blocks"][1]["index"]
    big_w.blocks[carrier].mlp.w2[0, 0] += 1e-3
    big = tmp_path / "big.lmn"
    write_checkpoint(big_w, big_spec, big)

    report = verify_lossless(small, big, samples=5, seed=3, tol=1e-10)
    assert not report.passed
    for s in report.samples:
        x = _draw_input(spec, substream(3, "verify", s.index), 16)
        diff = np.abs(model_forward(x, big_w, big_spec) - model_forward(x, w, spec))
        pos = np.unravel_index(int(np.argmax(diff)), diff.shape)
        assert s.worst_position == tuple(int(p) for p in pos)
        assert s.abs_diff == float(diff[pos])


def test_symmetry_reads_only_the_mapped_projections(toy_model, tmp_path, monkeypatch):
    w, spec = toy_model(depth=2, width=8)
    big = tmp_path / "big.lmn"
    _, _, dup = expand_model(w, spec, ExpansionPlan(16, 4, seed=47), out=big)
    read = []
    real = CheckpointReader.tensor
    monkeypatch.setattr(CheckpointReader, "tensor",
                        lambda self, name: read.append(name) or real(self, name))
    entries = symmetry_report(big, dup)
    assert entries
    assert sorted(set(read)) == sorted(f"blocks.{b['index']}.{t}" for b in dup["blocks"]
                                       for t in ("attn.wo", "mlp.w2"))


class TestFailedExpandLeavesOutAlone:
    def test_unseparable_split_exits_2_and_keeps_out(self, toy_model, zero_normal,
                                                     tmp_path, monkeypatch, capsys):
        w, spec = toy_model(depth=1)
        small, out = tmp_path / "small.lmn", tmp_path / "out.lmn"
        write_checkpoint(w, spec, small)
        argv = ["expand", "--in", str(small), "--out", str(out), "--target-width", "16",
                "--target-depth", "2", "--depth-mode", "type2", "--policy", "net2net-equal"]
        assert main(argv) == 0
        before = out.read_bytes()
        files = sorted(os.listdir(tmp_path))
        monkeypatch.setattr("lemon.expander.substream", lambda *tags: zero_normal())
        assert main(argv) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == files

    def test_library_error_removes_the_temporary_file(self, toy_model, tmp_path):
        w, spec = toy_model(depth=1)
        w.blocks[0].mlp.b2 = w.blocks[0].mlp.b2.astype(np.float32)  # not the model dtype
        with pytest.raises(ShapeError, match="blocks.0.mlp.b2"):
            write_checkpoint(w, spec, tmp_path / "x.lmn")
        assert os.listdir(tmp_path) == []

    def test_nan_source_rejected_before_any_write(self, toy_model, tmp_path):
        w, spec = toy_model(depth=1)
        w.embedding.token_table[2, 3] = np.inf
        with pytest.raises(PlanError, match="embedding.token_table"):
            expand_model(w, spec, ExpansionPlan(12, 2), out=tmp_path / "x.lmn")
        assert os.listdir(tmp_path) == []

    def test_nan_in_the_last_source_block_exits_2_and_keeps_out(self, toy_model, tmp_path,
                                                                capsys):
        w, spec = toy_model(depth=3)
        small, out = tmp_path / "small.lmn", tmp_path / "out.lmn"
        write_checkpoint(w, spec, small)
        argv = ["expand", "--in", str(small), "--out", str(out), "--target-width", "12",
                "--target-depth", "6", "--depth-mode", "type2"]
        assert main(argv) == 0
        before = out.read_bytes()
        files = sorted(os.listdir(tmp_path))
        w.blocks[2].mlp.w2[1, 3] = np.nan
        write_checkpoint(w, spec, small)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "source tensor blocks.2.mlp.w2 holds NaN" in err
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == files

"""Block-streamed expand and verify: expand writes the file a whole-model
write makes, and verify computes what the whole-model forward pass does,
while each holds a fraction of the model."""

import hashlib
import itertools
import json
from collections import Counter
import math
import os
import tracemalloc

import numpy as np
import pytest

from lemon import (ExpansionPlan, ModelSpec, PlanError, ShapeError, expand_model,
                   model_forward, random_weights, read_checkpoint,
                   symmetry_report, verify_lossless, write_checkpoint)
from lemon.cli import main
from lemon.container import CheckpointReader, tensor_schema
from lemon.model import (attention_schema, block_schema, decoder_schema,
                         embedding_schema, flat_arrays, mlp_schema)
from lemon.rng import substream
from lemon.verify import _draw_input


def payload_bytes_of(schema) -> int:
    return sum(math.prod(e.shape) * e.dtype.itemsize for e in schema)


def payload_bytes(spec: ModelSpec, dtype) -> int:
    return payload_bytes_of(tensor_schema(spec, dtype))


def written(w, spec: ModelSpec, path) -> CheckpointReader:
    """``w`` written to ``path`` as a checkpoint, open for reading."""
    write_checkpoint(w, spec, path)
    return CheckpointReader(path)


def traced_expand(reader: CheckpointReader, plan: ExpansionPlan, out):
    """``expand_model``'s target spec and its tracemalloc peak."""
    tracemalloc.start()
    try:
        big_spec, _ = expand_model(reader, plan, out)
        return big_spec, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    with written(w, spec, tmp_path / "small.lmn") as reader:
        big_spec, dup = expand_model(reader, plan, tmp_path / "streamed.lmn")
    streamed = (tmp_path / "streamed.lmn").read_bytes()
    # placed tensor by tensor in build order, the file is the one a
    # whole-model write of the same weights makes
    write_checkpoint(*read_checkpoint(tmp_path / "streamed.lmn"), tmp_path / "assembled.lmn")
    assert (tmp_path / "assembled.lmn").read_bytes() == streamed
    assert main(["expand", "--in", str(tmp_path / "small.lmn"),
                 "--out", str(tmp_path / "cli.lmn"), "--target-width", str(width),
                 "--target-depth", "7", "--depth-mode", mode, "--depth-source", source,
                 "--seed", "41"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "cli.lmn").read_bytes() == streamed
    assert json.loads((tmp_path / "cli.lmn.duplicates.json").read_text()) == dup


# sha256 of the checkpoint and of its duplicate map for tiny CLI expands (3
# -> 7 blocks, seed 41), one per norm style, each insert kind, depth source
# and dtype, with numpy's generators as they draw today.  GRID compares two
# paths of the same code, so a change that alters the bytes of both passes
# it; these pins do not.  Regenerate them only for an intended byte change,
# and record that change in CHANGES.md.
PINNED = {
    ("pre_ln", "type1", "self", "f64"):
        ("02409f619ab89e1295ccecbf041b59f12ccd208899f74d3b0aa56b32a0441334",
         "a445e425dd6f7ff5ef3b931a34db6699dab8804ec4847fec702b34e4479d31b0"),
    ("pre_ln", "type2", "next", "f32"):
        ("bb5259bf5e7e11d7bb0dafc4d68c988f105b33e92b0d48b1df94f5956906104b",
         "a445e425dd6f7ff5ef3b931a34db6699dab8804ec4847fec702b34e4479d31b0"),
    ("post_res_norm", "type1", "next", "f64"):
        ("6dfa6d825d3ef100412295f20a64920846aac02ed38f08a4ba355e2c5bd38ef9",
         "a445e425dd6f7ff5ef3b931a34db6699dab8804ec4847fec702b34e4479d31b0"),
    ("post_res_norm", "type2", "self", "f32"):
        ("0e6892f484d1255fe294b758e30f55da9e8fe0397deec1be01d82d89880a8bb5",
         "a445e425dd6f7ff5ef3b931a34db6699dab8804ec4847fec702b34e4479d31b0"),
    ("post_ln", "type1", "self", "f32"):
        ("53389c2e0b62f507ea81758b373aff8f261ac0bcd6da4b6f84ccfe701dd1f216",
         "306be6be567667a9873e6c2b566fd425e517c385196dd4347ba48b058b13b438"),
    ("post_ln", "type2", "next", "f64"):
        ("a56e6a3d29ccdb09d25a0555d97712ed331e9171dbfa5948dd8a5a50bc66bec7",
         "306be6be567667a9873e6c2b566fd425e517c385196dd4347ba48b058b13b438"),
    ("rms_pre", "type1", "next", "f32"):
        ("d44aeefe692f460bcdc8f86194147b1356623edffdbc4354f627bcd4443c76a7",
         "a445e425dd6f7ff5ef3b931a34db6699dab8804ec4847fec702b34e4479d31b0"),
    ("rms_pre", "type2", "self", "f64"):
        ("d1180eaabe86876da6aca33502e9f9a54b293c258516becf1c1e9a79cf87970d",
         "a445e425dd6f7ff5ef3b931a34db6699dab8804ec4847fec702b34e4479d31b0"),
}


@pytest.mark.parametrize("case", PINNED, ids="-".join)
def test_expand_bytes_are_pinned(toy_spec, tmp_path, case, capsys):
    style, mode, source, dtype = case
    spec = toy_spec(style=style, depth=3, eps=0.0 if style == "post_ln" else 1e-5)
    w = random_weights(spec, substream(40, "pinned"),
                       dtype=np.float32 if dtype == "f32" else np.float64)
    write_checkpoint(w, spec, tmp_path / "small.lmn")
    width = 16 if style == "post_ln" else 12
    assert main(["expand", "--in", str(tmp_path / "small.lmn"),
                 "--out", str(tmp_path / "big.lmn"), "--target-width", str(width),
                 "--target-depth", "7", "--depth-mode", mode, "--depth-source", source,
                 "--seed", "41"]) == 0
    assert capsys.readouterr().err == ""
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("big.lmn", "big.lmn.duplicates.json")) == PINNED[case]


def test_streamed_expand_holds_under_half_the_payload(toy_spec, tmp_path):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    w = random_weights(spec, substream(42, "mem"))
    plan = ExpansionPlan(128, 12, depth_mode="type2", seed=43)
    with written(w, spec, tmp_path / "small.lmn") as reader:
        big_spec, peak = traced_expand(reader, plan, tmp_path / "big.lmn")
    assert peak < 0.5 * payload_bytes(big_spec, np.float64)


def test_deep_streamed_expand_holds_one_inserted_block_at_a_time(toy_spec, tmp_path):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    w = random_weights(spec, substream(42, "mem"))
    plan = ExpansionPlan(128, 16, depth_mode="type2", seed=43)
    with written(w, spec, tmp_path / "small.lmn") as reader:
        big_spec, peak = traced_expand(reader, plan, tmp_path / "big.lmn")
    assert peak < 0.3 * payload_bytes(big_spec, np.float64)


@pytest.mark.parametrize("source", ("self", "next"))
@pytest.mark.parametrize("mode, bound", (("type1", 2.3), ("type2", 1.6)))
def test_streamed_expand_holds_under_two_widened_blocks(toy_spec, tmp_path, mode, bound,
                                                        source):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    w = random_weights(spec, substream(42, "mem"))
    plan = ExpansionPlan(96, 8, depth_mode=mode, depth_source=source, seed=43)
    with written(w, spec, tmp_path / "small.lmn") as reader:
        big_spec, peak = traced_expand(reader, plan, tmp_path / "big.lmn")
    widened = sum(math.prod(e.shape) * e.dtype.itemsize
                  for e in block_schema(big_spec, 0, np.dtype(np.float64)))
    # type2: the inserted block being built and its temporaries (a split's
    # are one row block's); type1 also keeps the widened donor it copies.
    # A written carrier kept alive, or the next block widened before the
    # carrier is taken, adds a whole block
    assert peak < bound * widened


@pytest.mark.parametrize("style, mode, source", [
    *itertools.product(("pre_ln",), ("type1", "type2"), ("self", "next")),
    ("post_res_norm", "type1", "self"), ("post_res_norm", "type1", "next"),
    ("post_ln", "type1", "self"), ("rms_pre", "type1", "next")])
def test_streamed_expand_holds_one_grown_tensor_at_a_time(toy_spec, tmp_path, style, mode,
                                                          source):
    spec = toy_spec(style=style, depth=4, width=64, head_dim=32, ratio=4.0, vocab=50,
                    eps=0.0 if style == "post_ln" else 1e-5)
    write_checkpoint(random_weights(spec, substream(42, "mem")), spec, tmp_path / "small.lmn")
    plan = ExpansionPlan(256, 8, depth_mode=mode, depth_source=source, seed=43)
    with CheckpointReader(tmp_path / "small.lmn") as reader:
        big_spec, peak = traced_expand(reader, plan, tmp_path / "big.lmn")
    f64 = np.dtype(np.float64)
    tensor = max(payload_bytes_of([e]) for e in tensor_schema(big_spec, f64))
    source = payload_bytes_of(block_schema(spec, 0, f64))
    # one source block, the largest grown tensor (an MLP matrix, 2.1 MB)
    # and a margin of half of it for the split temporaries of one row
    # block and the tensor tables, for every insert kind and depth source
    # (measured: 1.31-1.38 of it).  Two grown matrices held at once (w1
    # while w2 is built, or a widened module kept while its copies are
    # written) exceed both bounds, and so do zeros allocated while the
    # output projection they replace is still held, and a source block
    # kept past its group
    assert peak < source + 1.5 * tensor
    assert peak < payload_bytes_of(mlp_schema(big_spec, 0, f64))


def test_verify_holds_under_half_the_big_payload(toy_spec, tmp_path):
    spec = toy_spec(depth=4, width=64, head_dim=16, ratio=4.0, vocab=50)
    small = tmp_path / "small.lmn"
    write_checkpoint(random_weights(spec, substream(44, "mem")), spec, small)
    with CheckpointReader(small) as reader:
        big_spec, _ = expand_model(reader, ExpansionPlan(128, 12, seed=45),
                                   tmp_path / "big.lmn")
    tracemalloc.start()
    try:
        report = verify_lossless(small, tmp_path / "big.lmn", samples=4, seed=1, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5 * payload_bytes(big_spec, np.float64)


@pytest.mark.parametrize("threads", ("1", "2"))
@pytest.mark.parametrize("mode", ("type1", "type2"))
def test_verify_holds_one_big_module_at_a_time(toy_spec, tmp_path, monkeypatch, mode,
                                               threads):
    monkeypatch.setenv("LEMON_THREADS", threads)
    spec = toy_spec(depth=4, width=64, head_dim=32, ratio=4.0, vocab=50)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    with written(random_weights(spec, substream(44, "mem")), spec, small) as reader:
        big_spec, _ = expand_model(reader, ExpansionPlan(256, 12, depth_mode=mode, seed=45),
                                   big)
    tracemalloc.start()
    try:
        report = verify_lossless(small, big, samples=4, seed=1, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    f64 = np.dtype(np.float64)
    module = max(payload_bytes_of(attention_schema(big_spec, 0, f64)),
                 payload_bytes_of(mlp_schema(big_spec, 0, f64)))
    # the largest module (the MLP, 4.2 MB), and a margin of 0.4 of it for
    # both tensor tables, the samples' streams and one sample's
    # activations; a whole block (6.3 MB) held at once exceeds both bounds.
    # Each further thread holds one more sample's activations: its hidden
    # layer (16 x 1024 values) and gelu's temporaries, four such arrays
    # (measured: 0.41-0.46 MB a thread)
    activations = 4 * 16 * big_spec.hidden_dim * f64.itemsize
    assert peak < 1.4 * module + (int(threads) - 1) * activations
    assert peak < payload_bytes_of(block_schema(big_spec, 0, f64))


def counted_reads(monkeypatch) -> Counter:
    """A counter of (checkpoint path, tensor name) over every tensor read."""
    read = Counter()
    real = CheckpointReader.tensor
    monkeypatch.setattr(CheckpointReader, "tensor", lambda self, name, out=None: (
        read.update([(self.path, name)]) or real(self, name, out)))
    return read


@pytest.mark.parametrize("kw", (dict(), dict(tied_decoder=True), dict(style="rms_pre"),
                                dict(style="post_ln"),
                                dict(input_kind="vision", patch_dim=6, num_patches=3)),
                         ids=("pre_ln", "tied", "rms_pre", "post_ln", "vision"))
def test_reader_parts_read_each_of_their_tensors_once(toy_model, tmp_path, monkeypatch, kw):
    w, spec = toy_model(depth=2, **kw)
    path = tmp_path / "m.lmn"
    write_checkpoint(w, spec, path)
    read = counted_reads(monkeypatch)
    with CheckpointReader(path) as reader:
        dt = reader.dtype
        scratch = [np.empty(n, np.uint8) for n in reader.module_bytes()]
        parts = [(reader.embedding, embedding_schema(spec, dt)),
                 (reader.decoder, decoder_schema(spec, dt)),
                 (reader.shell, itertools.chain(embedding_schema(spec, dt),
                                                decoder_schema(spec, dt)))]
        for i in range(spec.depth):
            parts += [(lambda i=i: reader.attention(i), attention_schema(spec, i, dt)),
                      (lambda i=i: reader.attention(i, scratch), attention_schema(spec, i, dt)),
                      (lambda i=i: reader.mlp(i), mlp_schema(spec, i, dt)),
                      (lambda i=i: reader.mlp(i, scratch), mlp_schema(spec, i, dt)),
                      (lambda i=i: reader.block(i), block_schema(spec, i, dt))]
        for read_part, schema in parts:
            schema = list(schema)
            read.clear()
            part = read_part()
            got = flat_arrays(list(part) if isinstance(part, tuple) else part)
            assert read == Counter((reader.path, e.name) for e in schema)
            want = [reader.tensor(e.name) for e in schema]
            assert all(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
                       for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("tied", (False, True))
def test_verify_reads_every_tensor_once(toy_model, tmp_path, monkeypatch, tied):
    w, spec = toy_model(depth=2, tied_decoder=tied)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    with written(w, spec, small) as reader:
        big_spec, _ = expand_model(reader, ExpansionPlan(12, 4, seed=51), big)
    read = counted_reads(monkeypatch)
    assert verify_lossless(small, big, samples=2, seed=1, tol=1e-10).passed
    for path, s in ((small, spec), (big, big_spec)):
        want = Counter((str(path), e.name) for e in tensor_schema(s, np.float64))
        if tied:  # the decoder rereads the table the embedding dropped
            want[(str(path), "embedding.token_table")] += 1
        assert Counter({k: n for k, n in read.items() if k[0] == str(path)}) == want


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
    with written(random_weights(spec, substream(49, "mem")), spec, small) as reader:
        expand_model(reader, ExpansionPlan(64, 16, seed=50), big)
    tracemalloc.start()
    try:
        report = verify_lossless(small, big, samples=4, seed=1, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5 * payload_bytes(spec, np.float64)


@pytest.mark.parametrize("threads", ("1", "3"))
def test_perturbed_carrier_fails_where_the_whole_model_does(toy_model, tmp_path,
                                                           monkeypatch, threads, expanded):
    monkeypatch.setenv("LEMON_THREADS", threads)
    w, spec = toy_model(depth=2, width=8)
    small = tmp_path / "small.lmn"
    write_checkpoint(w, spec, small)
    big_w, big_spec, dup = expanded(w, spec, ExpansionPlan(12, 4, seed=46))
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
    with written(w, spec, tmp_path / "small.lmn") as reader:
        _, dup = expand_model(reader, ExpansionPlan(16, 4, seed=47), big)
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
        out = tmp_path / "out"
        out.mkdir()
        with written(w, spec, tmp_path / "small.lmn") as reader:
            with pytest.raises(PlanError, match="embedding.token_table"):
                expand_model(reader, ExpansionPlan(12, 2), out / "x.lmn")
        assert os.listdir(out) == []

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

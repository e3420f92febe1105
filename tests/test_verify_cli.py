import contextlib
import io
import json
import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemon import (ExpansionPlan, MalformedHeaderError, expand_model, model_forward,
                   read_checkpoint, read_header, symmetry_report, verify_lossless,
                   write_checkpoint)
from lemon import cli
from lemon.cli import main
from lemon.rng import substream
from lemon.verify import _draw_input

CFG = {"norm_style": "pre_ln", "depth": 2, "width": 8, "head_dim": 4,
       "mlp_ratio": 2.0, "vocab_or_classes": 11, "eps": 1e-5, "dtype": "float64"}


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    small = tmp_path / "small.lmn"
    assert main(["init-random", "--config", str(cfg), "--out", str(small),
                 "--seed", "1"]) == 0
    return tmp_path, cfg, small


def expand_cli(tmp_path, small, name="big.lmn", policy="lemon", **kw):
    big = tmp_path / name
    argv = ["expand", "--in", str(small), "--out", str(big),
            "--target-width", str(kw.get("width", 20)),
            "--target-depth", str(kw.get("depth", 5)),
            "--policy", policy, "--depth-mode", kw.get("mode", "type2"),
            "--seed", str(kw.get("seed", 7))]
    assert main(argv) == 0
    return big


class TestInitRandom:
    def test_deterministic_files(self, workdir):
        tmp_path, cfg, small = workdir
        other = tmp_path / "small2.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(other),
                     "--seed", "1"]) == 0
        assert small.read_bytes() == other.read_bytes()

    def test_seed_changes_file(self, workdir):
        tmp_path, cfg, small = workdir
        other = tmp_path / "small3.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(other),
                     "--seed", "2"]) == 0
        assert small.read_bytes() != other.read_bytes()

    def test_invalid_spec_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**CFG, "width": 10}))  # 10 % 4 != 0
        assert main(["init-random", "--config", str(cfg),
                     "--out", str(tmp_path / "x.lmn"), "--seed", "0"]) == 2

    def test_generated_model_runs(self, workdir):
        _, _, small = workdir
        w, spec = read_checkpoint(small)
        out = model_forward(np.array([1, 2, 3]), w, spec)
        assert out.shape == (3, 11)


class TestVerify:
    def test_self_verification_is_exact(self, workdir):
        _, _, small = workdir
        report = verify_lossless(small, small, samples=4, seed=0, tol=1e-10)
        assert report.max_abs_diff == 0.0
        assert report.passed

    def test_expanded_pair_passes(self, workdir):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small)
        assert main(["verify", "--small", str(small), "--big", str(big),
                     "--samples", "8", "--seed", "3", "--tol", "1e-10"]) == 0

    def test_perturbed_weight_fails_with_location(self, workdir):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small)
        w, spec = read_checkpoint(big)
        w.blocks[0].mlp.w2[0, 0] += 1e-3
        write_checkpoint(w, spec, big)
        report = verify_lossless(small, big, samples=8, seed=3, tol=1e-10)
        assert not report.passed
        assert all(len(s.worst_position) == 2 for s in report.samples)
        assert main(["verify", "--small", str(small), "--big", str(big),
                     "--samples", "8", "--seed", "3", "--tol", "1e-10"]) == 1

    def test_incompatible_specs_usage_error(self, workdir, tmp_path):
        tmp_path_, cfg, small = workdir
        other_cfg = tmp_path_ / "other.json"
        other_cfg.write_text(json.dumps({**CFG, "vocab_or_classes": 7}))
        other = tmp_path_ / "other.lmn"
        assert main(["init-random", "--config", str(other_cfg), "--out",
                     str(other), "--seed", "1"]) == 0
        assert main(["verify", "--small", str(small), "--big", str(other)]) == 2

    def test_report_is_seed_deterministic(self, workdir):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small)
        a = verify_lossless(small, big, samples=6, seed=11, tol=1e-10)
        b = verify_lossless(small, big, samples=6, seed=11, tol=1e-10)
        assert a == b

    def test_threads_env_does_not_change_report(self, workdir, monkeypatch):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small)
        base = verify_lossless(small, big, samples=6, seed=11, tol=1e-10)
        monkeypatch.setenv("LEMON_THREADS", "4")
        assert verify_lossless(small, big, samples=6, seed=11, tol=1e-10) == base

    def test_default_tol_follows_float64(self, workdir, capsys):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small)
        assert main(["verify", "--small", str(small), "--big", str(big),
                     "--samples", "4"]) == 0
        assert "(tol 1e-10)" in capsys.readouterr().out

    def test_float32_pair_passes_without_tol(self, tmp_path, capsys):
        cfg = tmp_path / "f32.json"
        cfg.write_text(json.dumps({**CFG, "dtype": "float32"}))
        small = tmp_path / "small32.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(small),
                     "--seed", "1"]) == 0
        big = expand_cli(tmp_path, small, name="big32.lmn")
        argv = ["verify", "--small", str(small), "--big", str(big), "--samples", "8"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(tol 1e-05)" in out and out.endswith("PASS\n")
        assert main(argv + ["--tol", "1e-12"]) == 1  # an explicit --tol wins

    def test_corrupted_token_row_no_sample_reads_fails(self, toy_model, tmp_path, capsys):
        w, spec = toy_model(depth=2, width=16, vocab=1000)
        small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
        write_checkpoint(w, spec, small)
        big_w, big_spec, _ = expand_model(w, spec, ExpansionPlan(24, 4, seed=5))
        read = set()
        for i in range(32):  # the CLI's default samples, seed and sequence length
            read.update(_draw_input(spec, substream(0, "verify", i), 16).tolist())
        unread = min(set(range(1000)) - read)
        big_w.embedding.token_table[unread] += 5.0
        write_checkpoint(big_w, big_spec, big)
        assert main(["verify", "--small", str(small), "--big", str(big)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["embedding max_abs_diff 5.000000e+00 over every token row",
                              "FAIL"]
        assert float(lines[0].split()[1]) < 1e-10  # the samples alone would pass

    def test_narrower_big_model_usage_error(self, toy_model, tmp_path, capsys):
        small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
        write_checkpoint(*toy_model(width=16), small)
        write_checkpoint(*toy_model(width=8), big)
        assert main(["verify", "--small", str(small), "--big", str(big)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "big width 8 is no expansion of small width 16" in err

    def test_missing_file_io_error(self, workdir):
        _, _, small = workdir
        assert main(["verify", "--small", str(small), "--big", "/nope.lmn"]) == 3

    @pytest.mark.parametrize("flag", ["--samples", "--seq-len"])
    def test_zero_size_run_usage_error(self, workdir, capsys, flag):
        _, _, small = workdir
        assert main(["verify", "--small", str(small), "--big", str(small),
                     flag, "0"]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1


class TestSymmetryCommand:
    def test_lemon_groups_positive(self, workdir, capsys):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small, policy="lemon")
        dup = json.loads((tmp_path / "big.lmn.duplicates.json").read_text())
        entries = symmetry_report(big, dup)
        # every replicated fan-out pair is separated by the guaranteed margin
        assert entries and all(e["min_distance"] > 1e-6 * 0.02 for e in entries)
        assert main(["symmetry", "--ckpt", str(big)]) == 0
        assert "min_distance" in capsys.readouterr().out

    def test_net2net_groups_exactly_zero(self, workdir):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small, name="eq.lmn", policy="net2net-equal")
        dup = json.loads((tmp_path / "eq.lmn.duplicates.json").read_text())
        entries = symmetry_report(big, dup)
        assert entries and all(e["min_distance"] == 0.0 for e in entries)

    def test_unexpanded_model_empty_report(self, workdir, capsys):
        _, _, small = workdir
        assert main(["symmetry", "--ckpt", str(small)]) == 0
        assert "empty report" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [
        {"mlp_hidden_groups": {"0": [0, 16]}},
        {"index": 0, "mlp_hidden_groups": {"0": [0, 999]}},
        {"index": 0, "attn_head_groups": {"0": [0]}},
    ], ids=["no-index", "member-out-of-range", "group-of-one"])
    def test_malformed_map_usage_error(self, workdir, capsys, entry):
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "blocks": [entry]}))
        assert main(["symmetry", "--ckpt", str(big), "--map", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duplicate map") and err.count("\n") == 1

    def test_missing_map_is_io_error(self, workdir):
        _, _, small = workdir
        assert main(["symmetry", "--ckpt", str(small),
                     "--map", "/missing.json"]) == 3


class TestOtherCommands:
    def test_schedule_explicit_flags(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["schedule", "--max-lr", "1e-3", "--min-lr", "1e-5",
                     "--total", "10", "--warmup", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,lr" and len(lines) == 12

    def test_schedule_preset(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["schedule", "--preset", "vit-expanded", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 132

    def test_schedule_missing_flags_usage_error(self, tmp_path):
        assert main(["schedule", "--max-lr", "1e-3",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_inspect(self, workdir, capsys):
        _, _, small = workdir
        assert main(["inspect", str(small)]) == 0
        out = capsys.readouterr().out
        assert "embedding.token_table" in out and "payload bytes" in out

    def test_inspect_reads_only_the_header(self, workdir, monkeypatch):
        _, _, small = workdir
        reads = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                reads.append(len(data))
                return data

        monkeypatch.setattr(cli, "open", lambda path, mode: CountingFile(path, "r"),
                            raising=False)
        assert main(["inspect", str(small)]) == 0
        _, table = read_header(small.read_bytes())
        assert 0 < sum(reads) <= table[0]["byte_offset"]

    def test_inspect_truncated_payload_io_error(self, workdir, capsys):
        tmp_path, _, small = workdir
        cut = tmp_path / "cut.lmn"
        cut.write_bytes(small.read_bytes()[:-16])
        assert main(["inspect", str(cut)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_inspect_bad_file(self, tmp_path):
        bad = tmp_path / "bad.lmn"
        bad.write_bytes(b"not a container")
        assert main(["inspect", str(bad)]) == 3

    def test_expand_post_ln_indivisible_usage_error(self, tmp_path):
        cfg = tmp_path / "pl.json"
        cfg.write_text(json.dumps({**CFG, "norm_style": "post_ln", "eps": 0.0}))
        small = tmp_path / "pl.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(small),
                     "--seed", "1"]) == 0
        assert main(["expand", "--in", str(small), "--out",
                     str(tmp_path / "o.lmn"), "--target-width", "12",
                     "--target-depth", "2"]) == 2

    def test_expand_is_deterministic_at_file_level(self, workdir):
        tmp_path, _, small = workdir
        a = expand_cli(tmp_path, small, name="a.lmn", seed=5)
        b = expand_cli(tmp_path, small, name="b.lmn", seed=5)
        assert a.read_bytes() == b.read_bytes()


class TestExpandContract:
    ARGV = ["--target-width", "16", "--target-depth", "4", "--seed", "3"]

    def expand(self, small, out):
        return main(["expand", "--in", str(small), "--out", str(out), *self.ARGV])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_usage_error(self, workdir, capsys, value):
        tmp_path, _, small = workdir
        w, spec = read_checkpoint(small)
        w.blocks[1].mlp.w2[3, 2] = value
        write_checkpoint(w, spec, small)
        assert self.expand(small, tmp_path / "big.lmn") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "blocks.1.mlp.w2" in err and "NaN or Inf" in err
        assert not (tmp_path / "big.lmn").exists()

    @pytest.mark.parametrize("eps,depth,warns", [(1e-5, "4", True), (0.0, "4", False),
                                                 (1e-5, "2", False)])
    def test_post_ln_depth_growth_with_eps_warns(self, tmp_path, capsys, eps, depth, warns):
        cfg = tmp_path / "pl.json"
        cfg.write_text(json.dumps({**CFG, "norm_style": "post_ln", "eps": eps}))
        small = tmp_path / "pl.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(small)]) == 0
        capsys.readouterr()
        assert main(["expand", "--in", str(small), "--out", str(tmp_path / "o.lmn"),
                     "--target-width", "16", "--target-depth", depth]) == 0
        err = capsys.readouterr().err
        assert (err.startswith("warning: ") and err.count("\n") == 1) == warns
        assert warns or err == ""

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_out_that_is_not_a_regular_file_io_error(self, workdir, capsys, kind):
        tmp_path, _, small = workdir
        out = tmp_path / "special"
        os.mkfifo(out) if kind == "fifo" else out.mkdir()
        files = sorted(os.listdir(tmp_path))
        assert self.expand(small, out) == 3
        assert "not a regular file" in capsys.readouterr().err
        mode = os.lstat(out).st_mode
        assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISDIR(mode)
        assert sorted(os.listdir(tmp_path)) == files

    def test_symlinked_out_is_written_through(self, workdir):
        tmp_path, _, small = workdir
        target, link = tmp_path / "target.lmn", tmp_path / "link.lmn"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert self.expand(small, link) == 0
        assert self.expand(small, tmp_path / "direct.lmn") == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "direct.lmn").read_bytes()

    def test_new_file_gets_umask_permissions(self, workdir):
        tmp_path, _, small = workdir
        old = os.umask(0o027)
        try:
            assert self.expand(small, tmp_path / "big.lmn") == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "big.lmn").st_mode) == 0o640

    def test_existing_out_is_replaced(self, workdir):
        tmp_path, _, small = workdir
        out = tmp_path / "big.lmn"
        out.write_bytes(b"x" * 10_000)
        assert self.expand(small, out) == 0
        w, spec = read_checkpoint(out)
        assert (spec.width, spec.depth) == (16, 4)

    @pytest.mark.parametrize("existing", [False, True])
    def test_sidecar_that_is_a_directory_io_error_before_any_write(
            self, workdir, capsys, existing):
        tmp_path, _, small = workdir
        out = tmp_path / "big.lmn"
        if existing:
            assert self.expand(small, out) == 0
            os.remove(f"{out}.duplicates.json")
            before = out.read_bytes()
        os.mkdir(f"{out}.duplicates.json")
        files = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert self.expand(small, out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a regular file" in err
        assert out.read_bytes() == before if existing else not out.exists()
        assert sorted(os.listdir(tmp_path)) == files

    def test_sidecar_is_the_indented_duplicate_map(self, workdir):
        tmp_path, _, small = workdir
        out = tmp_path / "big.lmn"
        assert self.expand(small, out) == 0
        w, spec = read_checkpoint(small)
        _, _, dup = expand_model(w, spec, ExpansionPlan(16, 4, seed=3))
        assert (tmp_path / "big.lmn.duplicates.json").read_bytes() == \
            json.dumps(dup, indent=1).encode()
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


#: spec values for the init-random property: small finite ones, huge
#: finite ones (floats, and ints beyond any allocation, some a multiple
#: of head_dim 4), infinities and NaN
_HUGE = (st.floats(1e15, 1e308) | st.integers(10**15, 10**400)
         | st.integers(10**15, 10**40).map(lambda n: 4 * n))
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


class TestInitRandomExitCodes:
    """init-random exits 0, 2 or 3 on any spec value, with at most one
    line of error and never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(mlp_ratio=st.floats(-1.0, 4.0) | _HUGE | _NON_FINITE,
           eps=st.floats(-1e-3, 1.0) | _HUGE | _NON_FINITE,
           width=st.integers(-4, 32) | _HUGE | _NON_FINITE)
    def test_exit_code_is_documented(self, mlp_ratio, eps, width):
        cfg = {**CFG, "mlp_ratio": mlp_ratio, "eps": eps, "width": width}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["init-random", "--config", path,
                             "--out", os.path.join(d, "x.lmn")])
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") == (code != 0)

    @pytest.mark.parametrize("field,value", [("mlp_ratio", math.inf), ("mlp_ratio", 1e308),
                                             ("mlp_ratio", math.nan), ("eps", math.nan),
                                             ("eps", math.inf), ("width", 8.0)])
    def test_non_finite_or_non_integer_config_usage_error(self, tmp_path, capsys,
                                                          field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CFG, field: value}))
        out = tmp_path / "x.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err
        assert not out.exists()

    def test_width_too_large_for_a_float_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CFG, "width": 10**400}))
        out = tmp_path / "x.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("width does not fit in a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("mlp_ratio", math.inf), ("mlp_ratio", math.nan),
                                             ("eps", math.nan), ("eps", -math.inf)])
    def test_non_finite_header_is_malformed(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        # long enough values that "-Infinity" fits in their place
        cfg.write_text(json.dumps({**CFG, "mlp_ratio": 2.000000001, "eps": 1.2345678e-05}))
        small = tmp_path / "small.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(small)]) == 0
        blob = small.read_bytes()
        head_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + head_len])
        header["model_spec"][field] = value
        new = json.dumps(header, separators=(",", ":")).encode()
        # keep the header length, so every tensor offset stays valid
        assert len(new) <= head_len
        small.write_bytes(blob[:16] + new.ljust(head_len) + blob[16 + head_len:])
        with pytest.raises(MalformedHeaderError, match=field):
            read_checkpoint(small)
        capsys.readouterr()
        for argv in (["verify", "--small", str(small), "--big", str(small)],
                     ["inspect", str(small)]):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and field in err

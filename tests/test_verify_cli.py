import contextlib
import functools
import io
import json
import math
import os
import stat
import struct
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lemon import (ExpansionPlan, MalformedHeaderError, model_forward,
                   read_checkpoint, read_header, symmetry_report, verify_lossless,
                   write_checkpoint)
from lemon import cli, container, kernels, verify
from lemon.cli import main
from lemon.container import ALIGNMENT, _PREFIX
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

    @pytest.mark.parametrize("style", ("pre_ln", "post_ln", "post_res_norm"))
    def test_width_one_layernorm_with_eps_zero_is_refused(self, tmp_path, capsys, style):
        # every norm of it would divide by the variance of one value, 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CFG, "norm_style": style, "width": 1, "head_dim": 1,
                                   "eps": 0.0}))
        assert main(["init-random", "--config", str(cfg),
                     "--out", str(tmp_path / "m.lmn")]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "m.lmn").exists()

    @pytest.mark.parametrize("style, eps", (("pre_ln", 1e-5), ("rms_pre", 0.0)))
    def test_width_one_with_eps_or_rms_expands_and_verifies(self, tmp_path, style, eps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CFG, "norm_style": style, "width": 1, "head_dim": 1,
                                   "eps": eps}))
        small = tmp_path / "small.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(small)]) == 0
        big = expand_cli(tmp_path, small, width=3, depth=3)
        assert main(["verify", "--small", str(small), "--big", str(big)]) == 0

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

    def test_corrupted_token_row_no_sample_reads_fails(self, toy_model, tmp_path, capsys,
                                                       expanded):
        w, spec = toy_model(depth=2, width=16, vocab=1000)
        small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
        write_checkpoint(w, spec, small)
        big_w, big_spec, _ = expanded(w, spec, ExpansionPlan(24, 4, seed=5))
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

    def test_overflowing_norm_input_is_an_error_not_pass(self, workdir, capsys):
        # every token row's variance overflows in the first layernorm, which
        # would otherwise return its beta and make both sides agree
        _, _, small = workdir
        w, spec = read_checkpoint(small)
        w.embedding.token_table[:, 1:] = 1e200
        write_checkpoint(w, spec, small)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--small", str(small), "--big", str(small),
                         "--samples", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "layernorm" in err

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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_must_be_finite_and_non_negative(self, workdir, capsys, tol):
        # nan and -1 would FAIL every pair, inf would PASS every pair
        _, _, small = workdir
        assert main(["verify", "--small", str(small), "--big", str(small),
                     "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "--tol" in err and err.count("\n") == 1


class TestSeedRange:
    """Every command that takes ``--seed`` rejects one outside 64 unsigned
    bits, which the random streams would otherwise wrap to another seed."""

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    @pytest.mark.parametrize("command", ["init-random", "verify", "expand"])
    def test_seed_outside_64_bits_usage_error(self, workdir, capsys, command, seed):
        tmp_path, cfg, small = workdir
        out = tmp_path / "out.lmn"
        argv = {"init-random": ["--config", str(cfg), "--out", str(out)],
                "verify": ["--small", str(small), "--big", str(small)],
                "expand": ["--in", str(small), "--out", str(out),
                           "--target-width", "12", "--target-depth", "3"]}[command]
        capsys.readouterr()
        assert main([command, *argv, "--seed", seed]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == "error: seed must fit in 64 unsigned bits\n"
        assert not out.exists()

    def test_largest_seed_is_its_own(self, workdir):
        tmp_path, cfg, _ = workdir
        paths = [tmp_path / f"{n}.lmn" for n in ("top", "zero")]
        for seed, path in zip([str(2**64 - 1), "0"], paths):
            assert main(["init-random", "--config", str(cfg), "--out", str(path),
                         "--seed", seed]) == 0
        assert paths[0].read_bytes() != paths[1].read_bytes()


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

    @pytest.mark.parametrize("gather", (None, 64))  # one chunk, or a few groups a chunk
    def test_distances_are_each_groups_pairwise_minimum(self, workdir, capsys, monkeypatch,
                                                        gather):
        # width 8 -> 20, hidden 16 -> 40: groups of 3 and of 2 in each tensor
        tmp_path, _, small = workdir
        big = expand_cli(tmp_path, small, policy="lemon")
        dup = json.loads((tmp_path / "big.lmn.duplicates.json").read_text())
        if gather is not None:
            monkeypatch.setattr("lemon.verify._GATHER", gather)
        want = []
        with container.CheckpointReader(big) as reader:
            for b in dup["blocks"]:
                for kind, size, tensor in (("attn_head", 4, "attn.wo"),
                                           ("mlp_hidden", 1, "mlp.w2")):
                    w = reader.tensor(f"blocks.{b['index']}.{tensor}")
                    for src, members in b.get(f"{kind}_groups", {}).items():
                        vecs = [w[:, m * size:(m + 1) * size] for m in members]
                        dist = min(float(np.abs(x - y).max())
                                   for i, x in enumerate(vecs) for y in vecs[i + 1:])
                        want.append({"block": b["index"], "kind": kind, "source": int(src),
                                     "replicas": members, "min_distance": dist})
        got = symmetry_report(big, dup)
        assert got == want
        assert {len(e["replicas"]) for e in got} == {2, 3}
        capsys.readouterr()
        assert main(["symmetry", "--ckpt", str(big)]) == 0
        assert capsys.readouterr().out == "".join(
            f"block {e['block']:3d} {e['kind']:10s} source {e['source']:4d} "
            f"replicas {e['replicas']} min_distance {e['min_distance']:.6e}\n" for e in want)

    def test_nan_distances_follow_the_first_smaller_pair(self):
        w = np.arange(12.0).reshape(3, 4) ** 2
        w[1, 2] = np.nan
        groups = [[0, 1, 2], [2, 0, 1], [1, 3, 0], [3, 2]]
        want = [min(float(np.abs(w[:, a] - w[:, b]).max())
                    for i, a in enumerate(g) for b in g[i + 1:]) for g in groups]
        got = verify._min_distances(w, groups, 1)
        assert [math.isnan(d) for d in got] == [False, True, False, True]
        assert [d for d in got if not math.isnan(d)] == [d for d in want if not math.isnan(d)]

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

    @pytest.mark.parametrize("blob", (None, b"garbage"), ids=("missing", "garbage"))
    def test_missing_or_corrupt_checkpoint_without_a_map_exits_3(self, tmp_path, capsys,
                                                                 blob):
        ckpt = tmp_path / "model.lmn"
        if blob is not None:
            ckpt.write_bytes(blob)
        assert main(["symmetry", "--ckpt", str(ckpt)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("flags", [["--total", "1000"],
                                       ["--max-lr", "5", "--total", "1000"],
                                       ["--min-lr", "0", "--warmup", "3"]])
    def test_schedule_preset_with_explicit_flags_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert main(["schedule", "--preset", "vit-expanded", *flags, "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert printed == "" and err.count("\n") == 1
        assert all(flag in err for flag in flags[::2])
        assert not out.exists()

    def test_schedule_missing_flags_usage_error(self, tmp_path):
        assert main(["schedule", "--max-lr", "1e-3",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flags,named", [
        (["--max-lr", "inf", "--min-lr", "0", "--total", "4", "--warmup", "1"], "--max-lr"),
        (["--max-lr", "nan", "--min-lr", "0", "--total", "4", "--warmup", "1"], "--max-lr"),
        (["--max-lr", "1", "--min-lr", "nan", "--total", "4", "--warmup", "1"], "--min-lr"),
        # max_lr * (t + 1) overflows at warmup step 1
        (["--max-lr", "1e308", "--min-lr", "0", "--total", "4", "--warmup", "2"], "--warmup")])
    def test_schedule_non_finite_rates_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "s.csv"
        assert main(["schedule", *flags, "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert printed == "" and err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

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

    @pytest.mark.parametrize("scale,policy,names", [
        ("inf", "lemon", "noise_scale"), ("1e308", "lemon", "split"),
        # no width split draws noise, so the type2 pairs overflow first
        ("1e308", "net2net-equal", "noise_scale")])
    def test_unusable_noise_scale_usage_error(self, workdir, capsys, scale, policy, names):
        tmp_path, _, small = workdir
        # a numpy RuntimeWarning would be a second stderr line; raise it instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["expand", "--in", str(small), "--out", str(tmp_path / "big.lmn"),
                         *self.ARGV, "--noise-scale", scale, "--policy", policy,
                         "--depth-mode", "type2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert names in err
        assert not (tmp_path / "big.lmn").exists()

    def test_inexact_split_names_the_noise_scale(self, workdir, capsys):
        # 8 -> 12 wide: at this scale the circ split of wo fails its sum check
        tmp_path, _, small = workdir
        assert main(["expand", "--in", str(small), "--out", str(tmp_path / "big.lmn"),
                     "--target-width", "12", "--target-depth", "3",
                     "--noise-scale", "1e4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--noise-scale 10000" in err
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

    def test_target_too_large_to_hold_fails_before_its_schema_is_listed(
            self, workdir, capsys, monkeypatch):
        # 2^53 heads: the target's first tensor, its token table, cannot be
        # allocated in any address space, and its schema would take longer
        # than anyone waits to list
        tmp_path, _, small = workdir
        listed = []
        real_schema = container.tensor_schema

        def counted_schema(spec, dtype):
            for entry in real_schema(spec, dtype):
                if spec.width == 2 ** 56:  # the reader lists the source's
                    listed.append(entry.name)
                if len(listed) > 1000:
                    raise AssertionError("the target schema is being listed")
                yield entry

        monkeypatch.setattr("lemon.container.tensor_schema", counted_schema)
        assert main(["expand", "--in", str(small), "--out", str(tmp_path / "big.lmn"),
                     "--target-width", str(2 ** 56), "--target-depth", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert listed == []
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "small.lmn"]

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

    def test_sidecar_is_the_indented_duplicate_map(self, workdir, expanded):
        tmp_path, _, small = workdir
        out = tmp_path / "big.lmn"
        assert self.expand(small, out) == 0
        w, spec = read_checkpoint(small)
        _, _, dup = expanded(w, spec, ExpansionPlan(16, 4, seed=3))
        assert (tmp_path / "big.lmn.duplicates.json").read_bytes() == \
            json.dumps(dup, indent=1).encode()
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


class TestFormatVersion:
    # width 4 == head_dim: every attention matrix is square, so a version 1
    # file, which stored them (in, out), has the tensor table of version 2
    @pytest.mark.parametrize("width", [8, 4])
    def test_version_1_file_io_error(self, tmp_path, capsys, width):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CFG, "width": width}))
        old = tmp_path / "old.lmn"
        assert main(["init-random", "--config", str(cfg), "--out", str(old)]) == 0
        blob = bytearray(old.read_bytes())
        struct.pack_into("<I", blob, 4, 1)
        old.write_bytes(bytes(blob))
        capsys.readouterr()
        big = tmp_path / "big.lmn"
        for argv in (["inspect", str(old)],
                     ["verify", "--small", str(old), "--big", str(old)],
                     ["expand", "--in", str(old), "--out", str(big),
                      "--target-width", "16", "--target-depth", "3"]):
            assert main(argv) == 3, argv
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and "unsupported_version" in err
        assert not big.exists()


@functools.lru_cache(maxsize=None)
def _toy_pair() -> dict:
    """A toy source, its type2 expansion and that expansion's duplicate
    map, as bytes."""
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        cfg, small, big = (os.path.join(d, name) for name in ("cfg.json", "small", "big"))
        with open(cfg, "w") as fh:
            json.dump(CFG, fh)
        assert main(["init-random", "--config", cfg, "--out", small, "--seed", "1"]) == 0
        assert main(["expand", "--in", small, "--out", big, "--target-width", "12",
                     "--target-depth", "3", "--depth-mode", "type2", "--seed", "7"]) == 0
        files = {}
        for name, path in (("small", small), ("big", big), ("map", big + ".duplicates.json")):
            with open(path, "rb") as fh:
                files[name] = fh.read()
        return files


def _corrupted(blob: bytes, kind: str, at: int, other: int, value: float) -> bytes:
    """``blob`` with one bit flipped, two characters of its JSON header
    swapped, its tail cut off at ``at``, or one float64 word of its payload
    set to ``value``."""
    blob = bytearray(blob)
    head_end = _PREFIX.size + int.from_bytes(blob[8:16], "little")
    if kind == "flip":
        blob[at % len(blob)] ^= 1 << other % 8
    elif kind == "swap":
        i, j = (_PREFIX.size + n % (head_end - _PREFIX.size) for n in (at, other))
        blob[i], blob[j] = blob[j], blob[i]
    elif kind == "truncate":
        del blob[at % len(blob):]
    else:
        first = -(-head_end // ALIGNMENT) * ALIGNMENT  # the first tensor's offset
        struct.pack_into("<d", blob, first + 8 * (at % ((len(blob) - first) // 8)), value)
    return bytes(blob)


class TestCorruptedCheckpointExitCodes:
    """inspect, verify, symmetry and expand exit 0, 1, 2 or 3 on a
    corrupted checkpoint, with at most one line of error and never a
    traceback or a warning."""

    @settings(max_examples=100, deadline=None)
    @given(which=st.sampled_from(["small", "big"]),
           kind=st.sampled_from(["flip", "swap", "truncate", "word"]),
           at=st.integers(0, 2**32), other=st.integers(0, 2**32),
           value=st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308]))
    # the token table's first word: its row's layernorm variance overflows
    @example(which="small", kind="word", at=0, other=0, value=1e308)
    # a first-layer MLP bias of -inf: gelu meets inf - inf
    @example(which="big", kind="word", at=1168, other=0, value=-math.inf)
    def test_exit_code_is_documented(self, which, kind, at, other, value):
        files = dict(_toy_pair())
        files[which] = _corrupted(files[which], kind, at, other, value)
        with tempfile.TemporaryDirectory() as d:
            paths = {name: os.path.join(d, name) for name in files}
            for name, blob in files.items():
                with open(paths[name], "wb") as fh:
                    fh.write(blob)
            for argv in (["inspect", paths[which]],
                         ["verify", "--small", paths["small"], "--big", paths["big"]],
                         ["symmetry", "--ckpt", paths["big"], "--map", paths["map"]],
                         ["symmetry", "--ckpt", paths[which]],  # no sidecar
                         ["expand", "--in", paths[which], "--out", os.path.join(d, "out"),
                          "--target-width", "16", "--target-depth", "4"]):
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main(argv)
                assert code in (0, 1, 2, 3), argv
                assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
                assert not caught, (argv, [str(w.message) for w in caught])


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


_SCHEDULE_FAULTS = ("non-finite rate", "negative value", "min above max", "warmup at total",
                    "huge value", "missing flags", "preset", "out is a directory")


@st.composite
def _schedule_call(draw):
    """``lemon schedule`` flag values, a preset or none, and whether
    ``--out`` is a directory: a valid spec with a set of faults applied.
    Any total that validates is at most 10**4, so a run that writes a
    schedule stays small."""
    max_lr = draw(st.floats(0.0, 1e3))
    flags = {"--max-lr": max_lr, "--min-lr": max_lr * draw(st.floats(0.0, 1.0)),
             "--total": draw(st.integers(1, 10**4))}
    flags["--warmup"] = draw(st.integers(0, flags["--total"] - 1))
    faults = draw(st.sets(st.sampled_from(_SCHEDULE_FAULTS), max_size=3))
    names = st.sampled_from(sorted(flags))
    if "non-finite rate" in faults:
        flags[draw(st.sampled_from(["--max-lr", "--min-lr"]))] = draw(_NON_FINITE)
    for fault, rates, steps in (
            ("negative value", st.floats(-1e308, -1e-300), st.integers(-10**30, -1)),
            ("huge value", st.floats(1e300, 1e308), st.integers(2**53 + 1, 10**30))):
        if fault in faults:
            name = draw(names)
            flags[name] = draw(rates if name.endswith("-lr") else steps)
    if "min above max" in faults:
        flags["--min-lr"] = flags["--max-lr"] + draw(st.floats(1e-6, 1e3))
    if "warmup at total" in faults:
        flags["--warmup"] = flags["--total"] + draw(st.integers(0, 3))
    if "missing flags" in faults:
        for name in draw(st.sets(names, min_size=1)):
            del flags[name]
    preset = "vit-expanded" if "preset" in faults else None
    if preset and draw(st.booleans()):
        flags.clear()
    return flags, preset, "out is a directory" in faults


class TestScheduleExitCodes:
    """schedule exits 0, 2 or 3 on any flag values, with one line of error
    when it fails, none when it succeeds, and never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(call=_schedule_call())
    def test_exit_code_is_documented(self, call):
        flags, preset, out_is_dir = call
        # the = form, so argparse reads a negative value as a value
        argv = [f"{flag}={value!r}" for flag, value in flags.items()]
        if preset is not None:
            argv.append(f"--preset={preset}")
        with tempfile.TemporaryDirectory() as d:
            out = d if out_is_dir else os.path.join(d, "s.csv")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["schedule", *argv, "--out", out])
            event(f"exit {code}")
            assert code in (0, 2, 3)
            assert err.getvalue().count("\n") == (code != 0), err.getvalue()
            assert os.listdir(d) == (["s.csv"] if code == 0 else [])


class TestVerifyExitCodes:
    """verify exits 0, 1, 2 or 3 on any flag values and any
    ``LEMON_THREADS``, with at most one line of error and never a
    traceback, and prints PASS only when it exits 0.  Every kernel call
    that can split does, so the split path's errors are covered too."""

    @settings(max_examples=120, deadline=None)
    @given(samples=st.integers(-2, 6), seq_len=st.integers(-1, 6),
           tol=st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-10, 1e3, None]),
           seed=st.sampled_from([-1, 2**64]) | st.integers(0, 5),
           threads=st.sampled_from([None, "", "0", "abc", "1", "2", "3", "4"]))
    # a zero tolerance FAILs: the pair's logits differ in their last bits
    @example(samples=2, seq_len=3, tol=0.0, seed=0, threads="2")
    def test_exit_code_is_documented(self, samples, seq_len, tol, seed, threads):
        files = _toy_pair()
        env = {} if threads is None else {"LEMON_THREADS": threads}
        argv = [f"--samples={samples}", f"--seq-len={seq_len}", f"--seed={seed}"]
        if tol is not None:
            argv.append(f"--tol={tol!r}")
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.dict(os.environ, env), \
                mock.patch.object(verify, "_PARALLEL_WORK", 0), \
                mock.patch.object(kernels, "_SPLIT_WORK", 0):
            if threads is None:
                os.environ.pop("LEMON_THREADS", None)
            paths = {}
            for name in ("small", "big"):
                paths[name] = os.path.join(d, name)
                with open(paths[name], "wb") as fh:
                    fh.write(files[name])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", "--small", paths["small"], "--big", paths["big"],
                             *argv])
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
        assert ("PASS" in out.getvalue()) == (code == 0)


class TestExpandExitCodes:
    """expand exits 0, 2 or 3 on any flag values, with at most one line of
    error and never a traceback or a warning."""

    @settings(max_examples=200, deadline=None)
    # the source is 2 blocks at width 8 with head_dim 4: widths that are
    # a multiple of 4 are drawn more often, so that most runs expand
    @given(width=st.integers(-1, 16).map(lambda n: 4 * n) | st.integers(-4, 64)
           | st.just(2**56),
           depth=st.integers(-2, 12),
           policy=st.sampled_from(["lemon", "net2net-equal", "zero-tail"]),
           mode=st.sampled_from(["type1", "type2"]),
           source=st.sampled_from(["self", "next"]),
           noise=st.floats(1e-6, 1.0)
           | st.sampled_from([0.0, -0.02, math.nan, math.inf, -math.inf, 1e308]),
           seed=st.integers(0, 5) | st.sampled_from([-1, 2**64]))
    # a width that cannot be allocated fails at its first allocation
    @example(width=2**56, depth=2, policy="lemon", mode="type1", source="self", noise=0.02,
             seed=0)
    def test_exit_code_is_documented(self, width, depth, policy, mode, source, noise, seed):
        with tempfile.TemporaryDirectory() as d:
            small = os.path.join(d, "small")
            with open(small, "wb") as fh:
                fh.write(_toy_pair()["small"])
            argv = ["expand", "--in", small, "--out", os.path.join(d, "out"),
                    f"--target-width={width}", f"--target-depth={depth}",
                    f"--policy={policy}", f"--depth-mode={mode}", f"--depth-source={source}",
                    f"--noise-scale={noise!r}", f"--seed={seed}"]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3), argv
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), argv
        assert not caught, (argv, [str(w.message) for w in caught])

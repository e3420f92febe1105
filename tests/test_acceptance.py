"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are fixed here, not configurable.
"""

import json
import math
import struct
import time

import numpy as np
import pytest

from lemon import (ColumnSplit, ExpansionPlan, ModelSpec, PlanError,
                   ScheduleSpec, SplitError, block_forward, expand_bias,
                   expand_layernorm, expand_matrix_cols, expand_matrix_rows,
                   expand_model, expand_rmsnorm, expand_vector, model_forward,
                   random_weights, read_checkpoint, toy_mlp_gradient_step,
                   validate_header, write_checkpoint, write_schedule_csv)
from lemon import kernels
from lemon.cli import main as cli_main
from lemon.cnn import bottleneck_forward, expand_cnn_bottleneck, random_bottleneck
from lemon.container import MAGIC, _PREFIX, named_tensors
from lemon.expander import column_split, layer_multiplicities
from lemon.rng import substream

TOL = 1e-10


def passline(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS - {text}", flush=True)


def spec_for(style, depth, width, **kw):
    base = dict(head_dim=4, mlp_ratio=2.0, vocab_or_classes=11, eps=1e-5)
    base.update(kw)
    return ModelSpec(norm_style=style, depth=depth, width=width, **base).validate()


def max_logit_diff(small_w, small_spec, big_w, big_spec, n_inputs, seed, seq=6):
    worst = 0.0
    for i in range(n_inputs):
        g = substream(seed, "acc-in", i)
        ids = g.integers(0, small_spec.vocab_or_classes, size=seq)
        d = np.abs(model_forward(ids, big_w, big_spec)
                   - model_forward(ids, small_w, small_spec)).max()
        worst = max(worst, float(d))
    return worst


def test_criterion_1_end_to_end_losslessness():
    size_grid = [
        (8, 16, 2, 4), (8, 20, 2, 5), (12, 16, 3, 5),
        (12, 24, 3, 4), (16, 24, 2, 5), (16, 20, 3, 4),
    ]
    start = time.monotonic()
    configs = 0
    worst = 0.0
    for style in ("pre_ln", "post_res_norm"):
        for d_s, d_t, l_s, l_t in size_grid:
            spec = spec_for(style, l_s, d_s)
            weights = random_weights(spec, substream(101, style, d_s, l_s))
            for depth_mode in ("type1", "type2"):
                for policy in ("lemon", "net2net_equal"):
                    plan = ExpansionPlan(d_t, l_t, policy=policy,
                                         depth_mode=depth_mode,
                                         seed=configs + 1)
                    big_w, big_spec, _ = expand_model(weights, spec, plan)
                    diff = max_logit_diff(weights, spec, big_w, big_spec,
                                          n_inputs=32, seed=configs)
                    worst = max(worst, diff)
                    assert diff <= TOL, (style, d_s, d_t, l_s, l_t,
                                         depth_mode, policy, diff)
                    configs += 1
    elapsed = time.monotonic() - start
    assert configs >= 48
    assert elapsed < 60.0
    passline(1, f"{configs} configurations lossless (worst {worst:.2e}, "
                f"{elapsed:.1f}s)")


def test_criterion_2_post_ln_divisible_and_rejection():
    spec = spec_for("post_ln", 2, 8, eps=0.0)
    weights = random_weights(spec, substream(102, "postln"))
    plan = ExpansionPlan(16, 4, seed=2)
    big_w, big_spec, _ = expand_model(weights, spec, plan)
    diff = max_logit_diff(weights, spec, big_w, big_spec, n_inputs=32, seed=2)
    assert diff <= TOL
    with pytest.raises(PlanError):
        ExpansionPlan(12, 4).validate(spec)
    passline(2, f"post-norm width/depth doubling lossless ({diff:.2e}); "
                f"indivisible plan rejected")


def test_criterion_2b_post_ln_cli_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"norm_style": "post_ln", "depth": 2, "width": 8,
                               "head_dim": 4, "mlp_ratio": 2.0,
                               "vocab_or_classes": 11, "eps": 0.0}))
    small = tmp_path / "s.lmn"
    assert cli_main(["init-random", "--config", str(cfg), "--out", str(small),
                     "--seed", "1"]) == 0
    code = cli_main(["expand", "--in", str(small), "--out",
                     str(tmp_path / "b.lmn"), "--target-width", "12",
                     "--target-depth", "2"])
    assert code == 2
    passline(2, "indivisible post-norm expand exits with usage error 2")


def test_criterion_3_norm_expansion_contracts():
    # hand-derived case first: [1, 3] -> [-1, 1, 0]
    mu_t, beta_t, eps_t = expand_layernorm(np.ones(2), np.zeros(2), 0.0, 3,
                                           tail=np.array([0.3]))
    out = kernels.layernorm(expand_vector(np.array([1.0, 3.0]), 3, "avg"),
                            mu_t, beta_t, eps_t)
    np.testing.assert_allclose(out, [-1.0, 1.0, 0.0], rtol=0, atol=TOL)

    g = substream(103, "norm-props")
    eps_choices = (0.0, 1e-5, 1e-1)
    for i in range(1000):
        d_s = int(g.integers(2, 9))
        d_t = int(g.integers(d_s, 3 * d_s + 1))
        eps = eps_choices[i % 3]
        x = g.standard_normal(d_s) * 3
        mu = g.standard_normal(d_s)
        beta = g.standard_normal(d_s)
        tail = g.uniform(-1, 1, d_t % d_s)
        mu_t, beta_t, eps_t = expand_layernorm(mu, beta, eps, d_t, tail)
        got = kernels.layernorm(expand_vector(x, d_t, "avg"), mu_t, beta_t, eps_t)
        want = expand_vector(kernels.layernorm(x, mu, beta, eps), d_t, "zero")
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    for i in range(1000):
        d_s = int(g.integers(1, 9))
        d_t = int(g.integers(d_s, 3 * d_s + 1))
        eps = eps_choices[i % 3]
        x = g.standard_normal(d_s) * 3
        if eps == 0.0 and not np.any(x):
            x[0] = 1.0
        mu = g.standard_normal(d_s)
        tail = g.uniform(-1, 1, d_t % d_s)
        mu_t, eps_t = expand_rmsnorm(mu, eps, d_t, tail)
        got = kernels.rmsnorm(expand_vector(x, d_t, "zero"), mu_t, eps_t)
        want = expand_vector(kernels.rmsnorm(x, mu, eps), d_t, "zero")
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    passline(3, "layer/RMS norm expansion contracts hold on 1000+1000 "
                "instances incl. the hand-derived case")


def test_criterion_4_operator_algebra():
    g = substream(104, "algebra")
    for _ in range(1000):
        d_s, p = int(g.integers(1, 7)), int(g.integers(1, 6))
        d_t = int(g.integers(d_s, 3 * d_s + 1))
        mode = ("avg", "zero", "circ")[int(g.integers(3))]
        m = g.standard_normal((d_s, p))
        x = g.standard_normal((p, 1))
        got = kernels.matmul(expand_matrix_rows(m, d_t, mode), x).ravel()
        want = expand_vector(kernels.matmul(m, x).ravel(), d_t, mode)
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    for _ in range(1000):
        d_s, p = int(g.integers(1, 7)), int(g.integers(1, 6))
        d_t = int(g.integers(d_s, 3 * d_s + 1))
        mode = ("rand", "circ")[int(g.integers(2))]
        policy = ("lemon", "net2net_equal", "zero_tail")[int(g.integers(3))]
        m = g.standard_normal((p, d_s))
        big = expand_matrix_cols(m, d_t, mode,
                                 column_split(m, d_t, mode, policy, g, 0.02))
        x = g.standard_normal(d_s)
        vec_mode = "zero" if mode == "rand" else "circ"
        got = kernels.matmul(big, expand_vector(x, d_t, vec_mode)[:, None])
        np.testing.assert_allclose(got, kernels.matmul(m, x[:, None]),
                                   rtol=0, atol=TOL)
    for _ in range(1000):
        d_s = int(g.integers(1, 7))
        d_t = int(g.integers(d_s, 3 * d_s + 1))
        mode = ("avg", "zero", "circ")[int(g.integers(3))]
        x, b = g.standard_normal(d_s), g.standard_normal(d_s)
        got = expand_vector(x, d_t, mode) + expand_bias(b, d_t, mode)
        np.testing.assert_allclose(got, expand_vector(x + b, d_t, mode),
                                   rtol=0, atol=TOL)
    # consecutive application: row expansion feeding the matching column
    # expansion across a two-layer chain
    for _ in range(1000):
        d_in, d_mid, d_out = (int(g.integers(1, 6)) for _ in range(3))
        d_mid_t = int(g.integers(d_mid, 3 * d_mid + 1))
        m1 = g.standard_normal((d_mid, d_in))
        m2 = g.standard_normal((d_out, d_mid))
        x = g.standard_normal((d_in, 1))
        row_mode, col_mode = (("circ", "circ"), ("zero", "rand"))[int(g.integers(2))]
        m1_t = expand_matrix_rows(m1, d_mid_t, row_mode)
        split = column_split(m2, d_mid_t, col_mode, "lemon", g, 0.02)
        m2_t = expand_matrix_cols(m2, d_mid_t, col_mode, split)
        got = kernels.matmul(m2_t, kernels.matmul(m1_t, x))
        want = kernels.matmul(m2, kernels.matmul(m1, x))
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    # constraint violations are hard errors
    m = np.array([[4.0, 6.0]])
    with pytest.raises(SplitError):
        expand_matrix_cols(m, 5, "rand",
                           ColumnSplit(parts=[np.array([[1.0, 2.0]]),
                                              np.array([[3.0, 4.1]])],
                                       tail=np.array([[7.0]])))
    passline(4, "row/column/bias losslessness and two-layer composition hold "
                "on 1000 instances each; bad splits rejected")


def test_criterion_5_symmetry_breaking_gradient_step():
    g = substream(105, "toy")
    w1 = g.standard_normal((2, 2))
    v = g.standard_normal(2)
    x = g.standard_normal(2)
    target = 0.25
    results = {}
    for policy in ("lemon", "net2net_equal"):
        w1_big = expand_matrix_rows(w1, 4, "circ")
        split = column_split(v[None, :], 4, "circ", policy,
                             substream(105, "split", policy), 0.02)
        v_big = expand_matrix_cols(v[None, :], 4, "circ", split)[0]
        # expansion preserved the toy network's output
        assert float(v_big @ kernels.activation(w1_big @ x, "gelu")) == pytest.approx(
            float(v @ kernels.activation(w1 @ x, "gelu")), abs=1e-12)
        new_w1, new_v = toy_mlp_gradient_step(w1_big, v_big, x, target, lr=0.1)
        results[policy] = (new_w1, new_v)
    lemon_w1, _ = results["lemon"]
    equal_w1, equal_v = results["net2net_equal"]
    for z in range(2):
        assert np.abs(lemon_w1[z] - lemon_w1[z + 2]).max() > 1e-9
        np.testing.assert_array_equal(equal_w1[z], equal_w1[z + 2])
        assert equal_v[z] == equal_v[z + 2]
    passline(5, "one gradient step: symmetry-broken duplicates diverge, "
                "equal-split duplicates stay bitwise identical")


def inserted_positions(l_s: int, l_t: int) -> list[int]:
    out, pos = [], 0
    for m in layer_multiplicities(l_s, l_t):
        pos += 1
        out.extend(range(pos, pos + m - 1))
        pos += m - 1
    return out


def test_criterion_6_inserted_blocks_contribute_exactly_zero():
    checked = 0
    for style in ("pre_ln", "rms_pre", "post_res_norm"):
        spec = spec_for(style, 2, 8)
        weights = random_weights(spec, substream(106, style))
        for depth_mode in ("type1", "type2"):
            plan = ExpansionPlan(20, 5, depth_mode=depth_mode, seed=6)
            big_w, big_spec, _ = expand_model(weights, spec, plan)
            for i in range(4):
                x = substream(106, "x", style, depth_mode, i).standard_normal((5, 20))
                for idx in inserted_positions(2, 5):
                    out = block_forward(x, big_w.blocks[idx], big_spec)
                    np.testing.assert_array_equal(out, x)
                    checked += 1
    passline(6, f"residual delta bitwise zero for {checked} inserted-block "
                f"evaluations (type1 and type2)")


def test_criterion_7_tied_decoder_rescale():
    spec = spec_for("pre_ln", 2, 8, tied_decoder=True, vocab_or_classes=13)
    weights = random_weights(spec, substream(107, "tied"))
    plan = ExpansionPlan(16, 4, seed=7)  # k = 2
    big_w, big_spec, _ = expand_model(weights, spec, plan)
    # divisible doubling tiles the final norm weight, then halves it for tying
    np.testing.assert_array_equal(big_w.final_norm.mu * 2.0,
                                  np.tile(weights.final_norm.mu, 2))
    diff = max_logit_diff(weights, spec, big_w, big_spec, n_inputs=32, seed=7)
    assert diff <= TOL
    passline(7, f"tied decoder with doubled width lossless ({diff:.2e})")


def test_criterion_8_cnn_bottleneck():
    worst = 0.0
    for d_s, d_t in ((2, 3), (4, 6)):
        w = random_bottleneck(outer=5, inner=d_s, kernel=3,
                              rng=substream(108, "b", d_s))
        big = expand_cnn_bottleneck(w, d_t, substream(108, "e", d_s, d_t))
        for i in range(8):
            x = substream(108, "x", d_s, i).standard_normal((5, 4, 4))
            d = np.abs(bottleneck_forward(x, big) - bottleneck_forward(x, w)).max()
            worst = max(worst, float(d))
            assert d <= TOL
    passline(8, f"bottleneck expansion 2->3 and 4->6 lossless against the "
                f"direct-convolution oracle (worst {worst:.2e})")


def test_criterion_9_scheduler_presets(tmp_path):
    def closed_form(spec, t):
        if t < spec.warmup:
            return spec.max_lr * (t + 1) / spec.warmup
        phase = math.pi * (t - spec.warmup) / (spec.total - spec.warmup)
        return spec.min_lr + 0.5 * (spec.max_lr - spec.min_lr) * (1 + math.cos(phase))

    for name, spec in (("scratch", ScheduleSpec(1e-3, 1e-5, 5, 300)),
                       ("expanded", ScheduleSpec(1e-3, 1e-5, 5, 130))):
        path = tmp_path / f"{name}.csv"
        write_schedule_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr"
        assert len(lines) == spec.total + 2
        values = {}
        for line in lines[1:]:
            t_text, lr_text = line.split(",")
            t, lr = int(t_text), float(lr_text)
            values[t] = lr
            want = closed_form(spec, t)
            assert abs(lr - want) <= 1e-15 * abs(want)
        assert values[spec.warmup] == spec.max_lr
        assert values[spec.total] == spec.min_lr
    passline(9, "schedule CSVs match the closed form at 1e-15 relative with "
                "exact endpoints (default and fast-decay horizons)")


def test_criterion_10_container_round_trips_and_rejection(tmp_path):
    g = substream(110, "roundtrip")
    for i in range(100):
        style = ("pre_ln", "post_res_norm", "rms_pre")[i % 3]
        spec = ModelSpec(norm_style=style,
                         depth=int(g.integers(0, 3)),
                         width=int(g.integers(1, 4)) * 4,
                         head_dim=4, mlp_ratio=2.0,
                         vocab_or_classes=int(g.integers(2, 9)),
                         tied_decoder=bool(g.integers(2)) and style != "post_res_norm",
                         eps=float(g.uniform(0, 1e-3))).validate()
        dtype = np.float32 if i % 2 else np.float64
        w = random_weights(spec, substream(110, "w", i), dtype=dtype)
        path = tmp_path / f"rt{i}.lmn"
        write_checkpoint(w, spec, path)
        got_w, got_spec = read_checkpoint(path)
        assert got_spec == spec
        for (na, a), (nb, b) in zip(named_tensors(w, spec),
                                    named_tensors(got_w, got_spec)):
            assert na == nb and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    spec = ModelSpec("pre_ln", 1, 8, 4, 2.0, 7).validate()
    w = random_weights(spec, substream(110, "fx"))
    path = tmp_path / "fixture.lmn"
    write_checkpoint(w, spec, path)
    blob = bytearray(path.read_bytes())

    bad_magic = bytes(b"XXXX") + bytes(blob[4:])
    assert validate_header(bad_magic)[0].code == "bad_magic"
    future = bytearray(blob)
    struct.pack_into("<I", future, 4, 9)
    assert validate_header(bytes(future))[0].code == "unsupported_version"
    garbled = bytearray(blob)
    garbled[_PREFIX.size] = ord("X")
    assert validate_header(bytes(garbled))[0].code == "malformed_header"
    assert any(d.code == "truncated_payload"
               for d in validate_header(bytes(blob[:-8])))
    assert validate_header(bytes(blob)) == []
    assert blob[:4] == MAGIC
    passline(10, "100 randomized round-trips bitwise identical; corruption "
                 "fixtures rejected with their designated codes")

"""Tests of the benchmark itself, at toy shapes.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import lemon
import lemon.expander
import lemon.model
import lemon.rng
import run as bench_run
import workloads
from layers import PER_LAYER, WRAPPED
from lemon.container import read_checkpoint
from tracer import Tracer

TOY = workloads.HeadlineShape(width=16, depth=2, head_dim=4, mlp_ratio=2.0, vocab=11,
                              target_width=24, target_depth=4, seq_len=4,
                              verify_samples=1, cnn_stages=((8, 4, 1), (12, 6, 1)),
                              cnn_growth=1.5, cnn_check_hw=3)


def lemon_bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "lemon" or name.startswith("lemon.")
            for attr, value in vars(mod).items()}


def toy_run(tmp_path, name, trace=False, seconds=0.0):
    workload = workloads.make(name, 3, TOY)
    run = workloads.Run(tmp_path, workload.PROBE_FOR)
    bench_run.run_workload(workload, run, seconds, Tracer() if trace else None)
    return run


def toy_source(tmp_path) -> Path:
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps(TOY.config()))
    src = tmp_path / "toy.lmn"
    assert workloads.cli("init-random", "--config", cfg, "--out", src, "--seed", 1).code == 0
    return src


def expand(src, out):
    return workloads.cli("expand", "--in", src, "--out", out, "--target-width", 24,
                         "--target-depth", 4, "--depth-mode", "type2", "--seed", 5)


def test_traced_expand_is_byte_identical_and_computes_the_same_logits(tmp_path):
    src = toy_source(tmp_path)
    plain, traced = tmp_path / "plain.lmn", tmp_path / "traced.lmn"
    assert expand(src, plain).code == 0
    with Tracer() as tracer:
        tracer.begin_op("expand")
        assert expand(src, traced).code == 0
    assert tracer.span_count("expander.expand_model") == 1
    assert plain.read_bytes() == traced.read_bytes()
    assert (Path(f"{plain}.duplicates.json").read_bytes()
            == Path(f"{traced}.duplicates.json").read_bytes())
    x = np.arange(TOY.seq_len) % TOY.vocab
    logits = [lemon.model.model_forward(x, *read_checkpoint(p)) for p in (plain, traced)]
    assert np.array_equal(logits[0], logits[1])


def test_tracer_wraps_every_binding_and_restores_the_originals(tmp_path):
    before = lemon_bindings()
    seen = {}
    original_install = Tracer.install

    def install(self):
        original_install(self)
        seen.update({key: lemon_bindings()[key] for key in
                     [("lemon.cli", "read_checkpoint"), ("lemon.verify", "read_checkpoint"),
                      ("lemon.container", "read_checkpoint"), ("lemon", "read_checkpoint"),
                      ("lemon.expander", "expand_matrix_cols"),
                      ("lemon.expand_ops", "expand_matrix_cols"),
                      ("lemon.model", "apply_norm")]})

    Tracer.install = install
    try:
        run = toy_run(tmp_path, "grow-base", trace=True)
    finally:
        Tracer.install = original_install
    assert run.failed == 0
    assert seen and all(value is not before[key] for key, value in seen.items())
    after = lemon_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_matmul_span_count_per_forward(tmp_path):
    spec = lemon.ModelSpec("pre_ln", depth=3, width=12, head_dim=4, mlp_ratio=2.0,
                           vocab_or_classes=7).validate()
    w = lemon.random_weights(spec, lemon.rng.substream(1, "toy"))
    with Tracer() as tracer:
        tracer.begin_op("forward")
        lemon.model.model_forward(np.array([1, 2, 3, 4]), w, spec)
    assert tracer.span_count("kernels.matmul") == spec.depth * (5 * spec.n_heads + 3) + 1
    assert tracer.span_count("model.block_forward") == spec.depth


@pytest.mark.parametrize("name", ["grow-base", "verify-base"])
def test_clean_toy_run_passes_every_check(tmp_path, name):
    run = toy_run(tmp_path, name)
    assert run.failures == [] and run.failed == 0
    metrics = bench_run.end_to_end_metrics(run)
    assert all(value > 0 for value, _ in metrics.values())


def test_sweep_small_pass_passes_every_check(tmp_path):
    run = toy_run(tmp_path, "sweep-small")
    assert run.failures == []
    assert len(run.intervals["expand"]) == 60


def test_unperturbed_control_counts_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.VerifyBase, "CONTROL_DELTA", 0.0)
    run = toy_run(tmp_path, "verify-base")
    assert run.failed == 1
    assert run.failures[0].startswith("verify_control")


def test_nondeterministic_expand_counts_failures(tmp_path, monkeypatch):
    calls = iter(range(10**9))
    real = lemon.expander.substream
    monkeypatch.setattr(lemon.expander, "substream",
                        lambda seed, *tags: real(seed, *tags, next(calls)))
    run = toy_run(tmp_path, "grow-base")
    # every timed expand, and the fresh-process expand of the final checks
    # (which runs the real code), is compared with the warm-up's output
    assert run.intervals["expand"]
    assert run.failed == len(run.intervals["expand"]) + 1


def test_trace_run_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    workload = workloads.make("verify-base", 3, TOY)
    run = workloads.Run(tmp_path, workload.PROBE_FOR)
    cycles = bench_run.run_workload(workload, run, 0.0, tracer)
    metrics, detail = bench_run.per_layer_metrics(tracer, run, cycles)
    assert list(metrics) == [m[0] for m in PER_LAYER]
    assert metrics["kernels.matmul.calls"][0] > 0
    assert metrics["container.tensors"][0] > 0
    verify = detail["coverage"]["verify"]
    assert "kernels.matmul" in verify["functions"]
    assert not any(f.startswith("expander.") and f != "expander.map_arrays"
                   for f in verify["functions"])


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(bench_run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "peak_rss_mb", *workloads.OP_METRICS.values()}
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert len(set(WRAPPED)) == len(WRAPPED)

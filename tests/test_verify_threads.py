"""Who runs ``verify`` on how many threads.

The worker count is ``LEMON_THREADS`` when it is set, else the cores the
process may run on, and one for a model below ``verify._PARALLEL_WORK``.
With at least as many samples as workers, the samples run on the pool,
one per task.  With fewer, each sample runs on the calling thread and
the kernels split its large calls on the pool: attention heads in
contiguous groups, matmul columns in slabs (``kernels.split_on``).
Either way the report has the bits of a one-thread run.  Pool sizes and
task counts are read from a stand-in for ``ThreadPoolExecutor``, so no
test here starts more threads than it asks ``LEMON_THREADS`` for, and
none more than 4."""

import sys
import threading

import numpy as np
import pytest

from lemon import (ExpansionPlan, NumericsError, expand_model, model_forward,
                   read_checkpoint, verify_lossless, write_checkpoint)
from lemon import kernels, model, verify
from lemon.cli import main
from lemon.container import CheckpointReader
from lemon.rng import substream


def _pair(toy_model, tmp_path, **kw):
    """A toy checkpoint, its type1 expansion, and the carrier of the
    expansion's second group."""
    w, spec = toy_model(depth=2, width=8, **kw)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    write_checkpoint(w, spec, small)
    with CheckpointReader(small) as reader:
        _, dup = expand_model(reader, ExpansionPlan(12, 4, seed=5), big)
    return small, big, dup["blocks"][1]["index"]


@pytest.fixture
def pair(toy_model, tmp_path):
    return _pair(toy_model, tmp_path)


class _PoolLog:
    """What the stand-in pools saw: each pool's ``max_workers``, the task
    count of each ``map``, and the deepest nesting of maps."""

    def __init__(self):
        self.sizes, self.maps = [], []
        self.depth = self.deepest = 0


class _SerialPool:
    """Stands in for ``ThreadPoolExecutor``: records what ``log`` holds
    and maps in the calling thread."""

    def __init__(self, log: _PoolLog, max_workers: int):
        self.log = log
        log.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, items):
        items = list(items)
        log = self.log
        log.maps.append(len(items))
        log.depth += 1
        log.deepest = max(log.deepest, log.depth)
        try:
            return [fn(x) for x in items]
        finally:
            log.depth -= 1


@pytest.fixture
def pools(monkeypatch):
    """What the pools verify builds see, on a machine whose process may
    run on 3 cores, with ``LEMON_THREADS`` unset."""
    log = _PoolLog()
    monkeypatch.setattr(verify, "ThreadPoolExecutor",
                        lambda max_workers: _SerialPool(log, max_workers))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.delenv("LEMON_THREADS", raising=False)
    return log


@pytest.fixture
def no_gates(monkeypatch):
    """Any model takes the pool, and any kernel call splits."""
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)


@pytest.mark.parametrize("samples, split", [(2, True), (3, False), (5, False)])
def test_default_count_is_the_cores(pair, pools, no_gates, samples, split):
    small, big, _ = pair
    assert verify_lossless(small, big, samples=samples, seed=0, tol=None).passed
    assert pools.sizes == [3]
    # the sample pool maps every sample at once; the kernels map a head
    # group per worker (2 heads small, 3 big) and a slab per worker
    assert set(pools.maps) == ({2, 3} if split else {samples})


def test_empty_lemon_threads_reads_as_unset(pair, pools, no_gates, monkeypatch, capsys):
    monkeypatch.setenv("LEMON_THREADS", "")
    small, big, _ = pair
    assert main(["verify", "--small", str(small), "--big", str(big), "--samples", "5"]) == 0
    assert capsys.readouterr().err == ""
    assert pools.sizes == [3]  # the default count, not a usage error


def test_without_sched_getaffinity_the_cpu_count_is_the_count(pair, pools, no_gates,
                                                              monkeypatch):
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    small, big, _ = pair
    verify_lossless(small, big, samples=6, seed=0, tol=None)
    verify_lossless(small, big, samples=3, seed=0, tol=None)
    assert pools.sizes == [4, 4]


@pytest.mark.parametrize("threads, samples, want",
                         [("2", 5, 2), ("4", 3, 4), ("3", 1, 3), ("1", 4, None)])
def test_lemon_threads_sets_the_count(pair, pools, monkeypatch, threads, samples, want):
    # the tiny pair is below the work gate: a set LEMON_THREADS is not gated
    monkeypatch.setenv("LEMON_THREADS", threads)
    small, big, _ = pair
    verify_lossless(small, big, samples=samples, seed=0, tol=None)
    assert pools.sizes == ([] if want is None else [want])


def test_huge_lemon_threads_asks_for_no_more_workers_than_a_call_has_parts(
        pair, pools, no_gates, monkeypatch):
    monkeypatch.setenv("LEMON_THREADS", "100000")
    small, big, _ = pair
    assert verify_lossless(small, big, samples=3, seed=0, tol=None).passed
    assert pools.sizes == [100000]  # a pool starts a thread only for a task
    # each head map has a task per head (2 small, 3 big), each slab map
    # one per column, up to the widest product: the big hidden_dim, 24
    assert {2, 3} <= set(pools.maps) and max(pools.maps) == 24


def test_split_ranges_cover_the_units_in_order(monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 10)
    assert kernels.split_ranges(7, 10**9) == [(0, 7)]  # no pool on this thread
    with kernels.split_on(_SerialPool(_PoolLog(), 100000), 100000):
        assert kernels.split_ranges(5, 10**9) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert kernels.split_ranges(7, 35) == [(0, 2), (2, 4), (4, 7)]  # one per 10
        assert kernels.split_ranges(7, 19) == [(0, 7)]
    with kernels.split_on(_SerialPool(_PoolLog(), 2), 2):
        assert kernels.split_ranges(7, 10**9) == [(0, 3), (3, 7)]
    assert kernels._split.pool is None


def test_a_model_below_the_gate_builds_no_pool(pair, pools):
    small, big, _ = pair
    assert verify_lossless(small, big, samples=8, seed=0, tol=None).passed
    assert verify_lossless(small, big, samples=1, seed=0, tol=None).passed
    assert pools.sizes == []


def test_sample_work_counts_each_models_rows(toy_spec):
    token = toy_spec(width=8, ratio=2.0)
    vision = toy_spec(width=8, ratio=2.0, input_kind="vision", patch_dim=5,
                      num_patches=6, vocab=3)
    assert verify._sample_work(token, 16) == 16 * 8 * 16
    # the class token is a row too; seq_len is not a vision model's
    assert verify._sample_work(vision, 16) == 7 * 8 * 16


@pytest.mark.parametrize("samples", [1, 2])
def test_matmul_loop_is_chosen_before_the_pool_is_built(pair, no_gates, monkeypatch,
                                                        samples):
    # else the pool's first threads would each run the probe
    monkeypatch.setenv("LEMON_THREADS", "2")
    monkeypatch.setattr(kernels, "_inner", None)
    chosen = []
    monkeypatch.setattr(verify, "ThreadPoolExecutor", lambda max_workers:
                        chosen.append(kernels._inner) or _SerialPool(_PoolLog(), max_workers))
    small, big, _ = pair
    verify_lossless(small, big, samples=samples, seed=0, tol=None)
    assert chosen == [kernels._inner] and chosen[0] is not None


def test_one_sample_on_two_workers_splits_and_gives_the_one_thread_report(
        pair, pools, no_gates, monkeypatch):
    small, big, _ = pair
    monkeypatch.setenv("LEMON_THREADS", "1")
    one = verify_lossless(small, big, samples=1, seed=4, tol=None)
    assert pools.sizes == []
    monkeypatch.setenv("LEMON_THREADS", "2")
    assert verify_lossless(small, big, samples=1, seed=4, tol=None) == one
    assert pools.sizes == [2] and pools.maps and set(pools.maps) == {2}
    monkeypatch.undo()  # and on real threads
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
    monkeypatch.setenv("LEMON_THREADS", "2")
    assert verify_lossless(small, big, samples=1, seed=4, tol=None) == one


def test_a_matmul_inside_a_head_task_runs_unsplit(toy_model, monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
    w, spec = toy_model(width=12)  # 3 heads
    x = substream(0, "x").standard_normal((5, 12))
    attn = w.blocks[0].attn
    want = model.mha_forward(x, attn, spec)
    log = _PoolLog()
    with kernels.split_on(_SerialPool(log, 3), 3):
        got = model.mha_forward(x, attn, spec)
    assert np.array_equal(got, want)
    # the heads' map, then wo's slabs; the stand-in runs tasks on this
    # thread, so a task's own matmuls would show as a nested map
    assert log.maps == [3, 3] and log.deepest == 1


def test_default_report_is_the_one_thread_report(pair, no_gates, monkeypatch):
    small, big, _ = pair
    monkeypatch.setenv("LEMON_THREADS", "1")
    one = verify_lossless(small, big, samples=5, seed=4, tol=None)
    monkeypatch.delenv("LEMON_THREADS")
    assert verify_lossless(small, big, samples=5, seed=4, tol=None) == one


@pytest.mark.parametrize("samples", [1, 8])
def test_more_threads_than_cores_switching_often_give_the_one_thread_report(
        pair, monkeypatch, samples):
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
    small, big, _ = pair
    monkeypatch.setenv("LEMON_THREADS", "1")
    one = verify_lossless(small, big, samples=samples, seed=2, tol=None)
    monkeypatch.setenv("LEMON_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert verify_lossless(small, big, samples=samples, seed=2, tol=None) == one
    finally:
        sys.setswitchinterval(interval)


def _with_nan(big, tmp_path, poison) -> str:
    w, spec = read_checkpoint(big)
    poison(w)
    bad = tmp_path / "bad.lmn"
    write_checkpoint(w, spec, bad)
    return bad


def test_threads_are_joined_after_a_pass_and_after_an_error(pair, no_gates, monkeypatch,
                                                            tmp_path):
    monkeypatch.setenv("LEMON_THREADS", "3")
    small, big, carrier = pair
    baseline = threading.active_count()
    assert verify_lossless(small, big, samples=3, seed=0, tol=None).passed
    assert threading.active_count() == baseline

    # an evaluated module's NaN raises in a worker, partway through
    def poison(w):
        w.blocks[carrier].mlp.w1[0, 0] = np.nan

    with pytest.raises(NumericsError):
        verify_lossless(small, _with_nan(big, tmp_path, poison), samples=3, seed=0, tol=None)
    assert threading.active_count() == baseline


def test_a_nan_in_a_head_task_is_a_numerics_error_and_threads_are_joined(
        pair, no_gates, monkeypatch, tmp_path):
    monkeypatch.setenv("LEMON_THREADS", "2")
    small, big, carrier = pair
    baseline = threading.active_count()

    def poison(w):  # the last head runs in the second group's task
        w.blocks[carrier].attn.heads[-1].wq[0, 0] = np.nan

    with pytest.raises(NumericsError, match="matmul"):
        verify_lossless(small, _with_nan(big, tmp_path, poison), samples=1, seed=0, tol=None)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_malformed_lemon_threads_is_a_usage_error(pair, monkeypatch, capsys, value):
    monkeypatch.setenv("LEMON_THREADS", value)
    small, big, _ = pair
    code = main(["verify", "--small", str(small), "--big", str(big), "--samples", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and "PASS" not in out
    assert err.count("\n") == 1 and "LEMON_THREADS" in err and repr(value) in err


@pytest.mark.parametrize("kind", [{}, dict(input_kind="vision", patch_dim=5, num_patches=6,
                                           vocab=3)], ids=["token", "vision"])
def test_report_and_logits_do_not_depend_on_the_thread_layout(toy_model, tmp_path,
                                                              no_gates, monkeypatch, kind):
    small, big, _ = _pair(toy_model, tmp_path, **kind)
    logits = {}
    real = verify._decoded

    def decoded(reader, xs, each):
        logits[str(reader.path)] = real(reader, xs, each)
        return logits[str(reader.path)]

    monkeypatch.setattr(verify, "_decoded", decoded)
    models = {p: read_checkpoint(p) for p in (small, big)}
    for samples in (1, 2, 5):
        reports = []
        for threads in (None, "1", "2", "3"):
            if threads is None:
                monkeypatch.delenv("LEMON_THREADS", raising=False)
            else:
                monkeypatch.setenv("LEMON_THREADS", threads)
            reports.append(verify_lossless(small, big, samples=samples, seed=6, tol=None))
            for path, (w, spec) in models.items():
                assert len(logits[str(path)]) == samples
                for i, got in enumerate(logits[str(path)]):
                    x = verify._draw_input(spec, substream(6, "verify", i), 16)
                    want = model_forward(x, w, spec)
                    assert got.tobytes() == want.tobytes(), (samples, threads, path, i)
        assert all(r == reports[0] for r in reports), samples

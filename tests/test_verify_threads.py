"""How many threads ``verify`` runs its samples on.

By default one per sample, up to the cores the process may run on, and
none but the caller's own for a model below ``verify._PARALLEL_WORK``;
``LEMON_THREADS=N`` sets the count, still at most one per sample.  Pool
sizes are read from a stand-in for ``ThreadPoolExecutor``, so no test
here starts more threads than it has samples."""

import sys
import threading

import numpy as np
import pytest

from lemon import (ExpansionPlan, NumericsError, expand_model, read_checkpoint,
                   verify_lossless, write_checkpoint)
from lemon import kernels, verify
from lemon.cli import main


@pytest.fixture
def pair(toy_model, tmp_path):
    """A toy checkpoint and its type1 expansion, and the carrier of the
    expansion's second group."""
    w, spec = toy_model(depth=2, width=8)
    small, big = tmp_path / "small.lmn", tmp_path / "big.lmn"
    write_checkpoint(w, spec, small)
    _, _, dup = expand_model(w, spec, ExpansionPlan(12, 4, seed=5), out=big)
    return small, big, dup["blocks"][1]["index"]


class _SerialPool:
    """Stands in for ``ThreadPoolExecutor``: records ``max_workers`` and
    maps in the calling thread."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every pool verify builds, on a machine
    whose process may run on 3 cores, with ``LEMON_THREADS`` unset."""
    sizes = []
    monkeypatch.setattr(verify, "ThreadPoolExecutor",
                        lambda max_workers: _SerialPool(sizes, max_workers))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.delenv("LEMON_THREADS", raising=False)
    return sizes


@pytest.mark.parametrize("samples, want", [(2, 2), (3, 3), (5, 3)])
def test_default_is_one_thread_per_sample_up_to_the_cores(pair, pools, monkeypatch,
                                                          samples, want):
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    small, big, _ = pair
    assert verify_lossless(small, big, samples=samples, seed=0, tol=None).passed
    assert pools == [want]


def test_empty_lemon_threads_reads_as_unset(pair, pools, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    monkeypatch.setenv("LEMON_THREADS", "")
    small, big, _ = pair
    assert main(["verify", "--small", str(small), "--big", str(big), "--samples", "5"]) == 0
    assert capsys.readouterr().err == ""
    assert pools == [3]  # the default count, not a usage error


def test_without_sched_getaffinity_the_cpu_count_is_the_cap(pair, pools, monkeypatch):
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    small, big, _ = pair
    verify_lossless(small, big, samples=6, seed=0, tol=None)
    verify_lossless(small, big, samples=3, seed=0, tol=None)
    assert pools == [4, 3]


@pytest.mark.parametrize("threads, samples, want",
                         [("2", 5, 2), ("4", 3, 3), ("100000", 3, 3), ("3", 1, None)])
def test_lemon_threads_sets_the_count_up_to_the_samples(pair, pools, monkeypatch,
                                                        threads, samples, want):
    # the tiny pair is below the work gate: a set LEMON_THREADS is not gated
    monkeypatch.setenv("LEMON_THREADS", threads)
    small, big, _ = pair
    verify_lossless(small, big, samples=samples, seed=0, tol=None)
    assert pools == ([] if want is None else [want])


def test_a_model_below_the_gate_builds_no_pool(pair, pools):
    small, big, _ = pair
    assert verify_lossless(small, big, samples=8, seed=0, tol=None).passed
    assert pools == []


def test_sample_work_counts_each_models_rows(toy_spec):
    token = toy_spec(width=8, ratio=2.0)
    vision = toy_spec(width=8, ratio=2.0, input_kind="vision", patch_dim=5,
                      num_patches=6, vocab=3)
    assert verify._sample_work(token, 16) == 16 * 8 * 16
    # the class token is a row too; seq_len is not a vision model's
    assert verify._sample_work(vision, 16) == 7 * 8 * 16


def test_matmul_loop_is_chosen_before_the_pool_is_built(pair, monkeypatch):
    # else the pool's first threads would each run the probe
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    monkeypatch.setattr(kernels, "_inner", None)
    chosen = []
    monkeypatch.setattr(verify, "ThreadPoolExecutor", lambda max_workers:
                        chosen.append(kernels._inner) or _SerialPool([], max_workers))
    small, big, _ = pair
    verify_lossless(small, big, samples=2, seed=0, tol=None)
    assert chosen == [kernels._inner] and chosen[0] is not None


def test_default_report_is_the_one_thread_report(pair, monkeypatch):
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    small, big, _ = pair
    monkeypatch.setenv("LEMON_THREADS", "1")
    one = verify_lossless(small, big, samples=5, seed=4, tol=None)
    monkeypatch.delenv("LEMON_THREADS")
    assert verify_lossless(small, big, samples=5, seed=4, tol=None) == one


def test_more_threads_than_cores_switching_often_give_the_one_thread_report(
        pair, monkeypatch):
    small, big, _ = pair
    monkeypatch.setenv("LEMON_THREADS", "1")
    one = verify_lossless(small, big, samples=8, seed=2, tol=None)
    monkeypatch.setenv("LEMON_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert verify_lossless(small, big, samples=8, seed=2, tol=None) == one
    finally:
        sys.setswitchinterval(interval)


def test_threads_are_joined_after_a_pass_and_after_an_error(pair, monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "_PARALLEL_WORK", 0)
    monkeypatch.setenv("LEMON_THREADS", "3")
    small, big, carrier = pair
    baseline = threading.active_count()
    assert verify_lossless(small, big, samples=3, seed=0, tol=None).passed
    assert threading.active_count() == baseline

    # an evaluated module's NaN raises in a worker, partway through
    w, spec = read_checkpoint(big)
    w.blocks[carrier].mlp.w1[0, 0] = np.nan
    bad = tmp_path / "bad.lmn"
    write_checkpoint(w, spec, bad)
    with pytest.raises(NumericsError):
        verify_lossless(small, bad, samples=3, seed=0, tol=None)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_malformed_lemon_threads_is_a_usage_error(pair, monkeypatch, capsys, value):
    monkeypatch.setenv("LEMON_THREADS", value)
    small, big, _ = pair
    code = main(["verify", "--small", str(small), "--big", str(big), "--samples", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and "PASS" not in out
    assert err.count("\n") == 1 and "LEMON_THREADS" in err and repr(value) in err

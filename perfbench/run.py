"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload grow-base --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles of the workload and
prints the per-layer metrics, including the tracing overhead, and writes
every span to ``.perfbench-out/``.  Temporary checkpoints go to a
``.perfbench-tmp-*`` directory in the checkout, removed on exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance and per-operation sample statistics.  The exit
code is 0 whenever that line is printed, and 2 when the package cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: glibc's ceiling for its dynamic mmap threshold on 64-bit (32 MiB)
_MMAP_THRESHOLD = 32 * 1024 * 1024
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def pin_malloc() -> bool:
    """Fix glibc's allocator thresholds for the whole run.

    By default glibc raises its mmap threshold each time a large block is
    freed and trims the heap whenever its free top grows past twice that,
    so whether an operation reuses memory or faults in fresh pages depends
    on what the operations before it freed: repeated verifies of one pair
    came out either near 3.2 s or near 4.5 s.  Here the mmap threshold
    starts at its ceiling and trimming is off, so after the warm-up every
    operation reuses heap memory (blocks over 32 MiB, such as the raw
    checkpoint bytes, are still mapped fresh each time).  Returns False
    where the C library has no ``mallopt``.
    """
    try:
        libc = ctypes.CDLL(None)
        return bool(libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                    and libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1))
    except (OSError, AttributeError):
        return False


class Terminated(BaseException):
    """SIGTERM arrived.  Not an ``Exception`` and not ``SystemExit``, so
    neither the per-operation failure handler nor the CLI wrapper (which
    turns argparse's ``SystemExit`` into an exit code) can swallow it."""


def _terminate(signum, frame):
    raise Terminated()


def import_lemon():
    """Import ``lemon`` from this checkout's ``src``, or exit with code 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lemon
    except ImportError as exc:
        print(f"perfbench: cannot import lemon from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(lemon.__file__).resolve().parent != ROOT / "src" / "lemon":
        print(f"perfbench: imported lemon from {lemon.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)
    return lemon


def l3_cache() -> str | None:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def provenance(seed: int, lemon_threads: str | None, malloc_pinned: bool) -> dict:
    import numpy
    import scipy
    from lemon import kernels
    inner = kernels._inner
    if inner is None:
        inner = kernels._einsum if kernels._einsum_is_trustworthy() else kernels._multiply_then_sum
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "l3_cache": l3_cache(),
        # the value found in the environment; the benchmark clears it
        "LEMON_THREADS": lemon_threads,
        "seed": seed,
        "matmul_path": "einsum (non-BLAS)" if inner.__name__ == "_einsum" else "multiply-then-sum",
        "malloc_pinned": malloc_pinned,
        "NUMPY_MADVISE_HUGEPAGE": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def sample_stats(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def run_workload(workload, run, seconds: float, tracer) -> dict[bool, list[float]]:
    """Setup, window, closing operations and final checks.  Returns the op
    seconds of each untraced (False) and traced (True) cycle."""
    workload.setup(run)
    cycles: dict[bool, list[float]] = {False: [], True: []}
    deadline = perf_counter() + seconds
    traced = False
    while True:
        run.cycle_op_s = 0.0
        if traced:
            with tracer:
                run.tracer = tracer
                workload.cycle(run)
                run.tracer = None
        else:
            workload.cycle(run)
        cycles[traced].append(run.cycle_op_s)
        traced = tracer is not None and not traced
        # in trace mode both kinds of cycle must have run at least once
        if perf_counter() >= deadline and (tracer is None or all(cycles.values())):
            break
    if tracer is not None:
        with tracer:
            run.tracer = tracer
            workload.closing(run)
            workload.final_checks(run)
            run.tracer = None
    else:
        workload.closing(run)
        workload.final_checks(run)
    run.sample_probes(now=True)
    return cycles


def setup_seconds(run, scaled: bool = True) -> float:
    """Median setup pass plus the warm-up."""
    return (statistics.median(run.seconds("setup_pass", scaled))
            + sum(run.seconds("warm_up", scaled)))


def end_to_end_metrics(run) -> dict | None:
    """``{name: (value, unit)}`` for every end-to-end metric, times scaled
    by their probe, or None when some operation kind never completed."""
    import workloads
    metrics = {"setup_s": (setup_seconds(run), "s")}
    for kind, name in workloads.OP_METRICS.items():
        if not run.intervals.get(kind):
            print(f"perfbench: no completed {kind} operation", file=sys.stderr)
            return None
        metrics[name] = (statistics.median(run.seconds(kind)), "s")
    if run.peak_rss_mb is None:
        print("perfbench: the fresh-process operation did not run", file=sys.stderr)
        return None
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return metrics


def sample_detail(run) -> dict:
    """Per kind: raw and scaled sample statistics; the probe readings."""
    out = {kind: {"raw": sample_stats(run.seconds(kind, scaled=False)),
                  "scaled": sample_stats(run.seconds(kind))}
           for kind in sorted(run.intervals) if run.intervals[kind]}
    out["setup_s"] = {"raw": setup_seconds(run, scaled=False), "scaled": setup_seconds(run)}
    out["probes"] = {name: {"readings": len(p.readings),
                            "median_s": statistics.median(p.readings), "nominal_s": p.nominal_s}
                     for name, p in run.probes.items()}
    return out


def per_layer_metrics(tracer, run, cycles) -> tuple[dict, dict]:
    """``{name: (value, unit)}`` for every per-layer metric, and the trace
    detail: cycle times, tracing overhead and per-kind coverage."""
    from layers import PER_LAYER
    overhead = statistics.median(cycles[True]) - statistics.median(cycles[False])
    units = {m[0]: m[1] for m in PER_LAYER}
    metrics = {name: (value, units[name])
               for name, value in tracer.layer_metrics(overhead).items()}
    detail = {"cycles_untraced_s": cycles[False], "cycles_traced_s": cycles[True],
              "overhead_s": overhead, "coverage": tracer.coverage(run.op_seconds)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grow-base", "verify-base", "sweep-small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # one process, one thread: verify's thread pool stays off
    lemon_threads = os.environ.pop("LEMON_THREADS", None)
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the host's memory, and it made the same
    # verify-base run peak at 1.6 GB or 2.3 GB
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    malloc_pinned = pin_malloc()
    import_lemon()
    import workloads
    from tracer import Tracer

    signal.signal(signal.SIGTERM, _terminate)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        workload = workloads.make(args.workload, args.seed)
        run = workloads.Run(tmp, workload.PROBE_FOR)
        tracer = Tracer() if args.trace else None
        cycles = run_workload(workload, run, args.seconds, tracer)
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 143
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail = {"workload": args.workload,
              "provenance": provenance(args.seed, lemon_threads, malloc_pinned),
              "samples": sample_detail(run),
              "failures": run.failures[:20]}
    if tracer is None:
        metrics = end_to_end_metrics(run)
        if metrics is None:
            return 1
    else:
        metrics, detail["trace"] = per_layer_metrics(tracer, run, cycles)
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write_spans(f"{stem}-spans.tsv.gz")
        Path(f"{stem}-trace.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
        detail["spans_file"] = f"{stem.name}-spans.tsv.gz"

    print(json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

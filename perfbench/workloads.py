"""The benchmark's three workloads and the state of one run.

Each workload is a closed loop with one client: it sends its next
operation only when the previous one has returned.  An operation is one
``lemon.cli.main([...])`` call made in-process, or one call of a public
library function where no CLI command exists (the CNN bottleneck
expander).  Every operation's output is checked; a failed check counts
the operation as failed.

A run of a workload has four phases:

1. *setup*: ``SETUP_PASSES`` passes in fresh directories, each writing the
   source checkpoints with ``lemon init-random`` and, for verify-base, the
   expanded pair; then a warm-up, one call of each primary operation
   (verify-base writes its negative control instead).  ``setup_s`` is the
   median pass plus the warm-up.
2. *window*: the workload's primary cycle, repeated until ``--seconds``
   have passed.
3. *closing operations*: each operation kind the cycle does not run,
   ``CLOSING_REPEATS`` times, on this workload's own checkpoints, so every
   workload reports every end-to-end metric.
4. *final checks*, untimed.  One of them runs the workload's primary
   command in a fresh process (``child.py``); that process's peak RSS is
   ``peak_rss_mb``, because the benchmark's own process keeps freed heap
   (see ``pin_malloc`` in ``run.py``) and its peak depended on heap layout.

Functions are always called through their ``lemon`` module attribute
(``lcnn.expand_cnn_bottleneck``, never a local import), because that is
the binding the tracer wraps.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import lemon.cli as lcli
import lemon.cnn as lcnn
import lemon.container as lcontainer
from lemon.rng import substream
from probe import PROBES

SETUP_PASSES = 3
#: times each closing operation runs, so its metric is a median too (the
#: closing verify of grow-base, at about 3 s, runs once)
CLOSING_REPEATS = 5

CHILD = Path(__file__).resolve().parent / "child.py"

#: operation kind -> the end-to-end metric its median time is reported as
OP_METRICS = {
    "expand": "expand_s",
    "cnn_expand": "cnn_expand_s",
    "verify": "verify_s",
    "symmetry": "symmetry_s",
    "inspect": "inspect_s",
    "init_random": "init_random_s",
    "schedule": "schedule_s",
}

#: the bert-scratch preset, as documented for ``lemon schedule``
SCHEDULE_PRESET = "bert-scratch"
SCHEDULE_SPEC = {"max_lr": 2e-4, "min_lr": 2e-5, "warmup": 5000, "total": 220_000}

_SYMMETRY_LINE = re.compile(r"^block\s+\d+ \S+\s+source\s+\d+ replicas \[.*\] "
                            r"min_distance (\S+)$")
_INSPECT_TOTAL = re.compile(r"^(\d+) tensors, (\d+) payload bytes$")


class CheckError(Exception):
    """An operation's output failed its check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    peak_rss_kb: int = 0    # set for a command run in a fresh process


def cli(*argv) -> CliResult:
    """One in-process ``lemon`` command with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lcli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def fresh_process(*argvs) -> CliResult:
    """``lemon`` commands run one after another in a fresh Python process."""
    argvs = [[str(a) for a in argv] for argv in argvs]
    r = subprocess.run([sys.executable, str(CHILD), json.dumps(argvs)],
                       capture_output=True, text=True, timeout=170)
    *err, last = r.stderr.splitlines() or [""]
    expect(last.startswith("peak_rss_kb="), f"fresh process reported no peak: {r.stderr[-300:]}")
    return CliResult(r.returncode, r.stdout, "\n".join(err), int(last.split("=")[1]))


def expect_exit(result: CliResult, code: int, what: str) -> None:
    expect(result.code == code,
           f"{what} exited {result.code}, want {code}: {result.err.strip()[:200]}")


def same_bytes(a: Path, b: Path, chunk: int = 1 << 24) -> bool:
    """True when two files hold identical bytes."""
    if os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(chunk), fb.read(chunk)
            if x != y:
                return False
            if not x:
                return True


def check_schedule_csv(path: Path, spec: dict) -> None:
    """``total + 1`` rows, exactly ``max_lr`` at ``warmup`` and ``min_lr``
    at ``total``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = fh.read().splitlines()
    expect(header == "step,lr", f"schedule header {header!r}")
    expect(len(rows) == spec["total"] + 1,
           f"schedule has {len(rows)} rows, want {spec['total'] + 1}")
    for step, want in ((spec["warmup"], spec["max_lr"]), (spec["total"], spec["min_lr"])):
        t, lr = rows[step].split(",")
        expect(int(t) == step and float(lr) == want,
               f"schedule row {step} is {rows[step]!r}, want lr {want!r}")


def symmetry_distances(result: CliResult) -> list[float]:
    expect_exit(result, 0, "symmetry")
    dists = []
    for line in result.out.splitlines():
        m = _SYMMETRY_LINE.match(line)
        expect(m is not None, f"unexpected symmetry line {line!r}")
        dists.append(float(m.group(1)))
    expect(bool(dists), "symmetry reported no replica groups")
    return dists


def inspect_tensor_count(result: CliResult) -> int:
    expect_exit(result, 0, "inspect")
    lines = result.out.strip().splitlines()
    m = _INSPECT_TOTAL.match(lines[-1]) if lines else None
    expect(m is not None and int(m.group(2)) > 0, "inspect printed no tensor total")
    return int(m.group(1))


def expected_tensor_count(config: dict, depth: int) -> int:
    """Tensors in a checkpoint of ``config`` at ``depth`` (container schema)."""
    width, head_dim = config["width"], config["head_dim"]
    rms = config["norm_style"] == "rms_pre"
    norm = 2 if rms else 3                       # mu, (beta,) eps
    per_block = (width // head_dim) * 6 + 2 + 2 * norm + 4
    emb = 4 if config.get("input_kind") == "vision" else 1
    final = norm if config["norm_style"] in ("pre_ln", "rms_pre") else 0
    decoder = 1 if config.get("tied_decoder") else 2
    return emb + depth * per_block + final + decoder


def cnn_max_diff(src: list, grown: list, seed: int, hw: int) -> float:
    """Largest output difference between source and grown bottlenecks on
    seeded inputs of spatial size ``hw``."""
    worst = 0.0
    for i, (a, b) in enumerate(zip(src, grown)):
        x = substream(seed, "cnn-input", i).standard_normal((a.conv1.weight.shape[1], hw, hw))
        diff = np.abs(lcnn.bottleneck_forward(x, a) - lcnn.bottleneck_forward(x, b))
        worst = max(worst, float(diff.max()))
    return worst


def cnn_stack(stages, seed: int) -> list:
    """Bottlenecks for ``(outer, inner, count)`` stages, kernel 3."""
    blocks = []
    for outer, inner, count in stages:
        for _ in range(count):
            blocks.append(lcnn.random_bottleneck(outer, inner, 3,
                                                 substream(seed, "cnn", len(blocks))))
    return blocks


def cnn_expand(stack: list, growth: float, seed: int) -> list:
    return [lcnn.expand_cnn_bottleneck(b, int(round(b.conv1.weight.shape[0] * growth)),
                                       substream(seed, "cnn-grow", i))
            for i, b in enumerate(stack)]


def check_cnn_shapes(stack: list, grown: list, growth: float) -> None:
    expect(len(grown) == len(stack), "CNN stack lost blocks")
    for a, b in zip(stack, grown):
        want = int(round(a.conv1.weight.shape[0] * growth))
        expect(b.conv1.weight.shape[0] == want and b.conv3.weight.shape[1] == want,
               "grown bottleneck has the wrong inner width")


# ---------------------------------------------------------------------------
# the state of one run


class Run:
    """Counters, timings, speed probe and optional tracer of one run."""

    def __init__(self, tmp: Path, probe_for: dict[str, str]):
        self.tmp = tmp
        #: operation kind ("setup" for the setup passes and warm-up) -> the
        #: speed probe its times are scaled by
        self.probe_for = probe_for
        self.probes = {name: PROBES[name]() for name in sorted(set(probe_for.values()))}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: kind -> (start, end, excluded seconds) of each timed operation;
        #: also the setup passes ("setup_pass") and the warm-up ("warm_up")
        self.intervals: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.tracer = None          # set while a traced section runs
        self.op_seconds: dict[int, float] = {}
        self.cycle_op_s = 0.0       # raw op seconds of the current cycle
        self.bench_s = 0.0          # the benchmark's own work: gc, probe, checks
        self.peak_rss_mb = None     # of the fresh process in the final checks

    def seconds(self, kind: str, scaled: bool = True) -> list[float]:
        """Durations of ``kind`` without the benchmark's own work; scaled to
        the nominal speed of the kind's probe unless ``scaled`` is False."""
        name = self.probe_for.get("setup" if kind in ("setup_pass", "warm_up") else kind)
        probe = self.probes[name] if scaled and name else None
        return [(end - start - excluded) * (probe.scale(start, end) if probe else 1.0)
                for start, end, excluded in self.intervals[kind]]

    def sample_probes(self, now: bool = False) -> None:
        """A reading from every probe: now, or where its interval has passed."""
        for probe in self.probes.values():
            if now:
                probe.sample()
            else:
                probe.maybe_sample()

    def bench_work(self, fn) -> None:
        """Run the benchmark's own work and count its time in ``bench_s``."""
        start = perf_counter()
        try:
            fn()
        finally:
            self.bench_s += perf_counter() - start

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        msg = f"{what}: {exc}"
        self.failures.append(msg)
        print(f"FAILED {msg}", file=sys.stderr)
        if not isinstance(exc, CheckError):
            traceback.print_exception(exc, file=sys.stderr)

    @contextlib.contextmanager
    def timed(self, kind: str):
        """Record the block's interval under ``kind``, minus the benchmark's
        own work inside it, with probe readings on both sides."""
        self.sample_probes()
        before = self.bench_s
        start = perf_counter()
        yield
        end = perf_counter()
        self.intervals[kind].append((start, end, self.bench_s - before))
        self.sample_probes()

    @contextlib.contextmanager
    def traced(self, kind: str):
        if self.tracer is None:
            yield
            return
        op_id = self.tracer.begin_op(kind)
        start = perf_counter()
        try:
            yield
        finally:
            self.op_seconds[op_id] = perf_counter() - start
            self.tracer.end_op()

    def op(self, kind: str, fn, check=None, timed: bool = True):
        """Run, time and check one operation.  Returns its result, or
        None when it raised or failed its check."""
        self.attempted += 1
        self.bench_work(gc.collect)
        self.bench_work(self.sample_probes)
        try:
            with self.traced(kind):
                start = perf_counter()
                result = fn()
                end = perf_counter()
            if timed:
                self.intervals[kind].append((start, end, 0.0))
                self.cycle_op_s += end - start
            self.bench_work(self.sample_probes)
            if check is not None:
                with self.traced("check"):
                    self.bench_work(lambda: check(result))
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.fail(kind, exc)
            return None
        return result

    def fresh_op(self, kind: str, argvs: list, check) -> None:
        """Untimed ``lemon`` commands in a fresh process; that process's
        peak RSS is the run's ``peak_rss_mb``."""
        def call():
            r = fresh_process(*argvs)
            self.peak_rss_mb = r.peak_rss_kb / 1024
            return r

        self.op(kind, call, check, timed=False)

    def late_check(self, what: str, fn) -> None:
        """An untimed check of an operation already counted as attempted."""
        try:
            with self.traced("check"):
                fn()
        except Exception as exc:  # counted against the checked operation
            self.fail(what, exc)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base class: repeated setup passes, then cycle/closing/final checks."""

    name = ""
    why = ""
    #: operation kind ("setup" for setup_s) -> the speed probe that scales
    #: its times (see probe.py): headline-size operations move hundreds of
    #: megabytes and follow the memory probe; the schedule command is an
    #: interpreter loop
    PROBE_FOR = {**{kind: "memory" for kind in (*OP_METRICS, "setup")},
                 "schedule": "interpreter"}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, run: Run) -> None:
        """Build the inputs ``SETUP_PASSES`` times, then warm up."""
        prev = None
        for i in range(SETUP_PASSES):
            d = run.tmp / f"setup{i}"
            d.mkdir()
            with run.timed("setup_pass"):
                self.build(run, d, prev)
            if prev is not None:
                shutil.rmtree(prev)
            prev = d
        self.dir = prev
        with run.timed("warm_up"):
            self.warm_up(run)

    def build(self, run: Run, d: Path, prev: Path | None) -> None:
        raise NotImplementedError

    def warm_up(self, run: Run) -> None:
        """The first call of each primary operation, checked but not timed:
        it grows the heap the later calls reuse."""
        raise NotImplementedError

    def cycle(self, run: Run) -> None:
        raise NotImplementedError

    def closing(self, run: Run) -> None:
        pass

    def final_checks(self, run: Run) -> None:
        pass

    def init_random(self, run: Run, config: dict, d: Path, prev: Path | None,
                    name: str, seed: int) -> Path:
        """``lemon init-random``; the checkpoint must equal the previous
        setup pass's byte for byte."""
        cfg, out = d / f"{name}.json", d / f"{name}.lmn"
        cfg.write_text(json.dumps(config), encoding="utf-8")

        def check(r):
            expect_exit(r, 0, "init-random")
            if prev is not None:
                expect(same_bytes(out, prev / out.name),
                       f"init-random of {name} differs between setup passes")

        run.op("init_random", lambda: cli("init-random", "--config", cfg, "--out", out,
                                          "--seed", seed), check)
        return out

    def schedule(self, run: Run, d: Path, timed: bool = True) -> None:
        out = d / "schedule.csv"

        def check(r):
            expect_exit(r, 0, "schedule")
            check_schedule_csv(out, SCHEDULE_SPEC)

        run.op("schedule", lambda: cli("schedule", "--preset", SCHEDULE_PRESET, "--out", out),
               check, timed)


@dataclass(frozen=True)
class HeadlineShape:
    """The paper's headline model and CNN shapes; tests pass toy ones."""

    width: int = 512
    depth: int = 6
    head_dim: int = 64
    mlp_ratio: float = 4.0
    vocab: int = 1000
    target_width: int = 768
    target_depth: int = 12
    seq_len: int = 16
    verify_samples: int = 2
    # ResNet-50's 16 bottlenecks: (outer, inner, count) per stage
    cnn_stages: tuple = ((256, 64, 3), (512, 128, 4), (1024, 256, 6), (2048, 512, 3))
    cnn_growth: float = 1.5
    cnn_check_hw: int = 2

    def config(self, width: int | None = None) -> dict:
        return {"norm_style": "pre_ln", "depth": self.depth,
                "width": self.width if width is None else width,
                "head_dim": self.head_dim, "mlp_ratio": self.mlp_ratio,
                "vocab_or_classes": self.vocab, "dtype": "float64"}


class BigModelWorkload(Workload):
    """Shared pieces of the two headline-shape workloads."""

    def __init__(self, seed: int, shape: HeadlineShape):
        super().__init__(seed)
        self.shape = shape
        self.grown_stack = None

    def expand_argv(self, src: Path, out: Path) -> list:
        raise NotImplementedError

    def expand_op(self, run: Run, src: Path, out: Path, ref: Path | None, timed: bool = True):
        """``lemon expand``; with ``ref``, checkpoint and sidecar must equal it."""
        def check(r):
            expect_exit(r, 0, "expand")
            if ref is not None:
                expect(same_bytes(out, ref), "same-seed expand wrote a different checkpoint")
                expect(same_bytes(Path(f"{out}.duplicates.json"), Path(f"{ref}.duplicates.json")),
                       "same-seed expand wrote a different duplicate map")

        return run.op("expand", lambda: cli(*self.expand_argv(src, out)), check, timed)

    def cnn_op(self, run: Run, timed: bool = True) -> None:
        s = self.shape
        grown = run.op("cnn_expand", lambda: cnn_expand(self.stack, s.cnn_growth, self.seed),
                       lambda g: check_cnn_shapes(self.stack, g, s.cnn_growth), timed)
        if grown is not None:
            self.grown_stack = grown

    def verify_op(self, run: Run, small: Path, big: Path, samples: int,
                  timed: bool = True) -> None:
        run.op("verify", lambda: cli("verify", "--small", small, "--big", big,
                                     "--samples", samples, "--seq-len", self.shape.seq_len,
                                     "--seed", self.seed, "--tol", "1e-10"),
               _expect_pass, timed)

    def symmetry_op(self, run: Run, ckpt: Path) -> None:
        def check(r):
            expect(min(symmetry_distances(r)) > 0.0,
                   "lemon policy left replicas with identical fan-out")

        run.op("symmetry", lambda: cli("symmetry", "--ckpt", ckpt), check)

    def inspect_op(self, run: Run, ckpt: Path) -> None:
        s = self.shape
        want = expected_tensor_count(s.config(s.target_width), s.target_depth)

        def check(r):
            n = inspect_tensor_count(r)
            expect(n == want, f"inspect counted {n} tensors, want {want}")

        run.op("inspect", lambda: cli("inspect", ckpt), check)

    def init_random_op(self, run: Run) -> None:
        """init-random of the source again; it must reproduce it exactly."""
        regen = self.dir / "regenerated"
        regen.mkdir(exist_ok=True)
        self.init_random(run, self.shape.config(), regen, self.dir, "source", self.seed)

    def final_checks(self, run: Run) -> None:
        if self.grown_stack is None:
            return
        s = self.shape

        def check():
            diff = cnn_max_diff(self.stack, self.grown_stack, self.seed, s.cnn_check_hw)
            expect(diff <= 1e-10, f"grown CNN stack differs from the source by {diff:.3e}")

        run.late_check("cnn_expand output", check)


class GrowBase(BigModelWorkload):
    name = "grow-base"
    why = ("6x512 pre_ln grown to 12x768 (type2, lemon) plus a ResNet-50 bottleneck "
           "stack at 1.5x: expander, expand_ops, rng, cnn and checkpoint writes do the work")

    def build(self, run, d, prev):
        s = self.shape
        self.src = self.init_random(run, s.config(), d, prev, "source", self.seed)
        self.stack = cnn_stack(s.cnn_stages, self.seed)

    def expand_argv(self, src, out):
        s = self.shape
        return ["expand", "--in", src, "--out", out, "--target-width", s.target_width,
                "--target-depth", s.target_depth, "--depth-mode", "type2",
                "--seed", self.seed]

    def warm_up(self, run):
        # the warm-up output is the reference every later same-seed expand must equal
        self.ref = self.last = self.dir / "reference.lmn"
        self.expand_op(run, self.src, self.ref, None, timed=False)
        self.cnn_op(run, timed=False)

    def cycle(self, run):
        out = self.dir / "grown.lmn"
        if self.expand_op(run, self.src, out, self.ref) is not None:
            self.last = out
        self.cnn_op(run)

    def final_checks(self, run):
        super().final_checks(run)
        fresh = self.dir / "fresh-process.lmn"

        def check(r):
            expect_exit(r, 0, "expand in a fresh process")
            expect(same_bytes(fresh, self.ref), "a fresh process expanded to different bytes")

        run.fresh_op("expand_fresh_process", [self.expand_argv(self.src, fresh)], check)

    def closing(self, run):
        # the run's last output must be lossless; this verify is its check
        self.verify_op(run, self.src, self.last, 1)
        for _ in range(CLOSING_REPEATS):
            self.symmetry_op(run, self.last)
            self.inspect_op(run, self.last)
            self.schedule(run, self.dir)
            self.init_random_op(run)


class VerifyBase(BigModelWorkload):
    name = "verify-base"
    why = ("verify 6x384 against its 12x768 expansion at seq-len 16: the oracle forward "
           "(model, kernels) and reading the big checkpoint do the work")

    #: carrier block of the 12-block type1 expansion whose w2 the control perturbs
    CONTROL_BLOCK = 2
    CONTROL_DELTA = 1e-6

    def build(self, run, d, prev):
        s = self.shape
        self.src = self.init_random(run, s.config(), d, prev, "source", self.seed)
        self.big = d / "expanded.lmn"
        self.expand_op(run, self.src, self.big, None if prev is None else prev / self.big.name)
        self.stack = cnn_stack(s.cnn_stages, self.seed)

    def expand_argv(self, src, out):
        # the CLI defaults: type1 depth, lemon policy
        s = self.shape
        return ["expand", "--in", src, "--out", out, "--target-width", s.target_width,
                "--target-depth", s.target_depth, "--seed", self.seed]

    def warm_up(self, run):
        # the negative control is written once, from the last pass's pair
        # (the setup passes' expands already grew the heap verify reuses)
        self.control = self.dir / "control.lmn"
        write_control(self.big, self.control, f"blocks.{self.CONTROL_BLOCK}.mlp.w2",
                      self.CONTROL_DELTA)

    def cycle(self, run):
        self.verify_op(run, self.src, self.big, self.shape.verify_samples)

    def closing(self, run):
        for _ in range(CLOSING_REPEATS):
            self.cnn_op(run)
            self.symmetry_op(run, self.big)
            self.inspect_op(run, self.big)
            self.schedule(run, self.dir)
            self.init_random_op(run)

    def final_checks(self, run):
        super().final_checks(run)

        def check(r):
            expect(r.code == 1 and r.out.strip().endswith("FAIL"),
                   f"verify against the perturbed control exited {r.code} without FAIL")

        run.fresh_op("verify_control",
                     [["verify", "--small", self.src, "--big", self.control, "--samples", 1,
                       "--seq-len", self.shape.seq_len, "--seed", self.seed, "--tol", "1e-10"]],
                     check)


def write_control(src: Path, dst: Path, tensor: str, delta: float) -> None:
    """Copy a checkpoint and add ``delta`` to the first entry of ``tensor``."""
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as fh:
        head = fh.read(16)
        header_len = int.from_bytes(head[8:16], "little")
        _, table = lcontainer.read_header(head + fh.read(header_len), os.path.getsize(dst))
        entry = next(e for e in table if e["name"] == tensor)
        dtype = np.dtype("<f8" if entry["dtype"] == "f64" else "<f4")
        fh.seek(entry["byte_offset"])
        value = np.frombuffer(fh.read(dtype.itemsize), dtype=dtype) + dtype.type(delta)
        fh.seek(entry["byte_offset"])
        fh.write(value.tobytes())


# -- sweep-small -------------------------------------------------------------

POLICIES = ("lemon", "net2net-equal", "zero-tail")
DEPTH_MODES = ("type1", "type2")


def sweep_models() -> dict[str, dict]:
    """The fixed grid: 4 norm styles x token/vision, a tied decoder and a
    float32 copy of the pre_ln token model.  post_ln uses eps 0, the case
    the README documents as exact."""
    base = {"depth": 2, "width": 32, "head_dim": 8, "mlp_ratio": 2.0,
            "vocab_or_classes": 50, "dtype": "float64"}
    models = {}
    for style in ("pre_ln", "post_res_norm", "post_ln", "rms_pre"):
        eps = {"eps": 0.0} if style == "post_ln" else {}
        models[f"{style}-token"] = {**base, "norm_style": style, **eps}
        models[f"{style}-vision"] = {**base, "norm_style": style, "input_kind": "vision",
                                     "vocab_or_classes": 10, "patch_dim": 12,
                                     "num_patches": 4, **eps}
    models["pre_ln-tied"] = {**base, "norm_style": "pre_ln", "tied_decoder": True}
    models["pre_ln-f32"] = {**base, "norm_style": "pre_ln", "dtype": "float32"}
    return models


class SweepSmall(Workload):
    name = "sweep-small"
    why = ("every CLI command over a grid of tiny models, policies and depth modes: "
           "fixed per-call costs dominate")

    # tiny models: per-call interpreter costs dominate everything
    PROBE_FOR = {kind: "interpreter" for kind in (*OP_METRICS, "setup")}
    TARGET_DEPTH = 5
    SEQ_LEN = 8
    SAMPLES = 2
    CNN = (16, 8, 12)   # outer, inner, grown inner

    def build(self, run, d, prev):
        self.models = sweep_models()
        self.sources = {name: self.init_random(run, cfg, d, prev, name, self.seed + i)
                        for i, (name, cfg) in enumerate(self.models.items())}
        self.src_dir = d
        outer, inner, _ = self.CNN
        self.bottleneck = lcnn.random_bottleneck(outer, inner, 3, substream(self.seed, "cnn"))

    def warm_up(self, run):
        name, cfg = next(iter(self.models.items()))
        self.config_ops(run, name, cfg, POLICIES[0], DEPTH_MODES[0], timed=False)
        self.schedule(run, self.dir, timed=False)
        self.cnn_op(run, timed=False)

    def cycle(self, run):
        regen = self.dir / "regenerated"
        regen.mkdir(exist_ok=True)
        for i, (name, cfg) in enumerate(self.models.items()):
            # init-random again; it must reproduce the setup's source exactly
            self.init_random(run, cfg, regen, self.src_dir, name, self.seed + i)
            for policy in POLICIES:
                for mode in DEPTH_MODES:
                    self.config_ops(run, name, cfg, policy, mode)
            self.cnn_op(run)
            if i % 2:
                self.schedule(run, self.dir)

    def final_checks(self, run):
        name, cfg = next(iter(self.models.items()))
        src, out = self.sources[name], self.dir / "fresh-process.lmn"
        argvs = [self.expand_argv(src, out, cfg, POLICIES[0], DEPTH_MODES[0]),
                 self.verify_argv(src, out, cfg), ["symmetry", "--ckpt", out], ["inspect", out]]
        run.fresh_op("sweep_fresh_process", argvs,
                     lambda r: expect_exit(r, 0, "sweep commands in a fresh process"))

    @staticmethod
    def target_width(cfg: dict) -> int:
        """48, or twice the width for post_ln (divisible growth only)."""
        return 2 * cfg["width"] if cfg["norm_style"] == "post_ln" else 48

    def expand_argv(self, src, out, cfg, policy, mode):
        return ["expand", "--in", src, "--out", out, "--target-width", self.target_width(cfg),
                "--target-depth", self.TARGET_DEPTH, "--policy", policy,
                "--depth-mode", mode, "--seed", self.seed]

    def verify_argv(self, src, big, cfg):
        tol = "1e-5" if cfg["dtype"] == "float32" else "1e-10"
        return ["verify", "--small", src, "--big", big, "--samples", self.SAMPLES,
                "--seq-len", self.SEQ_LEN, "--seed", self.seed, "--tol", tol]

    def config_ops(self, run, name, cfg, policy, mode, timed=True):
        """expand, verify, symmetry and inspect for one grid entry."""
        src, out = self.sources[name], self.dir / "grown.lmn"
        done = run.op("expand", lambda: cli(*self.expand_argv(src, out, cfg, policy, mode)),
                      lambda r: expect_exit(r, 0, "expand"), timed)
        if done is None:
            return
        run.op("verify", lambda: cli(*self.verify_argv(src, out, cfg)), _expect_pass, timed)
        run.op("symmetry", lambda: cli("symmetry", "--ckpt", out),
               lambda r: _check_policy_distances(r, policy), timed)
        want = expected_tensor_count({**cfg, "width": self.target_width(cfg)},
                                     self.TARGET_DEPTH)
        run.op("inspect", lambda: cli("inspect", out),
               lambda r: expect(inspect_tensor_count(r) == want,
                                f"inspect of {name} miscounted tensors"), timed)

    def cnn_op(self, run, timed=True):
        src, grown_width = self.bottleneck, self.CNN[2]

        def check(grown):
            diff = cnn_max_diff([src], [grown], self.seed, 4)
            expect(diff <= 1e-10, f"grown bottleneck differs from the source by {diff:.3e}")

        run.op("cnn_expand",
               lambda: lcnn.expand_cnn_bottleneck(src, grown_width,
                                                  substream(self.seed, "cnn-grow")),
               check, timed)


def _expect_pass(r: CliResult) -> None:
    expect_exit(r, 0, "verify")
    expect(r.out.strip().endswith("PASS"), "verify did not print PASS")


def _check_policy_distances(r: CliResult, policy: str) -> None:
    dists = symmetry_distances(r)
    if policy == "lemon":
        expect(min(dists) > 0.0, "lemon policy left replicas with identical fan-out")
    elif policy == "net2net-equal":
        expect(max(dists) == 0.0, "net2net-equal replicas differ")


WORKLOADS = {w.name: w for w in (GrowBase, VerifyBase, SweepSmall)}


def make(name: str, seed: int, shape: HeadlineShape | None = None) -> Workload:
    """The workload ``name`` for ``seed``; ``shape`` overrides the headline
    shapes of grow-base and verify-base (the benchmark's tests use it)."""
    cls = WORKLOADS[name]
    if cls is SweepSmall:
        return cls(seed)
    if shape is None:
        shape = HeadlineShape() if cls is GrowBase else HeadlineShape(width=384)
    return cls(seed, shape)

"""Span tracer that wraps ``lemon``'s public functions from outside.

The tracer replaces a function at *every* binding a caller can look it
up through: ``lemon.container.read_checkpoint`` is also bound as
``lemon.cli.read_checkpoint``, ``lemon.verify.read_checkpoint`` and
``lemon.read_checkpoint``, and each of those is wrapped.  A binding that
is missed would hide that layer's time, which is why the benchmark's own
tests count the matmul spans of one forward pass.

Spans are kept in memory as ``(name, start, end, parent span, operation
id)`` in flat arrays and written out once at the end.  ``restore`` puts
every original object back.  The tracer assumes one thread: the
benchmark clears ``LEMON_THREADS`` before it imports ``lemon``.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from layers import PER_LAYER, WRAPPED


def _matmul_counts(tracer, args, kwargs, out):
    a, b = args[0], args[1]
    m, k = a.shape
    n = b.shape[1]
    tracer.count("kernels.matmul.flop", 2 * m * k * n)
    tracer.count("kernels.matmul.bytes", (m * k + k * n + m * n) * a.dtype.itemsize)


def _write_counts(tracer, args, kwargs, out):
    from lemon.container import named_tensors
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.count("container.write_checkpoint.bytes", os.path.getsize(path))
    tracer.count("container.tensors", len(named_tensors(args[0], args[1])))


def _read_counts(tracer, args, kwargs, out):
    from lemon.container import named_tensors
    path = args[0] if args else kwargs["path"]
    tracer.count("container.read_checkpoint.bytes", os.path.getsize(path))
    tracer.count("container.tensors", len(named_tensors(*out)))


def _verify_counts(tracer, args, kwargs, out):
    tracer.count("verify.samples", len(out.samples))


#: figures computed from a wrapped call's operands and result
_COUNTERS = {
    "kernels.matmul": _matmul_counts,
    "container.write_checkpoint": _write_counts,
    "container.read_checkpoint": _read_counts,
    "verify.verify_lossless": _verify_counts,
}


class Tracer:
    """Wraps the functions in ``targets`` and records their spans."""

    def __init__(self, targets=WRAPPED):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self.ops: list[str] = []          # operation id -> kind
        self.op = -1                      # current operation id
        self._name = array("i")
        self._op = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._counts: dict[tuple[int, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded lemon modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lemon" or n.startswith("lemon."))]
        for target in self.targets:
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"lemon.{mod_name}"), fn_name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped binding back to its original object."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        if name not in self.names:  # installs after the first reuse the id
            self.names.append(name)
        name_id = self.names.index(name)
        counter = _COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self._start)
            self._name.append(name_id)
            self._op.append(self.op)
            self._parent.append(stack[-1] if stack else -1)
            self._end.append(0.0)
            stack.append(sid)
            self._start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- operations and counters ----------------------------------------

    def begin_op(self, kind: str) -> int:
        self.op = len(self.ops)
        self.ops.append(kind)
        return self.op

    def end_op(self) -> None:
        self.op = -1

    def count(self, key: str, value: float) -> None:
        self._counts[(self.op, key)] += value

    # -- results -----------------------------------------------------------

    def span_count(self, name: str) -> int:
        """Number of recorded spans of the wrapped function ``name``."""
        name_id = self.names.index(name)
        return int(np.count_nonzero(np.frombuffer(self._name, dtype=np.int32) == name_id))

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int32).astype(np.int64)
        op = np.frombuffer(self._op, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, op, dur, dur - child

    def per_op(self):
        """``{(op, name): [inclusive s, self s, calls]}`` over attributed spans."""
        name, op, dur, self_s = self._arrays()
        table: dict[tuple[int, str], list[float]] = {}
        keep = op >= 0
        n_names = max(len(self.names), 1)
        key = op[keep] * n_names + name[keep]
        uniq, inv = np.unique(key, return_inverse=True)
        inc = np.bincount(inv, weights=dur[keep])
        slf = np.bincount(inv, weights=self_s[keep])
        calls = np.bincount(inv)
        for k, a, b, c in zip(uniq, inc, slf, calls):
            table[(int(k // n_names), self.names[int(k % n_names)])] = [float(a), float(b), int(c)]
        return table

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, averaged over the operations that touch it.

        A function no traced operation called reports 0.
        """
        table = self.per_op()
        sums: dict[tuple[str, str], float] = defaultdict(float)
        ops_touching: dict[str, set] = defaultdict(set)
        for (op, name), (inc, slf, calls) in table.items():
            sums[(name, "s")] += inc
            sums[(name, "self_s")] += slf
            sums[(name, "calls")] += calls
            ops_touching[name].add(op)
        for (op, key), value in self._counts.items():
            if op >= 0:
                sums[(key, "counter")] += value
                ops_touching[key].add(op)
        out: dict[str, float] = {}
        for metric, _unit, _better, source, quantity, _moves in PER_LAYER:
            if quantity == "overhead":
                out[metric] = overhead_s
            elif quantity == "gflop_per_s":
                secs = sums[(source, "s")]
                out[metric] = sums[("kernels.matmul.flop", "counter")] / secs / 1e9 if secs else 0.0
            else:
                n = len(ops_touching[source])
                out[metric] = sums[(source, quantity)] / n if n else 0.0
        return out

    def coverage(self, op_seconds: dict[int, float]) -> dict[str, dict]:
        """Per operation kind: the share of operation time spent in each
        module's own code (span self time, so shares never overlap), the
        share outside every span, and the wrapped functions that ran."""
        by_kind: dict[str, dict] = {}
        for op_id, kind in enumerate(self.ops):
            entry = by_kind.setdefault(kind, {"ops": 0, "op_s": 0.0,
                                              "self_s": defaultdict(float), "functions": set()})
            entry["ops"] += 1
            entry["op_s"] += op_seconds.get(op_id, 0.0)
        for (op_id, name), (_inc, slf, _calls) in self.per_op().items():
            entry = by_kind[self.ops[op_id]]
            entry["self_s"][name.split(".", 1)[0]] += slf
            entry["functions"].add(name)
        out = {}
        for kind, e in by_kind.items():
            total = e["op_s"]
            share = {m: s / total for m, s in sorted(e["self_s"].items())} if total else {}
            out[kind] = {"ops": e["ops"], "op_s": total, "self_share": share,
                         "outside_spans": 1.0 - sum(share.values()) if total else 0.0,
                         "functions": sorted(e["functions"])}
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzip'd TSV: id, parent, op id, op kind, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\tkind\tname\tstart_s\tend_s\n")
            for sid in range(len(self._start)):
                op = self._op[sid]
                kind = self.ops[op] if op >= 0 else ""
                fh.write(f"{sid}\t{self._parent[sid]}\t{op}\t{kind}\t{self.names[self._name[sid]]}"
                         f"\t{self._start[sid]!r}\t{self._end[sid]!r}\n")

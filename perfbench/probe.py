"""Machine-speed probes: fixed units of work timed between operations.

The benchmark runs on shared cores whose speed drifts by tens of percent
over seconds to minutes.  Identical pure-Python work took 0.11 s to 0.21 s
within one minute, and whole runs of sweep-small came out uniformly 15%
slow or fast.  That drift is the machine's, not the program's, so every
operation time is reported scaled to a nominal speed:

    scaled = raw * nominal / (median probe reading near the operation)

Two probes match the two kinds of work ``lemon`` does:

* ``interpreter``: an interpreter loop, a small non-BLAS einsum and a
  1 MiB elementwise pass.  It tracks the tiny models' per-call costs and
  the schedule command: scaling cut sweep-small's run-to-run spread from
  about 0.2 to under 0.07 of the median.  It did *not* track the
  headline-size operations, and widened their spread.
* ``memory``: one 64 MiB array copy.  It tracks the headline-size
  operations, which move hundreds of megabytes: in five runs scaling cut
  the spread of the 6x512 expand from 0.13 to 0.08 and of verify from 0.10
  to 0.06.

A probe allocates nothing after construction, so the program's heap is left
as it is.  It never runs ``lemon`` code, so it cannot hide a change to
``lemon``.  One exception: work a change left running between operations (a
busy thread, say) would slow the probe as well.
"""

from __future__ import annotations

import bisect
import statistics
from array import array
from time import perf_counter

import numpy as np

#: readings this close to an operation set its speed
WINDOW_S = 0.5


class SpeedProbe:
    """Timed readings of one fixed unit of work, and the scale they imply.

    ``nominal_s`` is the median reading on the machine the benchmark was
    defined on (2-core VM, Python 3.11, numpy 2.4), so scaled times are
    seconds at that speed.  Readings are at least ``interval_s`` apart.
    """

    def __init__(self, name: str, unit, nominal_s: float, interval_s: float):
        self.name = name
        self._unit = unit
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.at = array("d")        # reading times (perf_counter)
        self.readings = array("d")  # seconds per unit of work
        self._last = float("-inf")

    def sample(self) -> None:
        """Take one reading: the median of three units of work."""
        self.at.append(perf_counter())
        self.readings.append(statistics.median([self._unit(), self._unit(), self._unit()]))
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Take a reading unless the last one is under ``interval_s`` old."""
        if perf_counter() - self._last >= self.interval_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``nominal_s`` over the median reading within ``WINDOW_S`` of
        ``[start, end]``; the nearest readings on either side when none is."""
        if not self.readings:
            raise ValueError(f"no {self.name} probe readings")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.readings[lo:hi]
        if not near:
            near = self.readings[max(lo - 1, 0):lo + 1]
        return self.nominal_s / statistics.median(near)


def interpreter_probe() -> SpeedProbe:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40))
    m = rng.standard_normal(1 << 17)
    out = np.empty_like(m)

    def unit() -> float:
        start = perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        for _ in range(3):
            np.einsum("ik,kj->ij", a, a, optimize=False)
            np.multiply(m, 1.0000001, out=out)
        return perf_counter() - start

    return SpeedProbe("interpreter", unit, nominal_s=8.0e-4, interval_s=0.1)


def memory_probe() -> SpeedProbe:
    src = np.random.default_rng(0).standard_normal(1 << 23)   # 64 MiB
    dst = np.empty_like(src)

    def unit() -> float:
        start = perf_counter()
        np.copyto(dst, src)
        return perf_counter() - start

    return SpeedProbe("memory", unit, nominal_s=1.15e-2, interval_s=1.0)


PROBES = {"interpreter": interpreter_probe, "memory": memory_probe}

"""Learning-rate schedule generation: linear warmup + cosine decay.

The expanded-model training recipe keeps the maximum learning rate used
for from-scratch training but shrinks the decay horizon, so the rate
decays faster.  This module only emits schedules (as values or CSV); it
never runs training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import replacing
from .errors import PlanError


#: the longest schedule: every step up to it is exact as a float
_MAX_TOTAL = 2**53


@dataclass(frozen=True)
class ScheduleSpec:
    """Horizon description: peak/floor rates, warmup length, total length.

    Units are whatever the caller steps in (epochs or iterations).
    """

    max_lr: float
    min_lr: float
    warmup: int
    total: int

    def validate(self) -> "ScheduleSpec":
        for flag, rate in (("--max-lr", self.max_lr), ("--min-lr", self.min_lr)):
            if not math.isfinite(rate):
                raise PlanError(f"{flag} must be finite, got {rate:g}")
        if not 0 <= self.warmup < self.total:
            raise PlanError("need 0 <= warmup < total")
        if self.total > _MAX_TOTAL:
            raise PlanError(f"--total {self.total} is past 2**53, where steps are no "
                            "longer exact as floats")
        if not math.isfinite(self.max_lr * self.warmup):
            # the warmup rates max_lr * (t + 1) / warmup would overflow
            raise PlanError(f"--max-lr {self.max_lr:g} times --warmup {self.warmup} "
                            "overflows a float")
        if not 0 <= self.min_lr <= self.max_lr:
            raise PlanError("need 0 <= min_lr <= max_lr")
        return self


#: schedules used by the reference experiments; the expanded-model
#: variants share the peak rate and shorten only the horizon
PRESETS = {
    "vit-scratch": ScheduleSpec(1e-3, 1e-5, 5, 300),
    "vit-expanded": ScheduleSpec(1e-3, 1e-5, 5, 130),
    "bert-scratch": ScheduleSpec(2e-4, 2e-5, 5000, 220_000),
    "bert-expanded-from-384": ScheduleSpec(2e-4, 2e-5, 5000, 165_000),
    "bert-expanded-from-512": ScheduleSpec(2e-4, 2e-5, 5000, 132_000),
}


def cosine_lr(spec: ScheduleSpec, t: int) -> float:
    """Learning rate at step ``t`` (0 <= t <= total).

    Warmup is linear from ``max_lr / warmup`` (not zero, so the first
    step already learns) up to exactly ``max_lr`` at ``t == warmup``;
    afterwards the rate follows a half cosine down to exactly ``min_lr``
    at ``t == total``.  No step's rate exceeds ``max_lr``.
    """
    spec.validate()
    if not 0 <= t <= spec.total:
        raise PlanError(f"step {t} outside [0, {spec.total}]")
    return float(_rates(spec, t, t + 1)[0])


def _rates(spec: ScheduleSpec, start: int, stop: int) -> np.ndarray:
    """The rates of steps ``start .. stop - 1`` of a validated spec, for
    ``0 <= start < stop <= total + 1``.

    Each rate takes the operations of the scalar formula in the same
    order, in float64; the cosine is ``math.cos`` per step, because
    numpy's ``cos`` need not round as libm does.
    """
    max_lr, min_lr, warmup = float(spec.max_lr), float(spec.min_lr), spec.warmup
    rates = np.empty(stop - start)
    ramp = min(max(warmup - start, 0), stop - start)  # warmup steps in the range
    if ramp:
        rates[:ramp] = max_lr * np.arange(start + 1, start + ramp + 1) / warmup
    if ramp < stop - start:
        span = spec.total - warmup
        phase = math.pi * np.arange(start + ramp - warmup, stop - warmup) / span
        cos = np.fromiter(map(math.cos, phase.tolist()), float, len(phase))
        rates[ramp:] = min_lr + 0.5 * (max_lr - min_lr) * (1.0 + cos)
    # rounding can put the last warmup steps, or a cosine step whose cos
    # rounds to 1, one ulp above max_lr, and the peak one ulp off it
    np.minimum(rates, max_lr, out=rates)
    if start <= warmup < stop:
        rates[warmup - start] = max_lr
    return rates


#: steps computed, formatted and written together by write_schedule_csv:
#: its memory is set by this, not by the schedule's length
_CHUNK = 1 << 16


def write_schedule_csv(spec: ScheduleSpec, path) -> None:
    """Emit ``step,lr`` rows, one per step, 17 significant digits.

    Rows are written a chunk of steps at a time to a temporary file that
    replaces ``path`` once every row is written; on any error ``path`` is
    left as it was.
    """
    spec.validate()
    steps = spec.total + 1
    with replacing(path) as fh:
        fh.write(b"step,lr\n")
        for start in range(0, steps, _CHUNK):
            stop = min(start + _CHUNK, steps)
            rows = [None] * (2 * (stop - start))
            rows[::2] = range(start, stop)
            rows[1::2] = _rates(spec, start, stop).tolist()
            # %.17g formats a float with the dtoa of f"{x:.17g}": the same bytes
            fh.write(("%d,%.17g\n" * (stop - start) % tuple(rows)).encode("ascii"))

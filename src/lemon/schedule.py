"""Learning-rate schedule generation: linear warmup + cosine decay.

The expanded-model training recipe keeps the maximum learning rate used
for from-scratch training but shrinks the decay horizon, so the rate
decays faster.  This module only emits schedules (as values or CSV); it
never runs training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PlanError


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
        if not math.isfinite(self.max_lr * self.warmup):
            # the warmup rates max_lr * (t + 1) / warmup would overflow
            raise PlanError(f"--max-lr {self.max_lr:g} times --warmup {self.warmup} "
                            "overflows a float")
        if not 0 <= self.min_lr <= self.max_lr:
            raise PlanError("need 0 <= min_lr <= max_lr")
        if not 0 <= self.warmup < self.total:
            raise PlanError("need 0 <= warmup < total")
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
    step already learns) up to ``max_lr`` at ``t == warmup``; afterwards
    the rate follows a half cosine down to exactly ``min_lr`` at
    ``t == total``.
    """
    spec.validate()
    if not 0 <= t <= spec.total:
        raise PlanError(f"step {t} outside [0, {spec.total}]")
    return _lr(spec, t)


def _lr(spec: ScheduleSpec, t: int) -> float:
    """:func:`cosine_lr` without its checks, for a validated spec and an
    in-range step."""
    if t < spec.warmup:
        return spec.max_lr * (t + 1) / spec.warmup
    span = spec.total - spec.warmup
    phase = math.pi * (t - spec.warmup) / span
    return spec.min_lr + 0.5 * (spec.max_lr - spec.min_lr) * (1.0 + math.cos(phase))


def write_schedule_csv(spec: ScheduleSpec, path) -> None:
    """Emit ``step,lr`` rows, one per step, 17 significant digits."""
    spec.validate()
    text = "".join([f"{t},{_lr(spec, t):.17g}\n" for t in range(spec.total + 1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,lr\n" + text)

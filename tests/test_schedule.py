import math

import pytest

from lemon import PRESETS, PlanError, ScheduleSpec, cosine_lr, write_schedule_csv

VIT = ScheduleSpec(1e-3, 1e-5, 5, 300)


def closed_form(spec, t):
    """Independent evaluation of the warmup + cosine shape."""
    if t < spec.warmup:
        return spec.max_lr * (t + 1) / spec.warmup
    x = (t - spec.warmup) / (spec.total - spec.warmup)
    return spec.min_lr + 0.5 * (spec.max_lr - spec.min_lr) * (1 + math.cos(math.pi * x))


class TestCosine:
    def test_peak_at_warmup_end(self):
        assert cosine_lr(VIT, VIT.warmup) == VIT.max_lr

    def test_floor_at_total(self):
        assert cosine_lr(VIT, VIT.total) == VIT.min_lr

    def test_midpoint(self):
        mid = VIT.warmup + (VIT.total - VIT.warmup) // 2
        # decay span is odd here; use an exactly-half spec instead
        spec = ScheduleSpec(1e-3, 1e-5, 0, 10)
        assert cosine_lr(spec, 5) == pytest.approx((1e-3 + 1e-5) / 2, rel=1e-15)
        assert cosine_lr(VIT, mid) <= VIT.max_lr

    def test_warmup_is_linear_and_nonzero(self):
        values = [cosine_lr(VIT, t) for t in range(VIT.warmup)]
        assert values[0] == pytest.approx(VIT.max_lr / VIT.warmup, rel=1e-15)
        steps = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        for s in steps:
            assert s == pytest.approx(VIT.max_lr / VIT.warmup, rel=1e-12)

    def test_continuous_at_warmup(self):
        assert cosine_lr(VIT, VIT.warmup - 1) == pytest.approx(VIT.max_lr, rel=1e-15)

    def test_monotone_nonincreasing_after_warmup(self):
        values = [cosine_lr(VIT, t) for t in range(VIT.warmup, VIT.total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_faster_decay_dominated_by_slower(self):
        fast = ScheduleSpec(1e-3, 1e-5, 5, 130)
        assert cosine_lr(fast, fast.warmup) == cosine_lr(VIT, VIT.warmup)
        for t in range(fast.warmup + 1, fast.total + 1):
            assert cosine_lr(fast, t) <= cosine_lr(VIT, t)

    def test_out_of_range(self):
        with pytest.raises(PlanError):
            cosine_lr(VIT, -1)
        with pytest.raises(PlanError):
            cosine_lr(VIT, VIT.total + 1)

    def test_spec_validation(self):
        with pytest.raises(PlanError):
            ScheduleSpec(1e-5, 1e-3, 5, 300).validate()  # min > max
        with pytest.raises(PlanError):
            ScheduleSpec(1e-3, 1e-5, 300, 300).validate()  # warmup == total


class TestPresets:
    def test_reference_values(self):
        assert PRESETS["vit-scratch"] == ScheduleSpec(1e-3, 1e-5, 5, 300)
        assert PRESETS["vit-expanded"] == ScheduleSpec(1e-3, 1e-5, 5, 130)
        assert PRESETS["bert-scratch"] == ScheduleSpec(2e-4, 2e-5, 5000, 220_000)
        assert PRESETS["bert-expanded-from-384"].total == 165_000
        assert PRESETS["bert-expanded-from-512"].total == 132_000

    def test_expanded_presets_keep_peak_rate(self):
        assert PRESETS["vit-expanded"].max_lr == PRESETS["vit-scratch"].max_lr
        assert (PRESETS["bert-expanded-from-512"].max_lr
                == PRESETS["bert-scratch"].max_lr)


class TestCsv:
    def test_rows_match_closed_form(self, tmp_path):
        path = tmp_path / "s.csv"
        write_schedule_csv(VIT, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr"
        assert len(lines) == VIT.total + 2
        for line in lines[1:]:
            t_text, lr_text = line.split(",")
            t = int(t_text)
            want = closed_form(VIT, t)
            assert float(lr_text) == pytest.approx(want, rel=1e-15)

    def test_values_round_trip_through_text(self):
        for t in range(VIT.total + 1):
            lr = cosine_lr(VIT, t)
            assert float(f"{lr:.17g}") == lr

    def test_endpoints_exact_in_file(self, tmp_path):
        path = tmp_path / "s.csv"
        write_schedule_csv(VIT, path)
        rows = dict(line.split(",") for line in path.read_text().splitlines()[1:])
        assert float(rows[str(VIT.warmup)]) == VIT.max_lr
        assert float(rows[str(VIT.total)]) == VIT.min_lr


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_csv_equals_per_step_cosine_lr_rows(tmp_path, name):
    spec = PRESETS[name]
    out = tmp_path / "s.csv"
    write_schedule_csv(spec, out)
    want = "step,lr\n" + "".join(f"{t},{cosine_lr(spec, t):.17g}\n"
                                 for t in range(spec.total + 1))
    assert out.read_bytes() == want.encode("utf-8")

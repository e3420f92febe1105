import math
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemon import PRESETS, PlanError, ScheduleSpec, cosine_lr, schedule, write_schedule_csv

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

    def test_total_is_at_most_two_to_the_53(self):
        longest = ScheduleSpec(1e-3, 1e-5, 5, 2**53)
        assert cosine_lr(longest, 2**53) == longest.min_lr
        assert cosine_lr(longest, 5) == longest.max_lr
        with pytest.raises(PlanError, match="2\\*\\*53"):
            ScheduleSpec(1e-3, 1e-5, 5, 2**53 + 1).validate()
        with pytest.raises(PlanError):
            ScheduleSpec(1e-3, 1e-5, 5, 2**64).validate()


#: random specs small enough to write every step
_SPECS = st.builds(lambda peak, floor, warmup, extra: ScheduleSpec(peak, peak * floor,
                                                                   warmup, warmup + extra),
                   st.floats(1e-8, 10.0), st.floats(0.0, 1.0), st.integers(0, 300),
                   st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(spec=_SPECS)
# the peak one ulp off max_lr at t = warmup
@example(spec=ScheduleSpec(0.0003353606287887654, 6.306097947840258e-05, 13, 273))
# the last warmup step one ulp past max_lr
@example(spec=ScheduleSpec(0.0016338044002854007, 0.0006208500978000285, 44, 152))
def test_endpoints_are_exact_and_nothing_passes_the_peak(tmp_path_factory, spec):
    rates = [cosine_lr(spec, t) for t in range(spec.total + 1)]
    assert rates[spec.warmup] == spec.max_lr and rates[spec.total] == spec.min_lr
    assert max(rates) == spec.max_lr
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    write_schedule_csv(spec, path)
    written = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert written == rates


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


def per_step_lr(spec, t):
    """The per-step formula the chunked writer replaced, verbatim."""
    if t < spec.warmup:
        return spec.max_lr * (t + 1) / spec.warmup
    span = spec.total - spec.warmup
    phase = math.pi * (t - spec.warmup) / span
    return spec.min_lr + 0.5 * (spec.max_lr - spec.min_lr) * (1.0 + math.cos(phase))


def per_step_csv(spec):
    return ("step,lr\n" + "".join([f"{t},{per_step_lr(spec, t):.17g}\n"
                                   for t in range(spec.total + 1)])).encode("utf-8")


class TestChunkedWriter:
    CHUNK = 64

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(schedule, "_CHUNK", self.CHUNK)

    # warmup inside the first chunk, and warmup spanning a chunk boundary
    @pytest.mark.parametrize("warmup,k", [(5, 1), (5, 3), (80, 2), (80, 3)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bytes_match_the_per_step_formula(self, tmp_path, warmup, k, offset):
        spec = ScheduleSpec(2e-4, 2e-5, warmup, k * self.CHUNK + offset)
        path = tmp_path / "s.csv"
        write_schedule_csv(spec, path)
        assert path.read_bytes() == per_step_csv(spec)

    def test_peak_memory_is_set_by_the_chunk_not_the_total(self, tmp_path):
        peaks = []
        for chunks in (10, 100):
            spec = ScheduleSpec(2e-4, 2e-5, 5, chunks * self.CHUNK)
            tracemalloc.start()
            try:
                write_schedule_csv(spec, tmp_path / f"{chunks}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one chunk's work is about 13 kB; holding the whole text would add
        # about 28 bytes a row, 180 kB at 100 chunks
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_error_in_a_later_chunk_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"old schedule\n")
        rates, calls = schedule._rates, []

        def failing(spec, start, stop):
            calls.append(start)
            if len(calls) == 2:
                raise RuntimeError("second chunk")
            return rates(spec, start, stop)

        monkeypatch.setattr(schedule, "_rates", failing)
        with pytest.raises(RuntimeError, match="second chunk"):
            write_schedule_csv(ScheduleSpec(2e-4, 2e-5, 5, 3 * self.CHUNK), path)
        assert calls == [0, self.CHUNK]
        assert path.read_bytes() == b"old schedule\n"
        assert os.listdir(tmp_path) == ["s.csv"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_csv_equals_the_per_step_formula(tmp_path, name):
    path = tmp_path / "s.csv"
    write_schedule_csv(PRESETS[name], path)
    assert path.read_bytes() == per_step_csv(PRESETS[name])

"""Tests for timeline replay analysis and the Appendix B experiment."""

import pytest

from repro.core.planner import Hetero2PipePlanner
from repro.experiments.appendix_thermal import (
    run_feedback,
    run_sweep,
)
from repro.hardware.processor import ProcessorKind
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.runtime.executor import execute_plan
from repro.runtime.replay import (
    build_timeline,
    concurrency_profile,
    utilization_summary,
)


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def result(kirin):
    planner = Hetero2PipePlanner(kirin)
    models = [get_model(n) for n in ("yolov4", "bert", "squeezenet", "vit")]
    return execute_plan(planner.plan(models).plan)


class TestTimeline:
    def test_gaps_are_real_idle_intervals(self, result):
        timeline = build_timeline(result)
        for gap in timeline.gaps:
            assert gap.duration_ms > 0
            assert 0 <= gap.start_ms < gap.end_ms <= result.makespan_ms

    def test_total_gap_matches_bubble_metric(self, result):
        timeline = build_timeline(result)
        assert timeline.total_gap_ms == pytest.approx(
            result.total_bubble_ms(), abs=1e-6
        )

    def test_largest_gaps_sorted(self, result):
        timeline = build_timeline(result)
        largest = timeline.largest_gaps(3)
        durations = [g.duration_ms for g in largest]
        assert durations == sorted(durations, reverse=True)

    def test_gaps_on_filters(self, result):
        timeline = build_timeline(result)
        for gap in timeline.gaps_on("gpu"):
            assert gap.processor == "gpu"

    def test_serial_schedule_has_no_gaps(self, kirin):
        from repro.baselines.mnn_serial import plan_mnn_serial

        serial = execute_plan(
            plan_mnn_serial(kirin, [get_model("resnet50")] * 3)
        )
        timeline = build_timeline(serial)
        assert timeline.total_gap_ms == pytest.approx(0.0, abs=1e-6)


class TestConcurrencyAndChain:
    def test_concurrency_bounds(self, kirin, result):
        profile = concurrency_profile(result)
        for _, active in profile:
            assert 0 <= active <= kirin.num_processors

    def test_concurrency_sample_count(self, result):
        assert len(concurrency_profile(result, samples=17)) == 17

    def test_concurrency_validation(self, result):
        with pytest.raises(ValueError):
            concurrency_profile(result, samples=0)

    def test_utilization_summary(self, result):
        summary = utilization_summary(result)
        for value in summary.values():
            assert 0.0 <= value <= 1.0 + 1e-9


class TestAppendixThermal:
    def test_sweep_covers_all_kinds(self):
        rows = run_sweep()
        kinds = {row.kind for row in rows}
        assert kinds == {k.value for k in ProcessorKind}

    def test_cpu_big_crosses_throttle_threshold(self):
        rows = run_sweep(utilizations=(1.0,))
        cpu = [r for r in rows if r.kind == "cpu_big"][0]
        gpu = [r for r in rows if r.kind == "gpu"][0]
        # The paper: CPU above 60 C and throttling; GPU under ~50 C.
        assert cpu.temperature_c > 60.0
        assert cpu.frequency_scale < 1.0
        assert gpu.temperature_c < 50.0
        assert gpu.frequency_scale == 1.0

    def test_feedback_recovers_latency(self, kirin):
        comparison = run_feedback(kirin)
        assert comparison.feedback_ms <= comparison.worst_case_ms * 1.02
        assert 0.0 <= comparison.recovered <= 1.0
        assert comparison.final_cpu_scale >= 0.76 - 1e-9

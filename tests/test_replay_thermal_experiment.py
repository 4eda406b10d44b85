"""Tests for an executed timeline's idle gaps and the Appendix B experiment."""

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


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def result(kirin):
    planner = Hetero2PipePlanner(kirin)
    models = [get_model(n) for n in ("yolov4", "bert", "squeezenet", "vit")]
    return execute_plan(planner.plan(models).plan)


def _idle_gaps(result):
    """(processor, gap_ms) between consecutive tasks of each processor."""
    by_proc = {}
    for record in result.records:
        by_proc.setdefault(record.processor, []).append(record)
    gaps = []
    for processor, records in by_proc.items():
        records.sort(key=lambda r: r.start_ms)
        gaps.extend(
            (processor, later.start_ms - earlier.finish_ms)
            for earlier, later in zip(records, records[1:])
        )
    return gaps


class TestTimeline:
    def test_gaps_are_real_idle_intervals(self, result):
        # A processor runs one slice at a time, inside the makespan.
        assert all(gap >= -1e-9 for _, gap in _idle_gaps(result))
        for record in result.records:
            assert 0 <= record.start_ms <= record.finish_ms <= result.makespan_ms

    def test_serial_schedule_has_no_gaps(self, kirin):
        from repro.baselines.mnn_serial import plan_mnn_serial

        serial = execute_plan(
            plan_mnn_serial(kirin, [get_model("resnet50")] * 3)
        )
        gaps = _idle_gaps(serial)
        assert len(gaps) == 2
        assert all(gap == pytest.approx(0.0, abs=1e-6) for _, gap in gaps)


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

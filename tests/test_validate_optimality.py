"""Tests for plan-validation diagnostics and the optimality-gap study."""

import dataclasses

import pytest

from repro.core.planner import Hetero2PipePlanner
from repro.core.plan import PipelinePlan, StageAssignment
from repro.core.validate import Violation, is_valid, validate_plan
from repro.experiments.ext_optimality import run as optimality_run, summarize
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


@pytest.fixture()
def good_plan(kirin):
    planner = Hetero2PipePlanner(kirin)
    models = [get_model(n) for n in ("yolov4", "bert", "squeezenet")]
    return planner.plan(models).plan


def _raw_plan(kirin, profiler, slices_per_model):
    assignments = [
        StageAssignment.__new__(StageAssignment) for _ in slices_per_model
    ]
    # Bypass __post_init__ so we can build intentionally-broken plans.
    for assignment, (name, slices) in zip(assignments, slices_per_model):
        assignment.profile = profiler.profile(get_model(name))
        assignment.slices = list(slices)
    return PipelinePlan(
        soc=kirin,
        processors=tuple(kirin.processors),
        assignments=assignments,
    )


class TestValidate:
    def test_planner_output_is_clean(self, good_plan):
        assert validate_plan(good_plan) == []
        assert is_valid(good_plan)

    def test_gap_detected(self, kirin, profiler):
        n = get_model("vgg16").num_layers
        plan = _raw_plan(
            kirin, profiler, [("vgg16", [(0, 2), (5, n - 1), None, None])]
        )
        codes = {v.code for v in validate_plan(plan)}
        assert "gap-or-overlap" in codes

    def test_incomplete_cover_detected(self, kirin, profiler):
        plan = _raw_plan(
            kirin, profiler, [("vgg16", [(0, 2), None, None, None])]
        )
        codes = {v.code for v in validate_plan(plan)}
        assert "incomplete-cover" in codes

    def test_bad_slice_detected(self, kirin, profiler):
        n = get_model("vgg16").num_layers
        plan = _raw_plan(
            kirin, profiler, [("vgg16", [(0, n + 5), None, None, None])]
        )
        codes = {v.code for v in validate_plan(plan)}
        assert "bad-slice" in codes

    def test_unsupported_operator_detected(self, kirin, profiler):
        # BERT forced entirely onto the NPU stage.
        n = get_model("bert").num_layers
        npu_stage = [
            k for k, p in enumerate(kirin.processors) if p.name == "npu"
        ][0]
        slices = [None] * kirin.num_processors
        slices[npu_stage] = (0, n - 1)
        plan = _raw_plan(kirin, profiler, [("bert", slices)])
        violations = validate_plan(plan)
        codes = {v.code for v in violations}
        assert "unsupported-operator" in codes
        message = next(
            v.message for v in violations if v.code == "unsupported-operator"
        )
        assert "embedding" in message

    def test_bad_order_detected(self, kirin, profiler, good_plan):
        broken = good_plan.copy()
        broken.order = (0, 0, 2)
        codes = {v.code for v in validate_plan(broken)}
        assert "bad-order" in codes

    def test_memory_capacity_detected(self, kirin, profiler):
        # Shrink capacity until a heavyweight diagonal cannot fit.
        tiny = dataclasses.replace(kirin, memory_capacity_bytes=50e6)
        planner = Hetero2PipePlanner(kirin)
        models = [get_model("bert"), get_model("vit")]
        plan = planner.plan(models).plan
        shrunk = PipelinePlan(
            soc=tiny,
            processors=plan.processors,
            assignments=plan.assignments,
            order=plan.order,
        )
        codes = {v.code for v in validate_plan(shrunk)}
        assert "memory-capacity" in codes

    def test_violation_str(self):
        violation = Violation(code="x", message="y")
        assert "x" in str(violation) and "y" in str(violation)


class TestOptimalityStudy:
    def test_gaps_nonnegative(self, kirin):
        points = optimality_run(num_combinations=6)
        for point in points:
            assert point.gap >= -1e-9
            assert point.achieved_ms >= point.bound_ms - 1e-6

    def test_summary_partitions_points(self, kirin):
        points = optimality_run(num_combinations=6)
        stats = summarize(points)
        assert stats["count_with_fallback"] + stats["count_clean"] == len(
            points
        )
        assert stats["overall"] >= 0.0

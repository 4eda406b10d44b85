"""Tests for the column-synchronous schedule and bubble accounting."""

import pytest

from repro.core.partition import partition_model
from repro.core.plan import PipelinePlan, StageAssignment
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import async_makespan_ms
from repro.runtime.schedule import (
    build_schedule,
    plan_bubbles_ms,
    plan_makespan_ms,
)


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


def make_plan(profiler, kirin, names):
    return PipelinePlan(
        soc=kirin,
        processors=tuple(kirin.processors),
        assignments=[
            StageAssignment(
                profile=profiler.profile(get_model(n)),
                slices=list(
                    partition_model(
                        profiler.profile(get_model(n)), kirin.processors
                    ).slices
                ),
            )
            for n in names
        ],
    )


class TestSchedule:
    def test_column_count(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50", "bert"])
        schedule = build_schedule(plan)
        assert len(schedule.columns) == plan.num_requests + plan.depth - 1

    def test_column_duration_is_max_member(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        schedule = build_schedule(plan, with_contention=False)
        for col in schedule.columns:
            active = [c.co_ms for c in col.cells if c.co_ms > 0]
            if active:
                assert col.duration_ms == max(active)
            else:
                assert col.duration_ms == 0.0

    def test_bubble_definition_eq3(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "yolov4"])
        schedule = build_schedule(plan, with_contention=False)
        for col in schedule.columns:
            active = [c.co_ms for c in col.cells if c.co_ms > 0]
            if len(active) >= 2:
                expected = sum(max(active) - t for t in active)
                assert col.bubble_ms == pytest.approx(expected)

    def test_makespan_is_sum_of_columns(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50", "bert"])
        schedule = build_schedule(plan)
        assert schedule.makespan_ms == pytest.approx(
            sum(c.duration_ms for c in schedule.columns)
        )

    def test_contention_inflates_schedule(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "yolov4", "vgg16"])
        assert plan_makespan_ms(plan, True) >= plan_makespan_ms(plan, False)
        assert plan_bubbles_ms(plan, True) >= 0.0

    def test_single_request_has_no_cross_bubbles(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        # Each column holds at most one active cell.
        schedule = build_schedule(plan)
        for col in schedule.columns:
            active = [c for c in col.cells if c.co_ms > 0]
            assert len(active) <= 1
            assert col.bubble_ms == 0.0

    def test_async_never_exceeds_sync(self, profiler, kirin):
        # Relaxing the lockstep can only shorten the schedule when
        # contention is off (identical task durations, fewer barriers).
        plan = make_plan(profiler, kirin, ["bert", "yolov4", "vit", "resnet50"])
        assert async_makespan_ms(plan, with_contention=False) <= (
            plan_makespan_ms(plan, with_contention=False) + 1e-6
        )

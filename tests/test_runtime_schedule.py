"""Tests for the column-synchronous schedule and bubble accounting."""

import pytest

from repro.core.partition import partition_model
from repro.core.plan import PipelinePlan, StageAssignment
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import plan_to_chains, simulate_chains
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
        schedule = build_schedule(plan)
        for col in schedule.columns:
            active = [c.co_ms for c in col.cells if c.co_ms > 0]
            if active:
                assert col.duration_ms == max(active)
            else:
                assert col.duration_ms == 0.0

    def test_bubble_definition_eq3(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "yolov4"])
        schedule = build_schedule(plan)
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
        schedule = build_schedule(plan)
        assert all(
            c.co_ms >= c.solo_ms for col in schedule.columns for c in col.cells
        )
        solo_ms = sum(
            max(c.solo_ms for c in col.cells) for col in schedule.columns
        )
        assert plan_makespan_ms(plan) >= solo_ms
        assert plan_bubbles_ms(plan) >= 0.0

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
        # contention is off (identical task durations, fewer barriers):
        # the contention-free lockstep lasts its columns' slowest solo
        # cells.
        plan = make_plan(profiler, kirin, ["bert", "yolov4", "vit", "resnet50"])
        async_ms = simulate_chains(
            kirin, plan_to_chains(plan), with_contention=False, enforce_memory=False
        ).makespan_ms
        sync_ms = sum(
            max(c.solo_ms for c in col.cells)
            for col in build_schedule(plan).columns
        )
        assert async_ms <= sync_ms + 1e-6

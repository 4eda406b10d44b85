"""Tests for plan structures and Algorithm 3 (work stealing + tail)."""

import pytest

from repro.core.partition import partition_model
from repro.core.plan import PipelinePlan, StageAssignment
from repro.core.stealing import (
    align_to_targets,
    move_boundary_layer,
    optimize_tail,
    refine_globally,
    refine_placements,
    single_processor_assignment,
    vertical_alignment,
    work_steal,
)
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import async_makespan_ms


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


def make_assignment(profiler, kirin, name):
    profile = profiler.profile(get_model(name))
    partition = partition_model(profile, kirin.processors)
    return StageAssignment(profile=profile, slices=list(partition.slices))


def make_plan(profiler, kirin, names):
    return PipelinePlan(
        soc=kirin,
        processors=tuple(kirin.processors),
        assignments=[make_assignment(profiler, kirin, n) for n in names],
    )


class TestStageAssignment:
    def test_validation_accepts_dp_output(self, profiler, kirin):
        make_assignment(profiler, kirin, "vgg16").validate()

    def test_gap_rejected(self, profiler, kirin):
        profile = profiler.profile(get_model("vgg16"))
        n = profile.model.num_layers
        with pytest.raises(ValueError):
            StageAssignment(profile=profile, slices=[(0, 2), (4, n - 1), None, None])

    def test_incomplete_cover_rejected(self, profiler, kirin):
        profile = profiler.profile(get_model("vgg16"))
        with pytest.raises(ValueError):
            StageAssignment(profile=profile, slices=[(0, 2), None, None, None])

    def test_stage_times_zero_for_empty(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "vit")
        times = assignment.stage_times_ms(kirin.processors)
        for k, slc in enumerate(assignment.slices):
            if slc is None:
                assert times[k] == 0.0
            else:
                assert times[k] > 0.0

    def test_copy_is_independent(self, profiler, kirin):
        a = make_assignment(profiler, kirin, "vit")
        b = a.copy()
        b.slices[0] = None
        assert a.slices[0] is not None or a.slices != b.slices

    def test_working_set_positive(self, profiler, kirin):
        assert make_assignment(profiler, kirin, "bert").working_set_bytes() > 0


class TestPipelinePlan:
    def test_default_order_identity(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        assert plan.order == (0, 1)

    def test_order_length_checked(self, profiler, kirin):
        with pytest.raises(ValueError):
            PipelinePlan(
                soc=kirin,
                processors=tuple(kirin.processors),
                assignments=[make_assignment(profiler, kirin, "vit")],
                order=(0, 1),
            )

    def test_stage_time_matrix_shape(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50", "bert"])
        matrix = plan.stage_time_matrix()
        assert len(matrix) == 3
        assert all(len(row) == plan.depth for row in matrix)

    def test_validate_passes_for_dp_plans(self, profiler, kirin):
        make_plan(profiler, kirin, ["yolov4", "bert", "squeezenet"]).validate()


class TestBoundaryMoves:
    def test_move_right_into_empty_stage(self, profiler, kirin):
        base = make_assignment(profiler, kirin, "vit")
        assignment = single_processor_assignment(base, 0, kirin.processors)
        assert assignment is not None
        # Whole model on stage 0; stage 1 is empty and NPU-compatible.
        assert move_boundary_layer(assignment, 0, 1, kirin.processors)
        assignment.validate()
        assert assignment.slices[1] is not None

    def test_move_from_empty_stage_fails(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "vit")
        empty = [k for k, s in enumerate(assignment.slices) if s is None][0]
        target = empty + 1 if empty + 1 < len(kirin.processors) else empty - 1
        assert not move_boundary_layer(assignment, empty, target, kirin.processors)

    def test_non_adjacent_move_rejected(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "vgg16")
        assert not move_boundary_layer(assignment, 0, 2, kirin.processors)

    def test_npu_feasibility_respected(self, profiler, kirin):
        # BERT avoids the NPU; moving its first CPU layer left toward the
        # NPU stage must be rejected (embedding / masked attention).
        assignment = make_assignment(profiler, kirin, "bert")
        npu_stage = [
            k for k, p in enumerate(kirin.processors) if p.name == "npu"
        ][0]
        first_occupied = min(
            k for k, s in enumerate(assignment.slices) if s is not None
        )
        if first_occupied == npu_stage + 1:
            assert not move_boundary_layer(
                assignment, first_occupied, npu_stage, kirin.processors
            )

    def test_moves_preserve_cover(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "resnet50")
        for _ in range(10):
            for s in range(len(kirin.processors) - 1):
                move_boundary_layer(assignment, s, s + 1, kirin.processors)
                assignment.validate()
                move_boundary_layer(assignment, s + 1, s, kirin.processors)
                assignment.validate()


class TestAlignment:
    def test_align_reduces_excess(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "vgg16")
        times = assignment.stage_times_ms(kirin.processors)
        # Target half the current largest stage everywhere.
        target = max(times) / 2
        targets = [target] * len(times)
        before = sum(max(0.0, t - target) for t in times)
        align_to_targets(assignment, targets, kirin.processors)
        after = sum(
            max(0.0, t - target)
            for t in assignment.stage_times_ms(kirin.processors)
        )
        assert after <= before
        assignment.validate()

    def test_align_with_no_targets_is_noop(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "vgg16")
        before = list(assignment.slices)
        moves = align_to_targets(
            assignment, [None] * len(kirin.processors), kirin.processors
        )
        assert moves == 0
        assert list(assignment.slices) == before


class TestVerticalAlignment:
    def test_work_steal_keeps_plans_valid(self, profiler, kirin):
        plan = make_plan(
            profiler, kirin, ["bert", "vit", "squeezenet", "yolov4", "resnet50"]
        )
        work_steal(plan)
        plan.validate()

    def test_refine_globally_never_worsens(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "yolov4", "vgg16"])
        before = async_makespan_ms(plan)
        refine_globally(plan)
        assert async_makespan_ms(plan) <= before + 1e-6
        plan.validate()

    def test_refine_placements_never_worsens(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50", "googlenet"])
        before = async_makespan_ms(plan)
        refine_placements(plan)
        assert async_makespan_ms(plan) <= before + 1e-6
        plan.validate()

    def test_optimize_tail_never_worsens(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "squeezenet"])
        before = async_makespan_ms(plan)
        optimize_tail(plan)
        assert async_makespan_ms(plan) <= before + 1e-6

    def test_single_processor_assignment_infeasible_stage(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "bert")
        npu_stage = [
            k for k, p in enumerate(kirin.processors) if p.name == "npu"
        ][0]
        assert (
            single_processor_assignment(assignment, npu_stage, kirin.processors)
            is None
        )

    def test_single_processor_assignment_valid(self, profiler, kirin):
        assignment = make_assignment(profiler, kirin, "vit")
        single = single_processor_assignment(assignment, 1, kirin.processors)
        assert single is not None
        single.validate()
        occupied = [k for k, s in enumerate(single.slices) if s is not None]
        assert occupied == [1]

    def test_vertical_alignment_full(self, profiler, kirin):
        plan = make_plan(
            profiler, kirin, ["yolov4", "bert", "squeezenet", "vit"]
        )
        before = async_makespan_ms(plan)
        moves, _tail = vertical_alignment(plan)
        after = async_makespan_ms(plan)
        assert after <= before + 1e-6
        plan.validate()

    def test_vertical_alignment_reduces_bubbles_overall(self, profiler, kirin):
        plan = make_plan(
            profiler, kirin, ["bert", "yolov4", "vgg16", "inceptionv4"]
        )
        before = async_makespan_ms(plan)
        vertical_alignment(plan)
        assert async_makespan_ms(plan) < before

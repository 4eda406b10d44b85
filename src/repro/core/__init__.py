"""Hetero2Pipe core: the paper's pipeline-planning contribution."""

from .assignment import InfeasibleAssignmentError, kuhn_munkres
from .bounds import MakespanBounds, makespan_lower_bounds
from .validate import Violation, is_valid, validate_plan
from .contention import ContentionEstimator, ContentionScore
from .mitigation import MitigationResult, Move, mitigate_sequence
from .online import StreamingPlanner, StreamingResult, WindowOutcome
from .thermal_feedback import (
    ThermalFeedbackResult,
    ThermalIteration,
    plan_with_thermal_feedback,
)
from .partition import (
    PartitionResult,
    make_slice_cost,
    min_makespan_partition,
    min_makespan_partition_fast,
    partition_model,
)
from .plan import PipelinePlan, StageAssignment
from .planner import Hetero2PipePlanner, PlannerConfig, PlanReport
from .stealing import (
    align_to_targets,
    move_boundary_layer,
    optimize_tail,
    refine_globally,
    single_processor_assignment,
    vertical_alignment,
    work_steal,
)
from .window import (
    conflicting_high_pairs,
    deficit,
    is_mitigated,
    iter_windows,
    violating_windows,
    window_bounds,
    window_high_count,
)

__all__ = [
    "InfeasibleAssignmentError",
    "kuhn_munkres",
    "MakespanBounds",
    "makespan_lower_bounds",
    "Violation",
    "is_valid",
    "validate_plan",
    "ContentionEstimator",
    "ContentionScore",
    "StreamingPlanner",
    "ThermalFeedbackResult",
    "ThermalIteration",
    "plan_with_thermal_feedback",
    "StreamingResult",
    "WindowOutcome",
    "MitigationResult",
    "Move",
    "mitigate_sequence",
    "PartitionResult",
    "make_slice_cost",
    "min_makespan_partition",
    "min_makespan_partition_fast",
    "partition_model",
    "PipelinePlan",
    "StageAssignment",
    "Hetero2PipePlanner",
    "PlannerConfig",
    "PlanReport",
    "align_to_targets",
    "move_boundary_layer",
    "optimize_tail",
    "refine_globally",
    "single_processor_assignment",
    "vertical_alignment",
    "work_steal",
    "conflicting_high_pairs",
    "deficit",
    "is_mitigated",
    "iter_windows",
    "violating_windows",
    "window_bounds",
    "window_high_count",
]

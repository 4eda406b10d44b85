"""Exhaustive vertical-plan search (Fig. 8a upper bound).

Given the fixed horizontal DP partitions, the vertical decision space is
explored exhaustively over a coarse grid — every request independently
chooses between its DP partition and each feasible single-processor
placement, giving ``(K + 1)^|M|`` candidate plans — and the winner is
polished to a local optimum with the same fine-grained boundary-move
descent and tail re-allocation Hetero2Pipe uses.  The combination
dominates the planner's own search space, so its result is the
near-optimality reference the paper measures against ("our scheme ranks
very close to the solution found by exhaustive search, only 4 % away").
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from ..core.partition import partition_model
from ..core.plan import PipelinePlan, StageAssignment
from ..core.stealing import optimize_tail, placement_moves, refine_globally
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.profiler import SocProfiler
from ..runtime.executor import async_makespan_ms

#: Refuse instances whose coarse grid would exceed this many plans.
MAX_CANDIDATES = 200_000


def candidate_assignments(
    profile, processors
) -> List[StageAssignment]:
    """Per-request options: DP partition + its placement neighbourhood."""
    dp = partition_model(profile, processors)
    base = StageAssignment(profile=profile, slices=list(dp.slices))
    return [base] + [
        StageAssignment(profile=profile, slices=slices)
        for slices, _ in placement_moves(base, processors)
    ]


def exhaustive_plan(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: Optional[SocProfiler] = None,
) -> Tuple[PipelinePlan, float]:
    """Search the coarse grid exhaustively and polish the winner.

    Returns:
        ``(best_plan, makespan_ms)`` under the contention-aware
        synchronized schedule.

    Raises:
        ValueError: for empty input or an instance above
            :data:`MAX_CANDIDATES` candidates.
    """
    if not models:
        raise ValueError("request sequence must be non-empty")
    profiler = profiler or SocProfiler(soc)
    processors = tuple(soc.processors)
    per_request = [
        candidate_assignments(profiler.profile(m), processors) for m in models
    ]
    total = 1
    for options in per_request:
        total *= len(options)
    if total > MAX_CANDIDATES:
        raise ValueError(
            f"instance too large for exhaustive search: {total} candidates "
            f"(limit {MAX_CANDIDATES})"
        )

    best_plan: Optional[PipelinePlan] = None
    best_cost = float("inf")
    for combo in itertools.product(*per_request):
        plan = PipelinePlan(
            soc=soc,
            processors=processors,
            assignments=[a.copy() for a in combo],
        )
        cost = async_makespan_ms(plan)
        if cost < best_cost:
            best_cost = cost
            best_plan = plan

    assert best_plan is not None
    refine_globally(best_plan)
    optimize_tail(best_plan)
    return best_plan, async_makespan_ms(best_plan)

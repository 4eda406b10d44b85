"""Vertical alignment by work stealing (Algorithm 3) and tail optimization.

After horizontal partitioning (per-model optimal, Algorithm 1) and
contention-aware re-ordering (Algorithm 2), stage times of neighbouring
requests are still mutually misaligned: stage ``k`` of the critical
request co-runs with stage ``k - delta`` of the request ``delta``
positions later, and any mismatch becomes a pipeline bubble (Eq. 3).

Within each contention window the algorithm:

1. identifies the *critical path* — the request with the largest total
   stage time;
2. *steals work* between adjacent stages of every other request in the
   window, moving boundary layers so that each of its stages approaches
   the diagonally-aligned stage time of the critical request (Eq. 11's
   absolute-deviation objective, driven to a local minimum by greedy
   single-layer boundary moves in both directions);
3. slides the window by K and repeats.

A final *tail optimization* exploits that inference (unlike training)
may freely re-allocate the draining workload: the last request's
placement is chosen by exhaustive search over the K single-processor
options plus its current partition ("the search space is only K").
"""

from __future__ import annotations

import math
from typing import List, Optional, Protocol, Sequence, Tuple

from .. import obs
from ..hardware.processor import ProcessorSpec
from ..runtime.executor import async_makespan_ms
from .objective import ObjectiveCache
from .plan import PipelinePlan, StageAssignment


class PlanObjective(Protocol):
    """A plan-level objective the descents probe: smaller is better.

    Each probe passes the value it must beat as ``stop_at_ms``; the
    objective may return ``inf`` for a plan that provably reaches it.
    The planner passes a memoizing
    :class:`~repro.core.objective.ObjectiveCache` so repeated probes of
    identical configurations skip the event-driven re-simulation.
    """

    def __call__(
        self, plan: PipelinePlan, *, stop_at_ms: float = math.inf
    ) -> float: ...

#: Stop greedy alignment when the objective improves less than this (ms).
_EPSILON_MS = 1e-9

#: Cap on boundary moves per request alignment, as a safety bound.
_MAX_MOVES_PER_REQUEST = 512

#: Cap on accepted moves of one global boundary-move descent.
_MAX_GLOBAL_MOVES = 128

#: Cap on full sweeps of the per-request placement search.
_MAX_PLACEMENT_SWEEPS = 4


def move_boundary_layer(
    assignment: StageAssignment,
    from_stage: int,
    to_stage: int,
    processors: Sequence[ProcessorSpec],
) -> bool:
    """Move one boundary layer between *adjacent* stages, if feasible.

    Moving right (``to_stage == from_stage + 1``) transfers the last
    layer of ``from_stage``; moving left transfers the first.  The move
    is rejected (returns False) when the source stage is empty, the
    destination processor does not support the layer, or the stages are
    not adjacent.

    Slices stay contiguous by construction: only boundary layers move,
    and an emptied or newly-occupied stage preserves the layer order.
    """
    if abs(to_stage - from_stage) != 1:
        return False
    if not 0 <= from_stage < assignment.num_stages:
        return False
    if not 0 <= to_stage < assignment.num_stages:
        return False
    src = assignment.slices[from_stage]
    if src is None:
        return False
    start, end = src
    layer_idx = end if to_stage > from_stage else start
    if not assignment.profile.feasible(
        processors[to_stage], layer_idx, layer_idx
    ):
        return False

    dst = assignment.slices[to_stage]
    if to_stage > from_stage:
        new_src = None if start > end - 1 else (start, end - 1)
        new_dst = (end, end) if dst is None else (end, dst[1])
        if dst is not None and dst[0] != end + 1:
            return False
    else:
        new_src = None if start + 1 > end else (start + 1, end)
        new_dst = (start, start) if dst is None else (dst[0], start)
        if dst is not None and dst[1] != start - 1:
            return False

    assignment.slices[from_stage] = new_src
    assignment.slices[to_stage] = new_dst
    return True


def _alignment_objective(
    assignment: StageAssignment,
    targets: Sequence[Optional[float]],
    processors: Sequence[ProcessorSpec],
) -> float:
    """One-sided Eq. 11 deviation: excess over the aligned critical time.

    A stage running *under* its diagonally co-running critical stage is
    hidden (the column waits for the critical path anyway); only the
    excess ``max(0, T_s - target_s)`` stalls the pipeline and becomes a
    bubble.  Penalizing the absolute deviation instead would inflate
    fast requests (e.g. an NPU-resident ViT) up to the critical path's
    stage times, increasing both work and contention for zero bubble
    gain, so the hinge is the faithful reading of "till T - T -> 0":
    stealing stops exactly when the excess reaches zero.
    """
    total = 0.0
    for s, target in enumerate(targets):
        if target is None:
            continue
        total += max(0.0, assignment.stage_time_ms(s, processors) - target)
    return total


def align_to_targets(
    assignment: StageAssignment,
    targets: Sequence[Optional[float]],
    processors: Sequence[ProcessorSpec],
    request: Optional[int] = None,
) -> int:
    """Greedily steal boundary layers until no move improves Eq. 11.

    Args:
        request: Execution position of this request, used only to tag
            the :class:`~repro.obs.events.LayerStolen` provenance events;
            when None no events are emitted (moves are still counted in
            the ``steal_moves`` metric).

    Returns:
        The number of boundary moves applied.
    """
    moves = 0
    current = _alignment_objective(assignment, targets, processors)
    while moves < _MAX_MOVES_PER_REQUEST:
        best_gain = _EPSILON_MS
        best_move: Optional[Tuple[int, int]] = None
        for s in range(assignment.num_stages - 1):
            for frm, to in ((s, s + 1), (s + 1, s)):
                trial = assignment.copy()
                if not move_boundary_layer(trial, frm, to, processors):
                    continue
                value = _alignment_objective(trial, targets, processors)
                gain = current - value
                if gain > best_gain:
                    best_gain = gain
                    best_move = (frm, to)
        if best_move is None:
            break
        frm, to = best_move
        src = assignment.slices[frm]
        assert src is not None  # the trial move above succeeded
        layer = src[1] if to > frm else src[0]
        move_boundary_layer(assignment, frm, to, processors)
        current -= best_gain
        moves += 1
        obs.add("steal_moves")
        if request is not None and obs.enabled():
            obs.emit(
                obs.LayerStolen(
                    request=request,
                    from_stage=frm,
                    to_stage=to,
                    layer=layer,
                    phase="window-steal",
                    gain_ms=best_gain,
                )
            )
    return moves


def _critical_index(
    plan: PipelinePlan, window: Sequence[int]
) -> int:
    """Request (global index) with the largest total stage time."""
    def total(i: int) -> float:
        return plan.assignments[i].total_time_ms(plan.processors)

    return max(window, key=total)


def steal_within_window(plan: PipelinePlan, window: Sequence[int]) -> int:
    """Phase 1 of Algorithm 3 for one contention window.

    Aligns every non-critical request's stages to the diagonally
    co-running stage of the critical request.  Returns the number of
    boundary moves applied.
    """
    if not window:
        return 0
    critical = _critical_index(plan, window)
    critical_times = plan.assignments[critical].stage_times_ms(plan.processors)
    depth = plan.depth
    moves = 0
    for i in window:
        if i == critical:
            continue
        delta = i - critical
        targets: List[Optional[float]] = []
        for s in range(depth):
            aligned = s + delta
            targets.append(
                critical_times[aligned] if 0 <= aligned < depth else None
            )
        moves += align_to_targets(
            plan.assignments[i], targets, plan.processors, request=i
        )
    return moves


def work_steal(plan: PipelinePlan) -> int:
    """Phase 1 of Algorithm 3 over the whole sequence (sliding CW by K).

    Returns:
        Total boundary moves applied.
    """
    depth = plan.depth
    moves = 0
    u = 0
    with obs.span("plan.steal", requests=plan.num_requests, depth=depth) as sp:
        while u < plan.num_requests:
            window = list(range(u, min(u + depth, plan.num_requests)))
            moves += steal_within_window(plan, window)
            u += depth
        sp.set(moves=moves)
    return moves


def refine_globally(
    plan: PipelinePlan, objective: PlanObjective = async_makespan_ms
) -> int:
    """Greedy boundary-move descent on the true P2 objective.

    Window-local stealing uses the critical path as a proxy; this pass
    then accepts any single boundary move (any request, either
    direction) that strictly reduces the contention-aware asynchronous
    makespan, until a local optimum.  It can only improve the plan, so
    Hetero2Pipe never regresses below the horizontal-only solution.

    Returns:
        Number of accepted moves.
    """
    moves = 0
    with obs.span("plan.refine_global", requests=plan.num_requests) as sp:
        current = objective(plan)
        while moves < _MAX_GLOBAL_MOVES:
            if isinstance(objective, ObjectiveCache):
                # This iteration's neighbours resume from the plan's run.
                objective.anchor(plan)
            best_gain = _EPSILON_MS
            best: Optional[Tuple[int, int, int]] = None
            for i, assignment in enumerate(plan.assignments):
                for s in range(plan.depth - 1):
                    for frm, to in ((s, s + 1), (s + 1, s)):
                        saved = list(assignment.slices)
                        if not move_boundary_layer(
                            assignment, frm, to, plan.processors
                        ):
                            continue
                        value = objective(
                            plan, stop_at_ms=current - best_gain
                        )
                        assignment.slices = saved
                        gain = current - value
                        if gain > best_gain:
                            best_gain = gain
                            best = (i, frm, to)
            if best is None:
                break
            i, frm, to = best
            src = plan.assignments[i].slices[frm]
            assert src is not None  # the trial move above succeeded
            layer = src[1] if to > frm else src[0]
            move_boundary_layer(plan.assignments[i], frm, to, plan.processors)
            current -= best_gain
            moves += 1
            obs.add("steal_moves")
            if obs.enabled():
                obs.emit(
                    obs.LayerStolen(
                        request=i,
                        from_stage=frm,
                        to_stage=to,
                        layer=layer,
                        phase="global-refine",
                        gain_ms=best_gain,
                    )
                )
        sp.set(moves=moves, makespan_ms=current)
    return moves


def refine_placements(
    plan: PipelinePlan, objective: PlanObjective = async_makespan_ms
) -> int:
    """Per-request placement local search on the async makespan.

    For every request, in reverse order, try each single-processor
    placement (the K-sized search space the paper's tail optimization
    enumerates) and keep the best.  Sweeps repeat until a full pass
    changes nothing.  This lets fast accelerator-friendly requests leave
    the shared pipeline entirely — e.g. three NPU-resident CNNs run
    back-to-back on the NPU while a fallback-bound BERT pipelines across
    CPU and GPU.

    Returns:
        Number of placement changes applied.
    """
    changes = 0
    with obs.span("plan.placements", requests=plan.num_requests) as sp:
        current = objective(plan)
        for _ in range(_MAX_PLACEMENT_SWEEPS):
            changed = False
            for i in range(plan.num_requests - 1, -1, -1):
                original = plan.assignments[i]
                best_assignment = original
                best_cost = current
                for stage in range(plan.depth):
                    candidate = single_processor_assignment(
                        original, stage, plan.processors
                    )
                    if candidate is None or candidate.slices == original.slices:
                        continue
                    plan.assignments[i] = candidate
                    cost = objective(plan, stop_at_ms=best_cost - _EPSILON_MS)
                    if cost < best_cost - _EPSILON_MS:
                        best_cost = cost
                        best_assignment = candidate
                    plan.assignments[i] = original
                if best_assignment is not original:
                    plan.assignments[i] = best_assignment
                    obs.add("placement_changes")
                    if obs.enabled():
                        obs.emit(
                            obs.PlacementChanged(
                                request=i,
                                slices_before=tuple(original.slices),
                                slices_after=tuple(best_assignment.slices),
                                makespan_before_ms=current,
                                makespan_after_ms=best_cost,
                            )
                        )
                    current = best_cost
                    changes += 1
                    changed = True
            if not changed:
                break
        sp.set(changes=changes, makespan_ms=current)
    return changes


def single_processor_assignment(
    assignment: StageAssignment,
    stage: int,
    processors: Sequence[ProcessorSpec],
) -> Optional[StageAssignment]:
    """The whole request on one stage, or None if infeasible there."""
    n = assignment.profile.model.num_layers
    if not assignment.profile.feasible(processors[stage], 0, n - 1):
        return None
    slices: List[Optional[Tuple[int, int]]] = [None] * len(processors)
    slices[stage] = (0, n - 1)
    return StageAssignment(profile=assignment.profile, slices=slices)


def optimize_tail(
    plan: PipelinePlan, objective: PlanObjective = async_makespan_ms
) -> bool:
    """Phase 2: exhaustive tail re-allocation of the final request.

    Tries each of the K single-processor placements for the last request
    and keeps whichever (including the current partition) minimizes the
    contention-aware synchronized makespan.

    Returns:
        True when the tail placement changed.
    """
    if plan.num_requests == 0:
        return False
    last = plan.num_requests - 1
    current = plan.assignments[last]
    best_assignment = current
    before_cost = objective(plan)
    best_cost = before_cost
    for stage in range(plan.depth):
        candidate = single_processor_assignment(current, stage, plan.processors)
        if candidate is None:
            continue
        plan.assignments[last] = candidate
        cost = objective(plan, stop_at_ms=best_cost - _EPSILON_MS)
        if cost < best_cost - _EPSILON_MS:
            best_cost = cost
            best_assignment = candidate
        plan.assignments[last] = current
    if best_assignment is not current:
        plan.assignments[last] = best_assignment
        obs.add("tail_replacements")
        if obs.enabled():
            obs.emit(
                obs.TailReplaced(
                    request=last,
                    slices_before=tuple(current.slices),
                    slices_after=tuple(best_assignment.slices),
                    makespan_before_ms=before_cost,
                    makespan_after_ms=best_cost,
                )
            )
        return True
    return False


def vertical_alignment(
    plan: PipelinePlan,
    enable_tail_optimization: bool = True,
    objective: PlanObjective = async_makespan_ms,
) -> Tuple[int, bool]:
    """Run Algorithm 3 in place.

    Phase 1 (always): window-local work stealing plus the global
    boundary-move descent on the bubble objective.  Phase 2 (gated by
    ``enable_tail_optimization``, the "T" of the paper's No-C/T
    ablation): the per-request placement local search and the exhaustive
    tail re-allocation — the "re-allocating workloads by local search"
    step whose search space is only K per request.

    Args:
        objective: Plan-level cost oracle for every probe; the planner
            passes its :class:`~repro.core.objective.ObjectiveCache` so
            repeated probes of identical configurations are free.

    Returns:
        ``(total_moves, tail_changed)`` where ``total_moves`` counts
        boundary moves plus placement changes.
    """
    with obs.span(
        "plan.vertical", tail_optimization=enable_tail_optimization
    ) as sp:
        moves = work_steal(plan)
        moves += refine_globally(plan, objective=objective)
        tail_changed = False
        if enable_tail_optimization:
            moves += refine_placements(plan, objective=objective)
            moves += refine_globally(plan, objective=objective)
            tail_changed = optimize_tail(plan, objective=objective)
        sp.set(moves=moves, tail_changed=tail_changed)
    return moves, tail_changed

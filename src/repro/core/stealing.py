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

Every phase is one best-improvement descent (:func:`_descend`) over
:func:`boundary_moves` or :func:`placement_moves`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from .. import obs
from ..hardware.processor import ProcessorSpec
from ..runtime.executor import async_makespan_ms
from .objective import MoveProbe, ObjectiveCache
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

Slices = List[Optional[Tuple[int, int]]]

#: A candidate move of one request: its slices after the move, and the
#: ``(from_stage, to_stage, layer)`` of a boundary move (None otherwise).
Move = Tuple[Slices, Optional[Tuple[int, int, int]]]


class _Step(NamedTuple):
    """A move a descent applied to ``assignments[index]``."""

    index: int
    slices_before: Slices
    move: Move
    before_ms: float
    gain_ms: float


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
    moved = _moved_boundary_layer(assignment, from_stage, to_stage, processors)
    if moved is None:
        return False
    assignment.slices[:] = moved
    return True


def _moved_boundary_layer(
    assignment: StageAssignment,
    from_stage: int,
    to_stage: int,
    processors: Sequence[ProcessorSpec],
) -> Optional[Slices]:
    """The slices :func:`move_boundary_layer` would leave, as a new list,
    or None when it would reject the move."""
    slices = assignment.slices
    n = len(slices)
    if abs(to_stage - from_stage) != 1 or not 0 <= min(from_stage, to_stage) < n - 1:
        return None
    src = slices[from_stage]
    if src is None:
        return None
    start, end = src
    layer_idx = end if to_stage > from_stage else start
    if not assignment.profile.feasible(
        processors[to_stage], layer_idx, layer_idx
    ):
        return None

    dst = slices[to_stage]
    if to_stage > from_stage:
        new_src = None if start > end - 1 else (start, end - 1)
        new_dst = (end, end) if dst is None else (end, dst[1])
        if dst is not None and dst[0] != end + 1:
            return None
    else:
        new_src = None if start + 1 > end else (start + 1, end)
        new_dst = (start, start) if dst is None else (dst[0], start)
        if dst is not None and dst[1] != start - 1:
            return None

    moved = list(slices)
    moved[from_stage] = new_src
    moved[to_stage] = new_dst
    return moved


def boundary_moves(
    assignment: StageAssignment, processors: Sequence[ProcessorSpec]
) -> Iterator[Move]:
    """Every feasible :func:`move_boundary_layer`, stage pair by stage
    pair, the rightward move of each pair first; ``assignment`` is left
    as it is."""
    base = assignment.slices
    for s in range(len(base) - 1):
        for frm, to in ((s, s + 1), (s + 1, s)):
            moved = _moved_boundary_layer(assignment, frm, to, processors)
            if moved is not None:
                src = base[frm]
                assert src is not None  # the move above succeeded
                yield moved, (frm, to, src[1] if to > frm else src[0])


def placement_moves(
    assignment: StageAssignment, processors: Sequence[ProcessorSpec]
) -> Iterator[Move]:
    """The request whole on each feasible stage, in stage order, except
    where it already is."""
    for stage in range(len(processors)):
        candidate = single_processor_assignment(assignment, stage, processors)
        if candidate is not None and candidate.slices != assignment.slices:
            yield candidate.slices, None


def _applying(
    assignments: Sequence[StageAssignment], cost: Callable[[float], float]
) -> MoveProbe:
    """A probe for objectives that read the whole plan: it applies the
    move to ``assignments``, asks ``cost`` and restores the slices."""

    def probe(index: int, slices: Slices, stop_at_ms: float) -> float:
        assignment = assignments[index]
        saved = assignment.slices
        assignment.slices = slices
        try:
            return cost(stop_at_ms)
        finally:
            assignment.slices = saved

    return probe


def _descend(
    assignments: Sequence[StageAssignment],
    cost: Callable[[float], float],
    groups: Sequence[Sequence[int]],
    neighbours: Callable[[StageAssignment, Sequence[ProcessorSpec]], Iterator[Move]],
    processors: Sequence[ProcessorSpec],
    max_rounds: int,
    anchor: Optional[Callable[[], MoveProbe]] = None,
) -> Tuple[List[_Step], float]:
    """Best-improvement descent over ``neighbours`` of ``assignments``.

    Each round visits ``groups`` in order.  For each group it probes
    every move of every request in it, passing the probe the value it
    must beat, and applies the move that lowers the objective most, by
    more than :data:`_EPSILON_MS`.  It stops after a round that applies
    nothing, or after ``max_rounds``.

    A request's moves depend only on its slices, its profile and the
    processors, so each ``(request, slices)`` neighbourhood is built
    once per descent and re-probed from the memo in later rounds: a
    round changes one request, and every other request's moves stay.
    The applied slices are a copy of the move's, so no memoized move
    is ever written.

    A probe names its move, ``(request, slices, stop_at_ms)``, and the
    descent never writes ``assignments`` around it.  ``cost`` is the
    objective of ``assignments`` as they stand: it scores the start, and
    by default each move too, through :func:`_applying`.  ``anchor``,
    when given, runs before each round, the first time before the start
    is scored, and returns the round's probe instead; such a probe
    describes the round's start, so it takes a single group.

    Returns:
        The applied moves in order, and the final objective value.
    """
    assert anchor is None or len(groups) == 1, "an anchor's probe serves one group"
    probe = _applying(assignments, cost)
    steps: List[_Step] = []
    current = math.inf
    moves_of: Dict[Tuple[int, Tuple[Optional[Tuple[int, int]], ...]], List[Move]] = {}
    for rounds in range(max_rounds):
        if anchor is not None:
            probe = anchor()
        if not rounds:
            current = cost(math.inf)
        applied = False
        for group in groups:
            best_gain = _EPSILON_MS
            best: Optional[Tuple[int, Move]] = None
            for i in group:
                assignment = assignments[i]
                key = (i, tuple(assignment.slices))
                moves = moves_of.get(key)
                if moves is None:
                    moves = moves_of[key] = list(neighbours(assignment, processors))
                for move in moves:
                    gain = current - probe(i, move[0], current - best_gain)
                    if gain > best_gain:
                        best_gain = gain
                        best = (i, move)
            if best is None:
                continue
            i, move = best
            steps.append(_Step(i, assignments[i].slices, move, current, best_gain))
            assignments[i].slices = list(move[0])
            current -= best_gain
            applied = True
        if not applied:
            break
    return steps, current


def _record_steals(
    steps: Sequence[_Step], phase: str, requests: Sequence[Optional[int]]
) -> None:
    """Count boundary moves and emit their :class:`~repro.obs.LayerStolen`.

    ``requests[step.index]`` is the execution position an event names;
    None counts the move without an event.
    """
    for step in steps:
        obs.add("steal_moves")
        request = requests[step.index]
        if request is not None and obs.enabled():
            assert step.move[1] is not None  # a boundary move
            frm, to, layer = step.move[1]
            obs.emit(obs.LayerStolen(request, frm, to, layer, phase, step.gain_ms))


def _record_placements(
    steps: Sequence[_Step],
    counter: str,
    event: Callable[..., obs.ProvenanceEvent],
) -> None:
    """Count placement changes and emit one ``event`` for each."""
    for step in steps:
        obs.add(counter)
        if obs.enabled():
            slices = tuple(step.slices_before), tuple(step.move[0])
            after_ms = step.before_ms - step.gain_ms
            obs.emit(event(step.index, *slices, step.before_ms, after_ms))


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
    steps, _ = _descend(
        [assignment],
        lambda _stop_at_ms: _alignment_objective(assignment, targets, processors),
        [[0]], boundary_moves, processors, _MAX_MOVES_PER_REQUEST,
    )
    _record_steals(steps, "window-steal", [request])
    return len(steps)


def steal_within_window(plan: PipelinePlan, window: Sequence[int]) -> int:
    """Phase 1 of Algorithm 3 for one contention window.

    Aligns every non-critical request's stages to the diagonally
    co-running stage of the critical request.  Returns the number of
    boundary moves applied.
    """
    if not window:
        return 0
    critical = max(
        window, key=lambda i: plan.assignments[i].total_time_ms(plan.processors)
    )
    critical_times = plan.assignments[critical].stage_times_ms(plan.processors)
    depth = plan.depth
    moves = 0
    for i in window:
        if i == critical:
            continue
        targets: List[Optional[float]] = [
            critical_times[a] if 0 <= a < depth else None
            for a in range(i - critical, i - critical + depth)
        ]
        moves += align_to_targets(
            plan.assignments[i], targets, plan.processors, request=i
        )
    return moves


def work_steal(plan: PipelinePlan) -> int:
    """Phase 1 of Algorithm 3 over the whole sequence (sliding CW by K).

    Returns:
        Total boundary moves applied.
    """
    depth, n = plan.depth, plan.num_requests
    moves = 0
    with obs.span("plan.steal", requests=n, depth=depth) as sp:
        for u in range(0, n, depth):
            moves += steal_within_window(plan, list(range(u, min(u + depth, n))))
        sp.set(moves=moves)
    return moves


def refine_globally(
    plan: PipelinePlan, objective: PlanObjective = async_makespan_ms
) -> int:
    """Greedy boundary-move descent on the true P2 objective.

    Window-local stealing uses the critical path as a proxy; this pass
    then accepts any single boundary move (any request, either
    direction) that strictly reduces the contention-aware asynchronous
    makespan, until a local optimum.  It never worsens the plan it is
    given.  That plan is window stealing's output, which can be worse
    than the horizontal-only plan, so the vertical phase as a whole can
    end above the horizontal-only makespan.

    When ``objective`` is an :class:`~repro.core.objective.ObjectiveCache`,
    each round anchors it on the round's plan, and every probe of the
    round is one move of that plan, which the anchor's probe answers
    from the move alone (:meth:`~repro.core.objective.ObjectiveCache.anchor`).

    Returns:
        Number of accepted moves.
    """
    anchor: Optional[Callable[[], MoveProbe]] = None
    if isinstance(objective, ObjectiveCache):
        anchor = partial(objective.anchor, plan)
    with obs.span("plan.refine_global", requests=plan.num_requests) as sp:
        steps, current = _descend(
            plan.assignments,
            lambda stop_at_ms: objective(plan, stop_at_ms=stop_at_ms),
            [range(plan.num_requests)],
            boundary_moves, plan.processors, _MAX_GLOBAL_MOVES, anchor,
        )
        _record_steals(steps, "global-refine", range(plan.num_requests))
        sp.set(moves=len(steps), makespan_ms=current)
    return len(steps)


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
    with obs.span("plan.placements", requests=plan.num_requests) as sp:
        steps, current = _descend(
            plan.assignments,
            lambda stop_at_ms: objective(plan, stop_at_ms=stop_at_ms),
            [[i] for i in range(plan.num_requests - 1, -1, -1)],
            placement_moves, plan.processors, _MAX_PLACEMENT_SWEEPS,
        )
        _record_placements(steps, "placement_changes", obs.PlacementChanged)
        sp.set(changes=len(steps), makespan_ms=current)
    return len(steps)


def single_processor_assignment(
    assignment: StageAssignment,
    stage: int,
    processors: Sequence[ProcessorSpec],
) -> Optional[StageAssignment]:
    """The whole request on one stage, or None if infeasible there."""
    n = assignment.profile.model.num_layers
    if not assignment.profile.feasible(processors[stage], 0, n - 1):
        return None
    slices: Slices = [None] * len(processors)
    slices[stage] = (0, n - 1)
    return StageAssignment(profile=assignment.profile, slices=slices)


def optimize_tail(
    plan: PipelinePlan, objective: PlanObjective = async_makespan_ms
) -> bool:
    """Phase 2: exhaustive tail re-allocation of the final request.

    Tries each of the K single-processor placements for the last request
    and keeps whichever (including the current partition) minimizes the
    contention-aware makespan.

    Returns:
        True when the tail placement changed.
    """
    if plan.num_requests == 0:
        return False
    steps, _ = _descend(
        plan.assignments,
        lambda stop_at_ms: objective(plan, stop_at_ms=stop_at_ms),
        [[plan.num_requests - 1]], placement_moves, plan.processors, 1,
    )
    _record_placements(steps, "tail_replacements", obs.TailReplaced)
    return bool(steps)


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

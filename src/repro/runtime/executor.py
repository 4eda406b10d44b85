"""Plan execution: the adapter between plans and the event engine.

The synchronized-column timetable (:mod:`repro.runtime.schedule`) is the
planner's optimization proxy; this module is the *evaluation* front-end:
it adapts :class:`~repro.core.plan.PipelinePlan` objects (and the
baselines' hand-built chains) onto the discrete-event engine in
:mod:`repro.runtime.engine`, which owns the continuous-time,
piecewise-constant-rate simulation itself.

The core entry point is :func:`simulate_chains`: each request is a
*chain* of tasks (slice, processor) executed in order.  Chains built
from a :class:`~repro.core.plan.PipelinePlan` give the Hetero2Pipe
semantics (stage k on processor k); baselines such as Band build their
own chains with arbitrary per-segment processor choices and are measured
by the identical machinery.

Semantics (implemented by the engine — see its module docstring for the
event taxonomy and the golden-equivalence guarantee vs the pre-engine
loop preserved in :mod:`repro.runtime._legacy_executor`):

* A chain's next task becomes ready when its previous task finishes
  (precedence, Eq. 8) and the request has arrived; each processor runs
  its ready tasks FIFO in request order.
* While a set of slices co-runs, each progresses at rate
  ``1 / (1 + slowdown)`` with the slowdown recomputed from the live
  co-runner set whenever it changes — the dynamic form of Eq. 2's
  ``T^co``.
* A slice's working set is resident while it executes; a task cannot
  start if it would push residency beyond the physical capacity
  (Constraint 6) and instead waits for memory to drain.
* Every event edge is sampled into a trace of bandwidth demand, memory
  use and the DVFS memory frequency the governor would select (Fig. 9).
* Open-loop extras (arrival processes, relative deadlines with drop
  accounting, cancellation/preemption) ride on the engine's event heap
  and are no-ops for the closed-loop plan-evaluation path.

The planner's objective probes run here too: :func:`async_makespan_ms`
is a fresh probe and :class:`ProbeAnchor` resumes its neighbours' probes
from one checkpointed run.  Both count themselves
(``objective_evaluations``, ``objective_probes_pruned``,
``objective_probes_resumed``) through one helper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..profiling.slowdown import SliceWorkload, check_on_soc
from .arrivals import ArrivalsLike
from .engine import (  # noqa: F401  (re-exported: the historical home)
    _EPS,
    ARENA_OVERHEAD_FACTOR,
    ChainTask,
    Checkpoint,
    DiscreteEventEngine,
    Event,
    ExecutionResult,
    ProbeRun,
    TaskRecord,
    TracePoint,
)
from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..core.plan import PipelinePlan
    from ..profiling.profiler import ModelProfile

__all__ = [
    "ARENA_OVERHEAD_FACTOR",
    "ChainTask",
    "Event",
    "ExecutionResult",
    "ProbeAnchor",
    "TaskRecord",
    "TracePoint",
    "async_makespan_ms",
    "execute_plan",
    "execute_plan_perturbed",
    "plan_to_chains",
    "replicate_chains",
    "scale_chain_tasks",
    "simulate_chains",
]


def simulate_chains(
    soc: SocSpec,
    chains: Sequence[Sequence[ChainTask]],
    arrivals: ArrivalsLike = None,
    track_causality: bool = False,
    **options: Any,
) -> ExecutionResult:
    """Simulate per-request task chains on one SoC.

    A thin adapter over :class:`~repro.runtime.engine.DiscreteEventEngine`
    — one engine instance per call, run to completion.  ``options`` are
    the engine's keyword options (``with_contention``, ``deadline_ms``,
    ...); their semantics, the return type and the raised exceptions are
    the engine's, documented there.

    Unlike the engine, the adapter tracks no causality unless asked: a
    caller that blames the run (:func:`repro.obs.blame_requests`, a
    blame trace, an archive's blame section) passes
    ``track_causality=True``.  Every simulated time is identical either
    way.
    """
    return DiscreteEventEngine(
        soc, chains, arrivals, track_causality=track_causality, **options
    ).run()


def plan_to_chains(plan: "PipelinePlan") -> List[List[ChainTask]]:
    """Adapt a pipeline plan to the chain representation.

    Every call builds new :class:`ChainTask` tuples from the profiles'
    slice-task memos (see :func:`_chain_tasks`).  Tasks are immutable,
    so the chains serve any number of runs.
    """
    processors = plan.processors
    names = _handoff_names(processors)
    return [
        _chain_tasks(
            i, assignment.profile, processors, names, _stages(assignment.slices)
        )
        for i, assignment in enumerate(plan.assignments)
    ]


def _handoff_names(processors: Sequence[ProcessorSpec]) -> Tuple[Optional[str], ...]:
    """Stage ``k``'s processor name is entry ``k``, its successor's ``k + 1``."""
    return tuple(p.name for p in processors) + (None,)  # the last hands off to nobody


#: A request's chain positions: ``(stage, first layer, last layer)`` of
#: each non-empty stage, in order.
Stages = List[Tuple[int, int, int]]


def _stages(slices: Sequence[Optional[Tuple[int, int]]]) -> Stages:
    return [(k, slc[0], slc[1]) for k, slc in enumerate(slices) if slc is not None]


def _chain_tasks(
    request: int,
    profile: "ModelProfile",
    processors: Sequence[ProcessorSpec],
    names: Sequence[Optional[str]],
    stages: Stages,
) -> List[ChainTask]:
    """Tasks of ``request`` at the given chain positions.

    A stage's solo time, workload and working set depend only on its
    profile, processor, successor processor and slice, so they come from
    the profile's slice-task memo
    (:attr:`~repro.profiling.profiler.ModelProfile.slice_tasks`): the
    planner's objective adapts hundreds of near-identical plans, and a
    re-probed stage costs one dict lookup.  A stage is priced from its
    own ``(k, start, end)``, never from an assignment's slices, so the
    memo holds each key's own cost whatever plan asked for it.
    """
    memo = profile.slice_tasks
    misses = 0
    tasks: List[ChainTask] = []
    for k, start, end in stages:
        key = (names[k], names[k + 1], start, end)
        entry = memo.get(key)
        if entry is None:
            misses += 1
            next_proc = processors[k + 1] if k + 1 < len(processors) else None
            entry = memo[key] = (
                profile.slice_cost_ms(processors[k], start, end, next_proc),
                SliceWorkload(profile, processors[k], start, end),
                ARENA_OVERHEAD_FACTOR * profile.working_set_bytes(start, end),
            )
        tasks.append(
            ChainTask(request, processors[k], entry[0], entry[1], entry[2], k)
        )
    if obs.enabled():
        obs.add("chain_task_memo_hits", len(tasks) - misses)
        obs.add("chain_task_memo_misses", misses)
    return tasks


def _probe_tail(
    soc: SocSpec,
    request: int,
    profile: "ModelProfile",
    processors: Sequence[ProcessorSpec],
    names: Tuple[Optional[str], ...],
    stages: Stages,
) -> List[ChainTask]:
    """Tasks of ``request`` at the given chain positions, shared by every
    probe that resumes with them.

    No run writes to a task, so one list per ``(request, names,
    stages)`` in the profile's probe-tail memo
    (:attr:`~repro.profiling.profiler.ModelProfile.probe_tails`) serves
    them all; a memo hit counts its tasks as ``chain_task_memo_hits``.
    A new list is checked once, as a probe run checks its chains
    (:func:`~repro.profiling.slowdown.check_on_soc`), so resumed runs
    need not check it again.
    """
    memo = profile.probe_tails
    key = (request, names, tuple(stages))
    tasks = memo.get(key)
    if tasks is None:
        tasks = _chain_tasks(request, profile, processors, names, stages)
        for task in tasks:
            check_on_soc(soc, task.proc, task.workload)
        memo[key] = tasks
    elif obs.enabled():
        obs.add("chain_task_memo_hits", len(tasks))
    return tasks


# ------------------------------------------------------ objective probes


def _counted(makespan_ms: float, resumed: bool = False) -> float:
    """Count one objective simulation that returned ``makespan_ms``."""
    if obs.enabled():
        obs.add("objective_evaluations")
        if resumed:
            obs.add("objective_probes_resumed")
        if makespan_ms == math.inf:
            obs.add("objective_probes_pruned")
    return makespan_ms


def async_makespan_ms(plan: "PipelinePlan", stop_at_ms: float = math.inf) -> float:
    """Asynchronous (event-driven) makespan of a plan: one fresh probe.

    The synchronized-column model (:mod:`repro.runtime.schedule`)
    over-serializes: it forces every request to march one stage per
    column even when its processor is free.  The planner's vertical
    phase therefore optimizes this asynchronous makespan — the same
    quantity the evaluation simulator reports — computed without the
    memory-capacity gate so that search intermediates never trip
    Constraint 6 (the final plan is always re-validated with
    enforcement on).

    Each call is a full silent re-simulation (``objective_evaluations``
    counts them) that pays only for the makespan it returns: it is a
    :class:`~repro.runtime.engine.ProbeRun`, which builds no engine, no
    result and no blame rows, and the chains come from the profiles'
    slice-task memos, so probes of near-identical plans share workload
    objects and their cached contention inputs.  This function is a deterministic pure function
    of the plan configuration, which is what makes
    :class:`repro.core.objective.ObjectiveCache` — the planner's
    memoization layer in front of it — exact rather than approximate.

    A caller that only keeps makespans below a threshold passes it as
    ``stop_at_ms``: the run stops as soon as it provably reaches the
    threshold and returns ``inf`` (``objective_probes_pruned`` counts
    these), so every comparison against the threshold decides as the
    full run would.
    """
    run = ProbeRun(plan.soc, plan_to_chains(plan))
    return _counted(run.bounded_ms(stop_at_ms))


def _first_reaching(
    checkpoints: Sequence[Checkpoint], request: int, code: int
) -> int:
    """The first checkpoint at which ``request``'s progress reaches ``code``.

    Progress codes only grow, so this is a binary search (by hand:
    ``bisect``'s ``key=`` needs Python 3.10), reading
    :meth:`~repro.runtime.engine.Checkpoint.progress` inline.
    """
    lo, hi = 0, len(checkpoints)
    while lo < hi:
        mid = (lo + hi) // 2
        checkpoint = checkpoints[mid]
        if 2 * checkpoint.next_idx[request] + checkpoint.prev_done[request] < code:
            lo = mid + 1
        else:
            hi = mid
    return lo


#: Where a probe's run leaves an anchor's: the checkpoint index it
#: resumes from, and each changed request's ``(position, tasks)`` tail.
Resume = Tuple[int, Dict[int, Tuple[int, List[ChainTask]]]]


class ProbeAnchor:
    """One checkpointed probe run of a plan that neighbouring probes resume.

    A probe of a plan with the same SoC, processors, order and model
    profiles differs from the anchor only in some requests' slices.  For each
    such request the first differing chain position ``p`` says how far
    the anchor's run is also the probe's: up to the step in which ``p``
    starts if its processor is unchanged, else up to the step in which
    ``p`` is exposed (see :class:`~repro.runtime.engine.ProbeRun`).  The
    probe resumes the anchor's run at the earliest such step, or at
    checkpoint 0 when a first position moves to another processor, with
    the changed requests' tails shared through the slice-task memo
    (:func:`_probe_tail`), and runs bounded from there: no
    ``plan_to_chains``, no task for a tail probed before, and none of
    the shared prefix's steps.

    A probe names its plan one of two ways.  :meth:`probe_ms` takes a
    whole plan and finds the requests whose slices changed;
    :meth:`move_ms` takes one request's new slices, so no plan is built
    or compared, and runs through
    :meth:`~repro.runtime.engine.ProbeRun.moved_ms`, so no resumed run
    or tails mapping is built either.  Both locate a request's
    divergence through :meth:`_leaves_at`, so they resume the same run.

    Args:
        plan: The plan to anchor on.
        previous: An earlier anchor; when the plan is one of its
            neighbours the new anchor's run resumes from it too.
    """

    def __init__(
        self,
        plan: "PipelinePlan",
        previous: Optional["ProbeAnchor"] = None,
    ) -> None:
        self._soc = plan.soc
        self._processors = plan.processors
        self._order = plan.order
        self._profiles = [a.profile for a in plan.assignments]
        self._slices = [list(a.slices) for a in plan.assignments]
        self._stages = [_stages(a.slices) for a in plan.assignments]
        self._names = _handoff_names(plan.processors)
        run = None
        if previous is not None:
            resume = previous._divergence(plan)
            if resume is not None:
                run = previous._run.resumed(*resume)
        if run is None:
            run = ProbeRun(plan.soc, plan_to_chains(plan))
        self.makespan_ms = _counted(run.checkpointed())
        self._run = run

    def probe_ms(
        self, plan: "PipelinePlan", stop_at_ms: float = math.inf
    ) -> Optional[float]:
        """The plan's :func:`async_makespan_ms`, resumed from this anchor.

        Returns:
            The makespan (bit-identical to a fresh probe), ``inf`` when
            the run provably reaches ``stop_at_ms``, or None when the
            plan cannot resume from this anchor (another SoC, order or
            mix).
        """
        resume = self._divergence(plan)
        if resume is None:
            return None
        run = self._run.resumed(*resume)
        return _counted(run.bounded_ms(stop_at_ms), resumed=True)

    def move_ms(
        self,
        request: int,
        slices: Sequence[Optional[Tuple[int, int]]],
        stop_at_ms: float = math.inf,
    ) -> float:
        """:meth:`probe_ms` of the anchor's plan with ``request`` moved to
        ``slices`` (which differ from its anchored slices)."""
        index, (position, tasks) = self._leaves_at(request, slices)
        makespan_ms = self._run.moved_ms(index, request, position, tasks, stop_at_ms)
        return _counted(makespan_ms, resumed=True)

    def _divergence(self, plan: "PipelinePlan") -> Optional[Resume]:
        """Where ``plan``'s run leaves the anchor's, or None when it does
        not share the anchor's run."""
        if (
            plan.soc is not self._soc
            or plan.processors != self._processors
            or plan.order != self._order
            or len(plan.assignments) != len(self._profiles)
            or any(
                a.profile is not profile
                for a, profile in zip(plan.assignments, self._profiles)
            )
        ):
            return None
        index = len(self._run.checkpoints) - 1
        tails: Dict[int, Tuple[int, List[ChainTask]]] = {}
        for i, assignment in enumerate(plan.assignments):
            if assignment.slices != self._slices[i]:
                leaves_at, tails[i] = self._leaves_at(i, assignment.slices)
                index = min(index, leaves_at)
        return index, tails

    def _leaves_at(
        self, request: int, slices: Sequence[Optional[Tuple[int, int]]]
    ) -> Tuple[int, Tuple[int, List[ChainTask]]]:
        """The last checkpoint the anchor's run shares with a run whose
        ``request`` has ``slices``, and the request's tail from there."""
        old = self._stages[request]
        new = _stages(slices)
        p = 0
        while p < len(old) and p < len(new) and old[p] == new[p]:
            p += 1
        if p < len(old) and p < len(new) and old[p][0] == new[p][0]:
            code = 2 * p + 2  # same processor: read when it starts
        else:
            code = 2 * p + 1  # read when it is exposed
        tail = _probe_tail(
            self._soc,
            request,
            self._profiles[request],
            self._processors,
            self._names,
            new[p:],
        )
        # A first position exposed at checkpoint 0 is re-filed there.
        index = max(_first_reaching(self._run.checkpoints, request, code) - 1, 0)
        return index, (p, tail)


def replicate_chains(
    chains: Sequence[Sequence[ChainTask]],
    copies: int,
) -> List[List[ChainTask]]:
    """Tile a chain set into ``copies`` back-to-back request rounds.

    Open-loop streaming runs (the ``slo`` verb, the SLO tests) need far
    more requests than a plan has models; this offsets request ids by
    ``round * len(chains)``, matching the arrival order of a repeated
    model mix.  Tasks are immutable, so a task whose id is already right
    (the first round's, usually) is shared rather than rebuilt.

    Raises:
        ValueError: on a non-positive copy count.
    """
    if copies <= 0:
        raise ValueError(f"copies must be >= 1, got {copies}")
    replicated: List[List[ChainTask]] = []
    for round_index in range(copies):
        offset = round_index * len(chains)
        for i, chain in enumerate(chains):
            request = offset + i
            replicated.append(
                [
                    task if task.request == request else ChainTask(request, *task[1:])
                    for task in chain
                ]
            )
    return replicated


def scale_chain_tasks(
    chains: Sequence[Sequence[ChainTask]],
    factors: Dict[str, float],
) -> List[List[ChainTask]]:
    """Perturbation injection: the chains with task solo times scaled per processor.

    Every task bound to a processor in ``factors`` has its ``solo_ms``
    multiplied by that factor (e.g. ``{"gpu": 1.3}`` is a +30% slowdown
    — thermal throttling, an unplanned co-runner); the input chains are
    left as they are.  The planner never sees the perturbation, so the
    executed run diverges from its prediction — the scenario the drift
    detectors exist for.

    Raises:
        ValueError: on a non-finite or non-positive factor.
    """
    for name, factor in factors.items():
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"factor for {name!r} must be finite and > 0, got {factor}"
            )
    return [
        [
            task
            if task.proc.name not in factors
            else task._replace(solo_ms=task.solo_ms * factors[task.proc.name])
            for task in chain
        ]
        for chain in chains
    ]


def execute_plan_perturbed(
    plan: "PipelinePlan",
    factors: Dict[str, float],
    arrivals: ArrivalsLike = None,
    **options: Any,
) -> ExecutionResult:
    """Execute a plan with per-processor slowdown factors injected.

    ``options`` are forwarded to the engine (see :func:`simulate_chains`).
    """
    chains = scale_chain_tasks(plan_to_chains(plan), factors)
    return simulate_chains(plan.soc, chains, arrivals, **options)


def execute_plan(
    plan: "PipelinePlan",
    arrivals: ArrivalsLike = None,
    **options: Any,
) -> ExecutionResult:
    """Simulate one :class:`~repro.core.plan.PipelinePlan` end to end.

    ``options`` are forwarded to the engine (see :func:`simulate_chains`).
    """
    return simulate_chains(plan.soc, plan_to_chains(plan), arrivals, **options)

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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .. import obs
from ..profiling.slowdown import SliceWorkload
from .arrivals import ArrivalsLike
from .engine import (  # noqa: F401  (re-exported: the historical home)
    _EPS,
    ARENA_OVERHEAD_FACTOR,
    ChainTask,
    DiscreteEventEngine,
    Event,
    ExecutionResult,
    TaskRecord,
    TracePoint,
)
from ..hardware.soc import SocSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..core.plan import PipelinePlan

__all__ = [
    "ARENA_OVERHEAD_FACTOR",
    "ChainTask",
    "Event",
    "ExecutionResult",
    "TaskRecord",
    "TracePoint",
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
    **options: Any,
) -> ExecutionResult:
    """Simulate per-request task chains on one SoC.

    A thin adapter over :class:`~repro.runtime.engine.DiscreteEventEngine`
    — one engine instance per call, run to completion.  ``options`` are
    the engine's keyword options (``with_contention``, ``deadline_ms``,
    ``track_causality``, ...); their semantics, the return type and the
    raised exceptions are the engine's, documented there.
    """
    return DiscreteEventEngine(soc, chains, arrivals, **options).run()


def plan_to_chains(plan: "PipelinePlan") -> List[List[ChainTask]]:
    """Adapt a pipeline plan to the chain representation.

    A stage's solo time, workload and working set depend only on its
    profile, processor, successor processor and slice, so they come from
    the profile's slice-task memo
    (:attr:`~repro.profiling.profiler.ModelProfile.slice_tasks`): the
    planner's objective adapts hundreds of near-identical plans, and a
    re-probed stage costs one dict lookup.  Every call still builds fresh
    :class:`ChainTask` objects — engine tasks are mutable.
    """
    processors = plan.processors
    names: List[Optional[str]] = [p.name for p in processors]
    names.append(None)  # the last stage hands off to nobody
    hits = misses = 0
    chains: List[List[ChainTask]] = []
    for i, assignment in enumerate(plan.assignments):
        profile = assignment.profile
        memo = profile.slice_tasks
        chain: List[ChainTask] = []
        for k, slc in enumerate(assignment.slices):
            if slc is None:
                continue
            start, end = slc
            key = (names[k], names[k + 1], start, end)
            entry = memo.get(key)
            if entry is None:
                misses += 1
                entry = (
                    assignment.stage_time_ms(k, processors),
                    SliceWorkload(
                        profile=profile, proc=processors[k], start=start, end=end
                    ),
                    ARENA_OVERHEAD_FACTOR * profile.working_set_bytes(start, end),
                )
                memo[key] = entry
            else:
                hits += 1
            chain.append(
                ChainTask(
                    request=i,
                    proc=processors[k],
                    solo_ms=entry[0],
                    workload=entry[1],
                    working_set=entry[2],
                    stage=k,
                )
            )
        chains.append(chain)
    if obs.enabled():
        obs.add("chain_task_memo_hits", hits)
        obs.add("chain_task_memo_misses", misses)
    return chains


def replicate_chains(
    chains: Sequence[Sequence[ChainTask]],
    copies: int,
) -> List[List[ChainTask]]:
    """Tile a chain set into ``copies`` back-to-back request rounds.

    Open-loop streaming runs (the ``slo`` verb, the SLO tests) need far
    more requests than a plan has models; this builds fresh
    :class:`ChainTask` instances (engine tasks are mutable — sharing
    them across requests would corrupt ``remaining_ms``) with request
    ids offset by ``round * len(chains)``, matching the arrival order
    of a repeated model mix.  ``copies=1`` is a fresh clone, the way a
    second run (a perturbed or counterfactual one) gets unspent tasks.

    Raises:
        ValueError: on a non-positive copy count.
    """
    if copies <= 0:
        raise ValueError(f"copies must be >= 1, got {copies}")
    replicated: List[List[ChainTask]] = []
    for round_index in range(copies):
        offset = round_index * len(chains)
        for i, chain in enumerate(chains):
            replicated.append(
                [
                    ChainTask(
                        request=offset + i,
                        proc=task.proc,
                        solo_ms=task.solo_ms,
                        workload=task.workload,
                        working_set=task.working_set,
                        stage=task.stage,
                    )
                    for task in chain
                ]
            )
    return replicated


def scale_chain_tasks(
    chains: Sequence[Sequence[ChainTask]],
    factors: Dict[str, float],
) -> int:
    """Perturbation injection: scale task solo times per processor.

    Multiplies ``solo_ms`` / ``remaining_ms`` of every not-yet-started
    task bound to a processor in ``factors`` (e.g. ``{"gpu": 1.3}`` is
    a +30% slowdown — thermal throttling, an unplanned co-runner).  The
    planner never sees the perturbation, so the executed run diverges
    from its prediction — the scenario the drift detectors exist for.

    A task that has started (even one preempted since) keeps its times.

    Returns:
        The number of tasks scaled.

    Raises:
        ValueError: on a non-finite or non-positive factor.
    """
    for name, factor in factors.items():
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"factor for {name!r} must be finite and > 0, got {factor}"
            )
    scaled = 0
    for chain in chains:
        for task in chain:
            factor = factors.get(task.proc.name)
            if factor is None or task.start_ms is not None:
                continue
            task.solo_ms = task.solo_ms * factor
            task.remaining_ms = task.remaining_ms * factor
            scaled += 1
    return scaled


def execute_plan_perturbed(
    plan: "PipelinePlan",
    factors: Dict[str, float],
    arrivals: ArrivalsLike = None,
    **options: Any,
) -> ExecutionResult:
    """Execute a plan with per-processor slowdown factors injected.

    ``options`` are forwarded to the engine (see :func:`simulate_chains`).
    """
    chains = plan_to_chains(plan)
    scale_chain_tasks(chains, factors)
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

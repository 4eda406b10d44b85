"""Simulated-annealing vertical planner (Fig. 8a meta-heuristic).

Explores the same decision space as Hetero2Pipe's vertical phase —
request order plus per-request stage placement — with a standard
geometric-cooling Metropolis walk over three move types: re-placing one
request, swapping two adjacent requests, and shifting one boundary
layer.  The paper uses it to show that the structured two-step planner
beats a generic meta-heuristic at far lower cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.partition import partition_model
from ..core.plan import PipelinePlan, StageAssignment
from ..core.stealing import move_boundary_layer, single_processor_assignment
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.profiler import SocProfiler
from ..runtime.executor import async_makespan_ms


#: Starting temperature, relative to the initial plan's cost.
INITIAL_TEMPERATURE = 0.30

#: Geometric cooling factor applied after every step.
COOLING = 0.97


@dataclass(frozen=True)
class AnnealingConfig:
    """Walk length and random seed of the :data:`COOLING` schedule."""

    steps: int = 600
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def _initial_plan(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: SocProfiler,
) -> PipelinePlan:
    processors = tuple(soc.processors)
    assignments = [
        StageAssignment(
            profile=profiler.profile(m),
            slices=list(partition_model(profiler.profile(m), processors).slices),
        )
        for m in models
    ]
    return PipelinePlan(soc=soc, processors=processors, assignments=assignments)


def anneal_plan(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: Optional[SocProfiler] = None,
    config: Optional[AnnealingConfig] = None,
) -> Tuple[PipelinePlan, float]:
    """Run simulated annealing and return the best plan found.

    Raises:
        ValueError: for an empty request sequence.
    """
    if not models:
        raise ValueError("request sequence must be non-empty")
    profiler = profiler or SocProfiler(soc)
    config = config or AnnealingConfig()
    rng = np.random.default_rng(config.seed)

    plan = _initial_plan(soc, models, profiler)
    cost = async_makespan_ms(plan)
    best_plan = plan.copy()
    best_cost = cost
    temperature = INITIAL_TEMPERATURE * max(cost, 1e-6)

    for _ in range(config.steps):
        trial = plan.copy()
        kind = rng.integers(0, 3)
        if kind == 0 and trial.num_requests >= 1:
            # Re-place one request on a random single stage (or back to DP).
            i = int(rng.integers(0, trial.num_requests))
            stage = int(rng.integers(0, trial.depth))
            candidate = single_processor_assignment(
                trial.assignments[i], stage, trial.processors
            )
            if candidate is None:
                continue
            trial.assignments[i] = candidate
        elif kind == 1 and trial.num_requests >= 2:
            i = int(rng.integers(0, trial.num_requests - 1))
            trial.assignments[i], trial.assignments[i + 1] = (
                trial.assignments[i + 1],
                trial.assignments[i],
            )
        else:
            i = int(rng.integers(0, trial.num_requests))
            s = int(rng.integers(0, trial.depth - 1)) if trial.depth > 1 else 0
            direction = (s, s + 1) if rng.random() < 0.5 else (s + 1, s)
            if not move_boundary_layer(
                trial.assignments[i], direction[0], direction[1], trial.processors
            ):
                continue

        trial_cost = async_makespan_ms(trial)
        delta = trial_cost - cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            plan, cost = trial, trial_cost
            if cost < best_cost:
                best_plan, best_cost = plan.copy(), cost
        temperature *= COOLING

    return best_plan, best_cost

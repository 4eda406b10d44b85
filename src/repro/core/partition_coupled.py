"""Contention-coupled horizontal partitioning (single-step ablation).

The paper argues that "a single-step problem formulation ... cannot
fully capture the dual heterogeneity in our system" and decouples
planning into the horizontal/vertical two-step.  This module implements
the single-step alternative so the claim can be tested: the horizontal
DP's slice costs are inflated by the co-execution slowdown each
processor is *expected* to suffer given the rest of the batch, coupling
contention into partitioning directly.

The expected pressure on processor ``p`` while model ``m`` runs is the
mean solo bus-demand intensity of the other requests (each is assumed
co-resident on some other unit roughly once per pipeline period —
 the same Observation-1 proxy the two-step planner uses, just applied
inside the DP instead of after it).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.profiler import INFEASIBLE, ModelProfile, SocProfiler
from ..profiling.slowdown import (
    MAX_SLOWDOWN,
    REFERENCE_BANDWIDTH_GBPS,
    SENSITIVITY_BASE,
    SENSITIVITY_GAIN,
)
from .partition import PartitionResult, min_makespan_partition
from .plan import PipelinePlan, StageAssignment
from .stealing import vertical_alignment


def expected_pressures(
    soc: SocSpec,
    profiles: Sequence[ModelProfile],
    subject: ModelProfile,
) -> Dict[str, float]:
    """Expected bus pressure per processor while ``subject`` executes.

    Averages the other requests' solo intensities (measured on the CPU
    Big cluster as their placement is unknown at this stage) and couples
    them through the victim processor's worst-case co-runner kind.
    """
    cpu = soc.cpu_big
    others = [p for p in profiles if p is not subject]
    if not others:
        return {proc.name: 0.0 for proc in soc.processors}
    mean_intensity = sum(
        p.traffic_rate_gbps(cpu, 0, p.model.num_layers - 1)
        / REFERENCE_BANDWIDTH_GBPS
        for p in others
    ) / len(others)
    pressures = {}
    for victim in soc.processors:
        coupling = max(
            soc.coupling_factor(victim.kind, source.kind)
            for source in soc.processors
            if source.name != victim.name
        )
        pressures[victim.name] = coupling * mean_intensity
    return pressures


def coupled_slice_cost(
    profile: ModelProfile,
    processors: Sequence[ProcessorSpec],
    pressures: Dict[str, float],
) -> Callable[[int, int, int], float]:
    """DP cost callback with contention inflation baked in."""

    def cost(stage: int, start: int, end: int) -> float:
        proc = processors[stage]
        next_proc = processors[stage + 1] if stage + 1 < len(processors) else None
        base = profile.slice_cost_ms(proc, start, end, next_proc)
        if math.isinf(base):
            return INFEASIBLE
        mem_frac = profile.memory_fraction(proc, start, end)
        sensitivity = SENSITIVITY_BASE + SENSITIVITY_GAIN * mem_frac
        if proc.dedicated_memory_path:
            sensitivity *= 0.2
        pressure = pressures.get(proc.name, 0.0)
        slowdown = MAX_SLOWDOWN * (1.0 - math.exp(-pressure * sensitivity))
        return base * (1.0 + slowdown)

    return cost


def partition_model_coupled(
    profile: ModelProfile,
    processors: Sequence[ProcessorSpec],
    pressures: Dict[str, float],
) -> PartitionResult:
    """Min-max partition under contention-inflated slice costs.

    Raises:
        ValueError: if no feasible partition exists.
    """
    cost = coupled_slice_cost(profile, processors, pressures)
    makespan, slices = min_makespan_partition(
        profile.model.num_layers, len(processors), cost
    )
    stage_times = tuple(
        0.0 if s is None else cost(k, s[0], s[1]) for k, s in enumerate(slices)
    )
    return PartitionResult(
        slices=tuple(slices),
        stage_times_ms=stage_times,
        makespan_ms=makespan,
    )


def plan_coupled(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: Optional[SocProfiler] = None,
) -> PipelinePlan:
    """Single-step plan: contention-coupled DP, then vertical alignment.

    Raises:
        ValueError: for an empty request sequence.
    """
    if not models:
        raise ValueError("request sequence must be non-empty")
    profiler = profiler or SocProfiler(soc)
    processors = tuple(soc.processors)
    profiles = [profiler.profile(m) for m in models]
    assignments: List[StageAssignment] = []
    for profile in profiles:
        pressures = expected_pressures(soc, profiles, profile)
        partition = partition_model_coupled(profile, processors, pressures)
        assignments.append(
            StageAssignment(profile=profile, slices=list(partition.slices))
        )
    plan = PipelinePlan(
        soc=soc, processors=processors, assignments=assignments
    )
    vertical_alignment(plan)
    plan.validate()
    return plan

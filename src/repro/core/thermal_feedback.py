"""Thermal-feedback planning (extension of Appendix B).

The paper sidesteps thermal transients by profiling at the fully-loaded
steady state — which over-penalizes processors the plan barely uses.
This extension closes the loop: plan with the current thermal scales,
simulate, read each processor's *actual* utilization, recompute its
sustained-frequency scale from the thermal model, re-profile and
re-plan.  The fixpoint typically lands in two or three iterations and
recovers throughput on lightly-loaded units (e.g. a CPU Big cluster
that only hosts one short stage does not throttle as if saturated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..hardware.soc import SocSpec
from ..hardware.thermal import sustained_frequency_scale
from ..models.ir import ModelGraph
from ..profiling.profiler import SocProfiler
from ..runtime.executor import ExecutionResult, execute_plan
from .planner import Hetero2PipePlanner, PlanReport


@dataclass(frozen=True)
class ThermalIteration:
    """One fixpoint step: the scales used and the resulting makespan."""

    scales: Dict[str, float]
    makespan_ms: float


@dataclass
class ThermalFeedbackResult:
    """Final plan plus the fixpoint trajectory."""

    report: PlanReport
    result: ExecutionResult
    iterations: List[ThermalIteration]

    @property
    def final_scales(self) -> Dict[str, float]:
        return self.iterations[-1].scales


def plan_with_thermal_feedback(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    max_iterations: int = 3,
) -> ThermalFeedbackResult:
    """Iterate plan -> simulate -> utilization -> thermal scales.

    Args:
        soc: Target platform.
        models: The request sequence.
        max_iterations: Fixpoint iteration cap.

    Returns:
        The :class:`ThermalFeedbackResult` with the final plan executed
        under its own utilization-consistent thermal scales.

    Raises:
        ValueError: on empty input or non-positive iteration cap.
    """
    if not models:
        raise ValueError("request sequence must be non-empty")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    # Start from the paper's worst-case assumption: full utilization.
    scales: Dict[str, float] = {
        p.name: sustained_frequency_scale(p.kind, 1.0) for p in soc.processors
    }
    iterations: List[ThermalIteration] = []
    report: Optional[PlanReport] = None
    result: Optional[ExecutionResult] = None

    for _ in range(max_iterations):
        profiler = SocProfiler(soc, thermal_scales=scales)
        planner = Hetero2PipePlanner(soc)
        planner.profiler = profiler  # plan against the scaled profiles
        report = planner.plan(list(models))
        result = execute_plan(report.plan)
        iterations.append(
            ThermalIteration(scales=dict(scales), makespan_ms=result.makespan_ms)
        )
        new_scales = {
            p.name: sustained_frequency_scale(
                p.kind, min(1.0, result.utilization(p.name))
            )
            for p in soc.processors
        }
        if all(
            abs(new_scales[name] - scales[name]) < 0.02 for name in scales
        ):
            scales = new_scales
            break
        scales = new_scales

    assert report is not None and result is not None
    return ThermalFeedbackResult(
        report=report, result=result, iterations=iterations
    )

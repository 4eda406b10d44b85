"""Appendix B: thermal behaviour of the heterogeneous processors.

The paper observes that continuous inference drives the CPU above
60 degC with noticeable throttling while the GPU/NPU stay within ~50
degC, and therefore profiles at the thermal steady state.  This
experiment regenerates the steady-state picture — per-processor
equilibrium temperature and sustained-frequency scale across a
utilization sweep — and quantifies the latency cost of the worst-case
(full-load) assumption vs the utilization-consistent thermal-feedback
fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.planner import Hetero2PipePlanner
from ..core.thermal_feedback import plan_with_thermal_feedback
from ..hardware.processor import ProcessorKind
from ..hardware.soc import get_soc
from ..hardware.thermal import steady_state
from ..models.zoo import get_model
from ..runtime.executor import execute_plan
from .common import format_table


@dataclass(frozen=True)
class ThermalRow:
    """One (processor kind, utilization) steady-state point."""

    kind: str
    utilization: float
    temperature_c: float
    frequency_scale: float


def run_sweep() -> List[ThermalRow]:
    """Steady-state temperature/scale over a utilization sweep."""
    rows: List[ThermalRow] = []
    for kind in ProcessorKind:
        for utilization in (0.25, 0.5, 0.75, 1.0):
            state = steady_state(kind, utilization)
            rows.append(
                ThermalRow(
                    kind=kind.value,
                    utilization=utilization,
                    temperature_c=state.temperature_c,
                    frequency_scale=state.frequency_scale,
                )
            )
    return rows


@dataclass(frozen=True)
class FeedbackComparison:
    """Worst-case-profiled vs utilization-consistent planning."""

    worst_case_ms: float
    feedback_ms: float
    final_cpu_scale: float

    @property
    def recovered(self) -> float:
        """Fraction of latency recovered by the feedback fixpoint."""
        if self.worst_case_ms <= 0:
            return 0.0
        return 1.0 - self.feedback_ms / self.worst_case_ms


def run_feedback() -> FeedbackComparison:
    """Compare worst-case thermal profiling with the feedback loop on
    Kirin 990, over a yolov4 / bert / squeezenet / vit mix."""
    soc = get_soc("kirin990")
    models = [get_model(n) for n in ("yolov4", "bert", "squeezenet", "vit")]
    worst = execute_plan(Hetero2PipePlanner(soc).plan(models).plan).makespan_ms
    feedback = plan_with_thermal_feedback(soc, models, max_iterations=3)
    return FeedbackComparison(
        worst_case_ms=worst,
        feedback_ms=feedback.result.makespan_ms,
        final_cpu_scale=feedback.final_scales.get("cpu_big", 1.0),
    )


def render_sweep(rows: Sequence[ThermalRow]) -> str:
    headers = ["processor", "utilization", "temp_C", "freq_scale"]
    body = [
        [r.kind, r.utilization, r.temperature_c, round(r.frequency_scale, 3)]
        for r in rows
    ]
    return format_table(headers, body)


def render_feedback(comparison: FeedbackComparison) -> str:
    return (
        f"worst-case thermal profiling: {comparison.worst_case_ms:.1f} ms\n"
        f"thermal-feedback fixpoint:    {comparison.feedback_ms:.1f} ms "
        f"(cpu_big scale {comparison.final_cpu_scale:.2f})\n"
        f"latency recovered:            {comparison.recovered * 100:.1f}%"
    )


def main() -> str:
    return (
        "Appendix B steady-state sweep:\n"
        + render_sweep(run_sweep())
        + "\n\nthermal-feedback comparison:\n"
        + render_feedback(run_feedback())
    )


if __name__ == "__main__":
    print(main())

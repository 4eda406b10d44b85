"""Extension experiment: absolute optimality gaps.

Fig. 8(a) measures Hetero2Pipe against exhaustive search — a *relative*
reference that only dominates its own grid.  This study adds the
absolute view: for random workloads, the planner's achieved makespan
against the contention-free theoretical lower bound
(:mod:`repro.core.bounds`), split by whether the workload contains
NPU-incompatible models.

Interpretation note: the *bound*, not the planner, is what varies most
between the two groups.  The work bound divides each model's best-case
time by K processors — on NPU-clean workloads every model's best case
is the same single NPU, so the bound assumes a K-way parallelism the
hardware cannot offer and the measured gap is dominated by bound
looseness.  Workloads containing fallback-bound models spread naturally
over CPU/GPU, the bound tightens, and Hetero2Pipe lands much closer to
it — the regime where the gap actually reflects planning quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.bounds import makespan_lower_bounds
from ..core.planner import Hetero2PipePlanner
from ..hardware.soc import get_soc
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from ..workloads.generator import sample_combinations
from .common import format_table


@dataclass(frozen=True)
class GapPoint:
    """One workload's achieved-vs-bound outcome."""

    index: int
    num_models: int
    has_fallback_models: bool
    achieved_ms: float
    bound_ms: float

    @property
    def gap(self) -> float:
        return self.achieved_ms / self.bound_ms - 1.0


def run(num_combinations: int = 30) -> List[GapPoint]:
    """Measure the gap distribution over random workloads (seed 21) on
    Kirin 990."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    planner = Hetero2PipePlanner(soc)
    points: List[GapPoint] = []
    for spec in sample_combinations(count=num_combinations, seed=21):
        models = spec.models()
        achieved = execute_plan(planner.plan(models).plan).makespan_ms
        bounds = makespan_lower_bounds(soc, models, profiler)
        points.append(
            GapPoint(
                index=spec.index,
                num_models=len(models),
                has_fallback_models=any(not m.npu_supported() for m in models),
                achieved_ms=achieved,
                bound_ms=bounds.lower_bound_ms,
            )
        )
    return points


def summarize(points: Sequence[GapPoint]) -> dict:
    """Mean gaps overall and by fallback presence."""
    def mean_gap(subset: Sequence[GapPoint]) -> float:
        if not subset:
            return 0.0
        return sum(p.gap for p in subset) / len(subset)

    with_fb = [p for p in points if p.has_fallback_models]
    without = [p for p in points if not p.has_fallback_models]
    return {
        "overall": mean_gap(points),
        "with_fallback": mean_gap(with_fb),
        "npu_clean": mean_gap(without),
        "count_with_fallback": len(with_fb),
        "count_clean": len(without),
    }


def render(points: Sequence[GapPoint]) -> str:
    headers = ["workload", "models", "fallback", "achieved_ms", "bound_ms", "gap"]
    body = [
        [
            p.index,
            p.num_models,
            "yes" if p.has_fallback_models else "no",
            p.achieved_ms,
            p.bound_ms,
            f"{p.gap * 100:.0f}%",
        ]
        for p in points
    ]
    stats = summarize(points)
    return (
        format_table(headers, body)
        + f"\nmean gap overall: {stats['overall'] * 100:.0f}%"
        + "\nmean gap with NPU-incompatible models "
        + f"({stats['count_with_fallback']}): "
        + f"{stats['with_fallback'] * 100:.0f}%"
        + f"\nmean gap NPU-clean ({stats['count_clean']}): "
        + f"{stats['npu_clean'] * 100:.0f}%"
    )


def main() -> str:
    return render(run(num_combinations=15))


if __name__ == "__main__":
    print(main())

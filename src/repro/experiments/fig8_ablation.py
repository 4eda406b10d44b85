"""Fig. 8: ablation studies of the vertical optimization.

(a) Hetero2Pipe vs exhaustive search, simulated annealing and the
    No-C/T variant over random combinations, sorted by latency — the
    paper finds H2P within ~4 % of the exhaustive optimum and ahead of
    annealing at far lower planning cost.
(b) Component ablation: average latency when contention mitigation and
    tail-bubble optimization are removed one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..baselines.annealing import AnnealingConfig, anneal_plan
from ..baselines.exhaustive import exhaustive_plan
from ..core.planner import Hetero2PipePlanner, PlannerConfig
from ..hardware.soc import get_soc
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from ..workloads.generator import WorkloadSpec, sample_combinations
from .common import format_table


@dataclass
class AblationPoint:
    """One workload's latency under each vertical strategy."""

    spec: WorkloadSpec
    latency_ms: Dict[str, float]


def run_strategies(num_combinations: int = 100) -> List[AblationPoint]:
    """Fig. 8(a) on Kirin 990: H2P vs exhaustive vs annealing vs No-C/T.

    Workloads (seed 7) are capped at 5 requests so the exhaustive grid
    stays tractable, mirroring the paper's small-instance study.
    """
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    planner = Hetero2PipePlanner(soc)
    planner_no_ct = Hetero2PipePlanner(soc, PlannerConfig.no_contention_or_tail())
    specs = sample_combinations(
        count=num_combinations, min_size=3, max_size=5, seed=7
    )
    points: List[AblationPoint] = []
    for spec in specs:
        models = spec.models()
        h2p = execute_plan(planner.plan(models).plan).makespan_ms
        no_ct = execute_plan(planner_no_ct.plan(models).plan).makespan_ms
        ex_plan, _ = exhaustive_plan(soc, models, profiler)
        exhaustive = execute_plan(ex_plan).makespan_ms
        sa_plan, _ = anneal_plan(
            soc, models, profiler, AnnealingConfig(steps=250, seed=spec.index)
        )
        annealing = execute_plan(sa_plan).makespan_ms
        points.append(
            AblationPoint(
                spec=spec,
                latency_ms={
                    "h2p": h2p,
                    "no_ct": no_ct,
                    "exhaustive": exhaustive,
                    "annealing": annealing,
                },
            )
        )
    points.sort(key=lambda p: p.latency_ms["h2p"])
    return points


def optimality_gap(points: Sequence[AblationPoint]) -> float:
    """Mean relative gap of H2P to the exhaustive reference."""
    gaps = [
        max(0.0, p.latency_ms["h2p"] / p.latency_ms["exhaustive"] - 1.0)
        for p in points
    ]
    return sum(gaps) / len(gaps)


@dataclass(frozen=True)
class ComponentAblation:
    """Fig. 8(b): average latency per configuration."""

    full_ms: float
    no_contention_ms: float
    no_tail_ms: float
    no_both_ms: float


def run_components(num_combinations: int = 100) -> ComponentAblation:
    """Fig. 8(b) on Kirin 990: remove mitigation and tail optimization
    one by one, over workloads sampled with seed 7."""
    soc = get_soc("kirin990")
    planners = {
        "full": Hetero2PipePlanner(soc),
        "no_contention": Hetero2PipePlanner(
            soc, PlannerConfig(enable_mitigation=False)
        ),
        "no_tail": Hetero2PipePlanner(
            soc, PlannerConfig(enable_tail_optimization=False)
        ),
        "no_both": Hetero2PipePlanner(soc, PlannerConfig.no_contention_or_tail()),
    }
    specs = sample_combinations(count=num_combinations, seed=7)
    sums = {key: 0.0 for key in planners}
    for spec in specs:
        models = spec.models()
        for key, planner in planners.items():
            sums[key] += execute_plan(planner.plan(models).plan).makespan_ms
    n = len(specs)
    return ComponentAblation(
        full_ms=sums["full"] / n,
        no_contention_ms=sums["no_contention"] / n,
        no_tail_ms=sums["no_tail"] / n,
        no_both_ms=sums["no_both"] / n,
    )


def render_strategies(points: Sequence[AblationPoint]) -> str:
    headers = ["rank", "h2p", "exhaustive", "annealing", "no_ct"]
    body = [
        [
            i,
            p.latency_ms["h2p"],
            p.latency_ms["exhaustive"],
            p.latency_ms["annealing"],
            p.latency_ms["no_ct"],
        ]
        for i, p in enumerate(points)
    ]
    table = format_table(headers, body)
    gap = optimality_gap(points)
    return f"{table}\nmean gap to exhaustive: {gap * 100:.1f}%"


def render_components(ablation: ComponentAblation) -> str:
    headers = ["configuration", "mean_latency_ms"]
    body = [
        ["full", ablation.full_ms],
        ["no contention mitigation", ablation.no_contention_ms],
        ["no tail optimization", ablation.no_tail_ms],
        ["no both (No C/T)", ablation.no_both_ms],
    ]
    return format_table(headers, body)


def main() -> str:
    points = run_strategies(num_combinations=20)
    components = run_components(num_combinations=20)
    return (
        "Fig. 8(a) vertical strategies (ms, sorted by H2P):\n"
        + render_strategies(points)
        + "\n\nFig. 8(b) component ablation:\n"
        + render_components(components)
    )


if __name__ == "__main__":
    print(main())

"""Extension experiment: the scheme line-up on realistic applications.

Runs the named scenario catalogue (scene understanding, smart camera,
AR assistant, video conferencing, offline photo batch) through every
scheme, reporting latency, the gap to the contention-free theoretical
lower bound, and per-request responsiveness for the streaming
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.bounds import makespan_lower_bounds
from ..core.planner import Hetero2PipePlanner
from ..baselines.band import execute_band
from ..baselines.mnn_serial import plan_mnn_serial
from ..hardware.soc import get_soc
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from ..workloads.scenarios import all_scenarios
from .common import format_table


@dataclass(frozen=True)
class ScenarioRow:
    """One scenario's outcome across schemes."""

    scenario: str
    num_requests: int
    mnn_ms: float
    band_ms: float
    h2p_ms: float
    lower_bound_ms: float

    @property
    def speedup_vs_mnn(self) -> float:
        return self.mnn_ms / self.h2p_ms

    @property
    def gap_to_bound(self) -> float:
        return self.h2p_ms / self.lower_bound_ms - 1.0


def run() -> List[ScenarioRow]:
    """Evaluate every scenario on Kirin 990."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    planner = Hetero2PipePlanner(soc)
    rows: List[ScenarioRow] = []
    for scenario in all_scenarios():
        models = scenario.models()
        mnn = execute_plan(plan_mnn_serial(soc, models, profiler)).makespan_ms
        band = execute_band(soc, models, profiler).makespan_ms
        h2p = execute_plan(planner.plan(models).plan).makespan_ms
        bounds = makespan_lower_bounds(soc, models, profiler)
        rows.append(
            ScenarioRow(
                scenario=scenario.name,
                num_requests=scenario.num_requests,
                mnn_ms=mnn,
                band_ms=band,
                h2p_ms=h2p,
                lower_bound_ms=bounds.lower_bound_ms,
            )
        )
    return rows


def render(rows: Sequence[ScenarioRow]) -> str:
    headers = [
        "scenario", "reqs", "mnn_ms", "band_ms", "h2p_ms",
        "bound_ms", "speedup", "gap_to_bound",
    ]
    body = [
        [
            r.scenario,
            r.num_requests,
            r.mnn_ms,
            r.band_ms,
            r.h2p_ms,
            r.lower_bound_ms,
            round(r.speedup_vs_mnn, 2),
            f"{r.gap_to_bound * 100:.0f}%",
        ]
        for r in rows
    ]
    return format_table(headers, body)


def main() -> str:
    return render(run())


if __name__ == "__main__":
    print(main())

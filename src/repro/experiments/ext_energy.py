"""Extension experiment: energy comparison across scheduling schemes.

Not a paper figure — the paper motivates energy efficiency but reports
no Joules.  This experiment applies the documented mobile power model
(:mod:`repro.hardware.energy`) to the Fig. 7 scheme line-up, showing
that contention-aware pipelining saves energy as well as time: the
accelerators are cheaper per operation *and* the high-idle-power window
(screen-on, rails up) shrinks with the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..baselines.band import execute_band
from ..baselines.mnn_serial import plan_mnn_serial
from ..baselines.pipe_it import plan_pipe_it
from ..core.planner import Hetero2PipePlanner
from ..hardware.energy import estimate_energy
from ..hardware.soc import get_soc
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from ..workloads.generator import sample_combinations
from .common import format_table


@dataclass(frozen=True)
class EnergyRow:
    """Mean per-inference energy and latency of one scheme."""

    scheme: str
    mean_latency_ms: float
    mean_energy_mj: float
    mean_energy_per_inference_mj: float


def run(num_combinations: int = 20) -> List[EnergyRow]:
    """Latency + energy of every scheme over random combinations
    (seed 2025) on Kirin 990."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    planner = Hetero2PipePlanner(soc)
    totals: Dict[str, List] = {
        name: [0.0, 0.0, 0.0]  # latency, energy, energy/inference
        for name in ("mnn", "pipe_it", "band", "h2p")
    }
    specs = sample_combinations(count=num_combinations, seed=2025)
    for spec in specs:
        models = spec.models()
        results = {
            "mnn": execute_plan(plan_mnn_serial(soc, models, profiler)),
            "pipe_it": execute_plan(plan_pipe_it(soc, models, profiler)),
            "band": execute_band(soc, models, profiler),
            "h2p": execute_plan(planner.plan(models).plan),
        }
        for name, result in results.items():
            energy = estimate_energy(result, soc)
            totals[name][0] += result.makespan_ms
            totals[name][1] += energy.total_mj
            totals[name][2] += energy.per_inference_mj(len(models))

    n = len(specs)
    return [
        EnergyRow(
            scheme=name,
            mean_latency_ms=latency / n,
            mean_energy_mj=energy / n,
            mean_energy_per_inference_mj=per_inf / n,
        )
        for name, (latency, energy, per_inf) in totals.items()
    ]


def render(rows: Sequence[EnergyRow]) -> str:
    headers = ["scheme", "mean_latency_ms", "mean_energy_mJ", "mJ_per_inference"]
    body = [
        [r.scheme, r.mean_latency_ms, r.mean_energy_mj,
         r.mean_energy_per_inference_mj]
        for r in sorted(rows, key=lambda r: r.mean_energy_per_inference_mj)
    ]
    return format_table(headers, body)


def main() -> str:
    return render(run(num_combinations=10))


if __name__ == "__main__":
    print(main())

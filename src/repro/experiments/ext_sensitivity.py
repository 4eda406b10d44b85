"""Extension experiment: robustness of the headline ordering.

Our contention model's constants (coupling matrix, victim sensitivity)
are calibrated to the paper's measured slowdown bands; a fair question
is whether the *qualitative* result — Hetero2Pipe beats the serial and
CPU-pipeline baselines and stays competitive with Band — depends on
that exact calibration.  This sweep scales the contention coupling
globally from "no contention at all" to 2x the calibrated strength and
re-runs the comparison at every point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence

from ..baselines.band import execute_band
from ..baselines.mnn_serial import plan_mnn_serial
from ..core.planner import Hetero2PipePlanner
from ..hardware.soc import SocSpec, get_soc
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from ..workloads.generator import sample_combinations
from .common import format_table, geomean


@dataclass(frozen=True)
class SensitivityPoint:
    """One coupling scale's aggregate speedups."""

    coupling_scale: float
    speedup_vs_mnn: float
    speedup_vs_band: float


def scaled_soc(soc: SocSpec, coupling_scale: float) -> SocSpec:
    """A copy of the SoC with all coupling factors scaled."""
    if coupling_scale < 0:
        raise ValueError("coupling scale must be >= 0")
    return dataclasses.replace(
        soc,
        coupling={
            pair: value * coupling_scale
            for pair, value in soc.coupling.items()
        },
    )


def run(
    coupling_scales: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    num_combinations: int = 8,
) -> List[SensitivityPoint]:
    """Sweep Kirin 990's contention strength and re-measure the ordering
    over workloads sampled with seed 4."""
    base_soc = get_soc("kirin990")
    specs = sample_combinations(count=num_combinations, seed=4)
    points: List[SensitivityPoint] = []
    for scale in coupling_scales:
        soc = scaled_soc(base_soc, scale)
        profiler = SocProfiler(soc)
        planner = Hetero2PipePlanner(soc)
        vs_mnn, vs_band = [], []
        for spec in specs:
            models = spec.models()
            mnn = execute_plan(
                plan_mnn_serial(soc, models, profiler)
            ).makespan_ms
            band = execute_band(soc, models, profiler).makespan_ms
            h2p = execute_plan(planner.plan(models).plan).makespan_ms
            vs_mnn.append(mnn / h2p)
            vs_band.append(band / h2p)
        points.append(
            SensitivityPoint(
                coupling_scale=scale,
                speedup_vs_mnn=geomean(vs_mnn),
                speedup_vs_band=geomean(vs_band),
            )
        )
    return points


def render(points: Sequence[SensitivityPoint]) -> str:
    headers = ["coupling_scale", "H2P_vs_MNN", "H2P_vs_Band"]
    body = [
        [p.coupling_scale, round(p.speedup_vs_mnn, 2), round(p.speedup_vs_band, 2)]
        for p in points
    ]
    return format_table(headers, body)


def main() -> str:
    return render(run(num_combinations=6))


if __name__ == "__main__":
    print(main())

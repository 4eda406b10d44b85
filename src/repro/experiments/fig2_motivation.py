"""Fig. 2: motivation — queueing under serial execution, resource demands.

(a) Queueing delay accumulates when a stream of multi-DNN requests is
    served serially on the CPU Big cores; heterogeneous execution keeps
    the backlog near zero.
(b) Per-model resource demands (IPC, cache-miss rate, backend stalls)
    ranked by the Eq. 1 contention intensity, exposing the lightweight
    outliers of Observation 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.contention import ContentionEstimator
from ..hardware.soc import get_soc
from ..models.zoo import MODEL_NAMES, all_models, get_model
from ..profiling.pmu import measure_counters
from ..profiling.profiler import SocProfiler
from ..runtime.queueing import QueueingReport, heterogeneous_queueing, serial_queueing
from ..workloads.generator import arrival_times_ms
from .common import format_table

#: The request stream of Fig. 2a: a mixed loop of four models.
STREAM = (
    "resnet50", "googlenet", "mobilenetv2", "inceptionv4",
    "resnet50", "squeezenet", "googlenet", "resnet50",
    "mobilenetv2", "inceptionv4", "squeezenet", "resnet50",
)


@dataclass(frozen=True)
class QueueingComparison:
    """Fig. 2a data: both configurations on the same arrival schedule."""

    serial: QueueingReport
    heterogeneous: QueueingReport


def run_queueing() -> QueueingComparison:
    """Run the Fig. 2a experiment on Kirin 990, one request every 60 ms."""
    soc = get_soc("kirin990")
    models = [get_model(name) for name in STREAM]
    arrivals = arrival_times_ms(len(models), 60.0)
    return QueueingComparison(
        serial=serial_queueing(soc, models, arrivals),
        heterogeneous=heterogeneous_queueing(soc, models, arrivals),
    )


@dataclass(frozen=True)
class DemandRow:
    """Fig. 2b data: one model's perf events and estimated intensity."""

    model: str
    ipc: float
    cache_miss_rate: float
    stalled_backend: float
    intensity: float


def run_demands() -> List[DemandRow]:
    """Rank all models by estimated contention intensity on Kirin 990
    (Fig. 2b)."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    estimator = ContentionEstimator.fit_from_zoo(soc, all_models())
    rows: List[DemandRow] = []
    for name in MODEL_NAMES:
        profile = profiler.profile(get_model(name))
        counters = measure_counters(profile, soc.cpu_big)
        rows.append(
            DemandRow(
                model=name,
                ipc=counters.ipc,
                cache_miss_rate=counters.cache_miss_rate,
                stalled_backend=counters.stalled_backend,
                intensity=estimator.predict(counters),
            )
        )
    rows.sort(key=lambda r: r.intensity, reverse=True)
    return rows


def render_queueing(comparison: QueueingComparison) -> str:
    headers = ["request", "arrival", "serial_delay", "hetero_delay"]
    serial = comparison.serial.queueing_delay_ms
    hetero = comparison.heterogeneous.queueing_delay_ms
    body = [
        [i, comparison.serial.arrival_ms[i], serial[i], hetero[i]]
        for i in range(len(serial))
    ]
    return format_table(headers, body)


def render_demands(rows: List[DemandRow]) -> str:
    headers = ["model", "ipc", "miss_rate", "stalled", "intensity"]
    body = [
        [r.model, r.ipc, round(r.cache_miss_rate, 3), r.stalled_backend, round(r.intensity, 3)]
        for r in rows
    ]
    return format_table(headers, body)


def main() -> str:
    comparison = run_queueing()
    demands = run_demands()
    return (
        "Fig. 2(a) queueing delay (ms):\n"
        + render_queueing(comparison)
        + "\n\nFig. 2(b) resource demands ranked by contention intensity:\n"
        + render_demands(demands)
    )


if __name__ == "__main__":
    print(main())

"""Extension experiment: scaling behaviour of the pipeline.

Two sweeps the paper does not report but a practitioner wants:

1. **Request-count scaling** — throughput vs stream length.  A pipeline
   amortizes its fill/drain bubbles over more requests, so throughput
   should climb toward a steady-state plateau.
2. **Model-size scaling** — speedup over serial execution as the
   workload shifts from all-lightweight to all-heavyweight, using the
   depth-parameterized model variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.planner import Hetero2PipePlanner
from ..baselines.mnn_serial import plan_mnn_serial
from ..hardware.soc import get_soc
from ..models.variants import build_bert_variant, build_resnet
from ..models.zoo import get_model
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from .common import format_table

#: The repeating request mix of the request-count sweep.
MIX = ("resnet50", "squeezenet", "vit", "googlenet")


@dataclass(frozen=True)
class CountPoint:
    """Throughput at one stream length."""

    num_requests: int
    throughput_per_s: float
    latency_ms: float


def run_request_scaling() -> List[CountPoint]:
    """Sweep the stream length (2 to 16) over a fixed request mix on
    Kirin 990."""
    planner = Hetero2PipePlanner(get_soc("kirin990"))
    points: List[CountPoint] = []
    for count in (2, 4, 8, 16):
        models = [get_model(MIX[i % len(MIX)]) for i in range(count)]
        result = execute_plan(planner.plan(models).plan)
        points.append(
            CountPoint(
                num_requests=count,
                throughput_per_s=result.throughput_per_s,
                latency_ms=result.makespan_ms,
            )
        )
    return points


@dataclass(frozen=True)
class SizePoint:
    """Speedup at one model-scale tier."""

    tier: str
    serial_ms: float
    h2p_ms: float

    @property
    def speedup(self) -> float:
        return self.serial_ms / self.h2p_ms


def run_size_scaling() -> List[SizePoint]:
    """Sweep the workload from small to large model variants on Kirin 990."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    planner = Hetero2PipePlanner(soc)
    tiers: List[Tuple[str, List]] = [
        ("small", [build_resnet(18), build_bert_variant(6),
                   get_model("squeezenet")]),
        ("base", [build_resnet(50), build_bert_variant(12),
                  get_model("squeezenet")]),
        ("large", [build_resnet(101), build_bert_variant(24, hidden=1024),
                   get_model("squeezenet")]),
    ]
    points: List[SizePoint] = []
    for tier, models in tiers:
        serial = execute_plan(
            plan_mnn_serial(soc, models, profiler)
        ).makespan_ms
        h2p = execute_plan(planner.plan(models).plan).makespan_ms
        points.append(SizePoint(tier=tier, serial_ms=serial, h2p_ms=h2p))
    return points


def render_counts(points: Sequence[CountPoint]) -> str:
    headers = ["requests", "latency_ms", "throughput_/s"]
    body = [[p.num_requests, p.latency_ms, p.throughput_per_s] for p in points]
    return format_table(headers, body)


def render_sizes(points: Sequence[SizePoint]) -> str:
    headers = ["tier", "serial_ms", "h2p_ms", "speedup"]
    body = [
        [p.tier, p.serial_ms, p.h2p_ms, round(p.speedup, 2)] for p in points
    ]
    return format_table(headers, body)


def main() -> str:
    return (
        "request-count scaling:\n"
        + render_counts(run_request_scaling())
        + "\n\nmodel-size scaling:\n"
        + render_sizes(run_size_scaling())
    )


if __name__ == "__main__":
    print(main())

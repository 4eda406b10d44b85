"""Per-layer profile reports: the profiling tooling a device engineer
uses before trusting the planner.

Produces the tables behind the intuition in Sec. III: for one model on
one SoC, every layer's FLOPs, effective DRAM traffic, roofline regime
(compute- vs memory-bound) and latency on each processor; plus a
model-level summary ranking layers by bus demand — where the contention
actually comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from .latency import layer_compute_memory_ms, layer_traffic_bytes
from .profiler import SocProfiler


@dataclass(frozen=True)
class LayerReport:
    """One layer's profile on one processor."""

    index: int
    name: str
    op: str
    gflops: float
    traffic_mb: float
    latency_ms: float
    memory_bound: bool


@dataclass(frozen=True)
class ModelReport:
    """Per-layer profile of one model on one processor."""

    model_name: str
    processor_name: str
    layers: Tuple[LayerReport, ...]

    @property
    def total_latency_ms(self) -> float:
        return sum(layer.latency_ms for layer in self.layers)

    @property
    def memory_bound_fraction(self) -> float:
        """Fraction of layers (by time) in the memory-bound regime."""
        total = self.total_latency_ms
        if total <= 0:
            return 0.0
        bound = sum(
            layer.latency_ms for layer in self.layers if layer.memory_bound
        )
        return bound / total

    def hottest_layers(self, count: int = 5) -> List[LayerReport]:
        """Layers ranked by latency, slowest first."""
        return sorted(
            self.layers, key=lambda row: row.latency_ms, reverse=True
        )[:count]

    def highest_traffic_layers(self, count: int = 5) -> List[LayerReport]:
        """Layers ranked by DRAM traffic — the contention sources."""
        return sorted(
            self.layers, key=lambda row: row.traffic_mb, reverse=True
        )[:count]


def profile_report(
    model: ModelGraph,
    soc: SocSpec,
    processor_name: str = "cpu_big",
    profiler: Optional[SocProfiler] = None,
) -> ModelReport:
    """Build the per-layer report of one model on one processor.

    Raises:
        KeyError: for unknown processor names.
        ValueError: if the processor cannot run some layer (profile the
            fallback unit instead for NPU-incompatible models).
    """
    profiler = profiler or SocProfiler(soc)
    profile = profiler.profile(model)
    proc = soc.processor(processor_name)
    layers: List[LayerReport] = []
    for index, layer in enumerate(model.layers):
        if not proc.supports(layer):
            raise ValueError(
                f"{proc.name!r} cannot run layer {layer.name!r}; profile a "
                "fully-capable processor for this model"
            )
        compute_ms, memory_ms = layer_compute_memory_ms(layer, proc)
        layers.append(
            LayerReport(
                index=index,
                name=layer.name,
                op=layer.op.value,
                gflops=layer.flops / 1e9,
                traffic_mb=layer_traffic_bytes(layer, proc) / 1e6,
                latency_ms=profile.layer_ms(proc, index),
                memory_bound=memory_ms > compute_ms,
            )
        )
    return ModelReport(
        model_name=model.name,
        processor_name=proc.name,
        layers=tuple(layers),
    )


def render_report(report: ModelReport, top: Optional[int] = None) -> str:
    """ASCII rendering of a model report."""
    from ..experiments.common import format_table

    layers = report.layers if top is None else report.hottest_layers(top)
    headers = ["#", "layer", "op", "GFLOPs", "traffic_MB", "ms", "bound"]
    body = [
        [
            row.index,
            row.name,
            row.op,
            round(row.gflops, 3),
            round(row.traffic_mb, 2),
            row.latency_ms,
            "memory" if row.memory_bound else "compute",
        ]
        for row in layers
    ]
    table = format_table(headers, body)
    return (
        f"{report.model_name} on {report.processor_name}: "
        f"{report.total_latency_ms:.1f} ms total, "
        f"{report.memory_bound_fraction * 100:.0f}% of time memory-bound\n"
        + table
    )

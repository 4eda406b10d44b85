"""Fig. 9: memory frequency and footprint under pipeline execution.

The paper traces the Kirin 990's memory-controller frequency and the
available system memory while pipelines of growing depth execute,
grouping models by working-set size: large (BERT, ViT, YOLOv4; over
300 MB), medium (InceptionV4, ResNet50, AlexNet; 100-300 MB) and
lightweight (SqueezeNet, MobileNetV2, GoogLeNet; under 100 MB).

Observed shape to reproduce:

* single-stage NPU execution leaves the memory frequency low;
* any CPU/GPU involvement pins the controller to its maximum state;
* deeper pipelines of larger models drain available memory from the
  ~2.5 GB initial headroom down toward ~0.5 GB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.planner import Hetero2PipePlanner
from ..hardware.soc import get_soc
from ..models.zoo import LARGE_MODELS, LIGHTWEIGHT_MODELS, MEDIUM_MODELS, get_model
from ..runtime.executor import TracePoint, execute_plan
from .common import format_table


@dataclass(frozen=True)
class MemoryTrace:
    """One pipeline configuration's memory-subsystem trace."""

    label: str
    capacity_bytes: float
    trace: Tuple[TracePoint, ...]

    @property
    def max_freq_mhz(self) -> int:
        return max((t.memory_freq_mhz for t in self.trace), default=0)

    @property
    def min_available_bytes(self) -> float:
        used = max((t.used_bytes for t in self.trace), default=0.0)
        return self.capacity_bytes - used

    def frequency_series(self) -> List[Tuple[float, int]]:
        return [(t.time_ms, t.memory_freq_mhz) for t in self.trace]

    def available_series(self) -> List[Tuple[float, float]]:
        return [
            (t.time_ms, self.capacity_bytes - t.used_bytes) for t in self.trace
        ]


#: The pipeline configurations traced in Fig. 9.
CONFIGS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("npu_only_lightweight", ("mobilenetv2",)),
    ("two_stage_medium", MEDIUM_MODELS),
    ("three_stage_large", LARGE_MODELS),
    ("mixed_all_tiers", LIGHTWEIGHT_MODELS + MEDIUM_MODELS + LARGE_MODELS),
)


def run() -> List[MemoryTrace]:
    """Trace each pipeline configuration on Kirin 990."""
    soc = get_soc("kirin990")
    planner = Hetero2PipePlanner(soc)
    traces: List[MemoryTrace] = []
    for label, names in CONFIGS:
        models = [get_model(n) for n in names]
        report = planner.plan(models)
        result = execute_plan(report.plan, trace=True)
        traces.append(
            MemoryTrace(
                label=label,
                capacity_bytes=soc.memory_capacity_bytes,
                trace=tuple(result.trace),
            )
        )
    return traces


def render(traces: Sequence[MemoryTrace]) -> str:
    headers = [
        "configuration",
        "peak_freq_mhz",
        "min_available_mb",
        "samples",
    ]
    body = [
        [
            t.label,
            t.max_freq_mhz,
            t.min_available_bytes / 1e6,
            len(t.trace),
        ]
        for t in traces
    ]
    return format_table(headers, body)


def render_traces(traces: Sequence[MemoryTrace]) -> str:
    """Fig. 9's two trace panels per configuration, in terminal form."""
    from ..analysis.charts import step_series

    panels = []
    for trace in traces:
        if not trace.trace:
            continue
        freq = step_series(
            trace.frequency_series(), width=50, height=6,
            label=f"[{trace.label}] memory freq MHz",
        )
        avail = step_series(
            [(t, a / 1e6) for t, a in trace.available_series()],
            width=50,
            height=6,
            label=f"[{trace.label}] available MB",
        )
        panels.append(freq + "\n" + avail)
    return "\n\n".join(panels)


def main() -> str:
    traces = run()
    return render(traces) + "\n\n" + render_traces(traces)


if __name__ == "__main__":
    print(main())

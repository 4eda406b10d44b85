"""Fig. 1 / Fig. 11: solo model latency on each heterogeneous processor.

Reproduces the motivating measurement: per-model inference latency on
the NPU, CPU Big cluster, GPU and CPU Small cluster, with the NPU
erroring on models containing unsupported operators (YOLOv4, BERT).

Expected shape (the paper's observations):

* NPU is the fastest where it runs at all;
* CPU Big is generally on par with the OpenCL GPU;
* CPU Small is several times slower than Big;
* YOLOv4 and BERT report errors on the NPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..hardware.soc import SocSpec, get_soc
from ..models.zoo import MODEL_NAMES, get_model
from ..profiling.profiler import SocProfiler
from .common import format_table


@dataclass(frozen=True)
class LatencyRow:
    """One model's solo latency per processor (None = unsupported)."""

    model: str
    latency_ms: Dict[str, Optional[float]]


def run(soc: Optional[SocSpec] = None) -> List[LatencyRow]:
    """Measure every zoo model on every processor of one SoC."""
    soc = soc or get_soc("kirin990")
    profiler = SocProfiler(soc)
    rows: List[LatencyRow] = []
    for name in MODEL_NAMES:
        profile = profiler.profile(get_model(name))
        latencies: Dict[str, Optional[float]] = {}
        for proc in soc.processors:
            value = profile.whole_model_ms(proc)
            latencies[proc.name] = None if math.isinf(value) else value
        rows.append(LatencyRow(model=name, latency_ms=latencies))
    return rows


def render(rows: List[LatencyRow], soc: Optional[SocSpec] = None) -> str:
    """ASCII rendering of the Fig. 1 bar chart's underlying numbers."""
    soc = soc or get_soc("kirin990")
    headers = ["model"] + [p.name for p in soc.processors]
    body = []
    for row in rows:
        cells: List[object] = [row.model]
        for proc in soc.processors:
            value = row.latency_ms.get(proc.name)
            cells.append("ERR" if value is None else value)
        body.append(cells)
    return format_table(headers, body)


def render_chart(rows: List[LatencyRow]) -> str:
    """Fig. 1's bar-chart form: one grouped panel per model."""
    from ..analysis.charts import grouped_bar_chart

    groups = []
    for row in rows:
        items = [
            (proc, value if value is not None else 0.0)
            for proc, value in row.latency_ms.items()
        ]
        groups.append((row.model, items))
    return grouped_bar_chart(groups, width=40, unit=" ms")


def main() -> str:
    rows = run()
    return render(rows) + "\n\n" + render_chart(rows)


if __name__ == "__main__":
    print(main())

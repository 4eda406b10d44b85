"""Table II: pairwise co-execution slowdown of SqueezeNet/BERT/ViT.

The paper co-runs model pairs on (CPU Big, GPU) and reports solo time,
co-execution time and the resulting slowdown percentage, demonstrating
Observation 3: tiny SqueezeNet imposes *more* slowdown on its peer than
the 70x-larger ViT does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hardware.soc import get_soc
from ..models.zoo import get_model
from ..profiling.profiler import SocProfiler
from ..profiling.slowdown import SliceWorkload, pairwise_slowdown_table
from .common import format_table

#: The pairings of Table II: (model_on_cpu, model_on_gpu).
PAIRS = (
    ("squeezenet", "bert"),
    ("vit", "bert"),
)


@dataclass(frozen=True)
class SlowdownRow:
    """One victim's solo/co-execution comparison."""

    model: str
    processor: str
    solo_ms: float
    co_ms: float

    @property
    def slowdown_pct(self) -> float:
        return (self.co_ms / self.solo_ms - 1.0) * 100.0


def run() -> List[SlowdownRow]:
    """Compute Table II on Kirin 990."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    rows: List[SlowdownRow] = []
    for cpu_model, gpu_model in PAIRS:
        cpu_profile = profiler.profile(get_model(cpu_model))
        gpu_profile = profiler.profile(get_model(gpu_model))
        cpu_work = SliceWorkload(
            profile=cpu_profile,
            proc=soc.cpu_big,
            start=0,
            end=cpu_profile.model.num_layers - 1,
        )
        gpu_work = SliceWorkload(
            profile=gpu_profile,
            proc=soc.gpu,
            start=0,
            end=gpu_profile.model.num_layers - 1,
        )
        s_cpu, s_gpu = pairwise_slowdown_table(soc, cpu_work, gpu_work)
        solo_cpu = cpu_work.solo_ms()
        solo_gpu = gpu_work.solo_ms()
        rows.append(
            SlowdownRow(
                model=cpu_model,
                processor="cpu_big",
                solo_ms=solo_cpu,
                co_ms=solo_cpu * (1 + s_cpu),
            )
        )
        rows.append(
            SlowdownRow(
                model=gpu_model,
                processor="gpu",
                solo_ms=solo_gpu,
                co_ms=solo_gpu * (1 + s_gpu),
            )
        )
    return rows


def render(rows: List[SlowdownRow]) -> str:
    headers = ["model", "processor", "solo_ms", "co_ms", "slowdown_%"]
    body = [
        [r.model, r.processor, r.solo_ms, r.co_ms, r.slowdown_pct]
        for r in rows
    ]
    return format_table(headers, body)


def main() -> str:
    return render(run())


if __name__ == "__main__":
    print(main())

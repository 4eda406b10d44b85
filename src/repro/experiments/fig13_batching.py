"""Fig. 13: batched-latency growth rate of lightweight models.

On mobile processors with limited on-chip memory, batched execution time
grows almost linearly with batch size; the figure plots the *rate of
change* of latency as the batch grows — a near-flat series per
processor — confirming the affine model used to align lightweight and
heavyweight stage times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..hardware.soc import get_soc
from ..models.zoo import get_model
from ..profiling.profiler import SocProfiler
from ..workloads.batching import batch_latency_model, latency_growth_rates
from .common import format_table

#: The lightweight models batched, and the batch sizes measured.
MODELS = ("mobilenetv2", "squeezenet")
BATCHES = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class BatchingRow:
    """One (model, processor) affine model and its growth-rate series."""

    model: str
    processor: str
    fixed_ms: float
    marginal_ms: float
    growth_rates: Tuple[float, ...]


def run() -> List[BatchingRow]:
    """Fit the batching model for each lightweight model and processor
    of Kirin 990."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    rows: List[BatchingRow] = []
    for name in MODELS:
        profile = profiler.profile(get_model(name))
        for proc in soc.processors:
            try:
                affine = batch_latency_model(profile, proc)
            except ValueError:
                continue  # model unsupported on this unit
            rates = latency_growth_rates(profile, proc, BATCHES)
            rows.append(
                BatchingRow(
                    model=name,
                    processor=proc.name,
                    fixed_ms=affine.fixed_ms,
                    marginal_ms=affine.marginal_ms,
                    growth_rates=tuple(rates),
                )
            )
    return rows


def render(rows: Sequence[BatchingRow]) -> str:
    headers = ["model", "processor", "fixed_ms", "marginal_ms", "rate_spread"]
    body = []
    for r in rows:
        spread = max(r.growth_rates) - min(r.growth_rates)
        body.append([r.model, r.processor, r.fixed_ms, r.marginal_ms, spread])
    return format_table(headers, body)


def main() -> str:
    return render(run())


if __name__ == "__main__":
    print(main())

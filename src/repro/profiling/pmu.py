"""Synthetic Processor Monitor Unit (PMU) counters.

The paper reads three perf events from the CPU while a model executes
solo — Instructions Per Cycle, Cache Miss Rate and Stalled Cycles
Backend (Fig. 2b) — and regresses them against contention intensity
(Eq. 1) so new requests can be scored without profiling co-execution
pairs.

We synthesize the same three counters from the roofline decomposition:
a memory-bound execution has low IPC, high miss rate and high backend
stalls.  Deterministic measurement noise keeps the regression honest
(features correlate with, but do not equal, the ground truth).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Tuple

from ..hardware.processor import ProcessorSpec
from .profiler import ModelProfile

#: Peak sustained IPC of a big out-of-order ARM core (A76/A77/A78 class).
_PEAK_IPC = 3.2

#: Cache line size used to convert traffic to miss counts.
_CACHE_LINE_BYTES = 64.0

#: Instructions executed per FLOP (NEON packs ~4 FP16 FLOPs/instruction,
#: plus address/loop bookkeeping).
_INSTR_PER_FLOP = 0.35

#: Relative half-width of deterministic measurement noise.
_NOISE_SPAN = 0.08


@dataclass(frozen=True)
class PerfCounters:
    """The three perf-event features of Eq. 1, for one execution."""

    ipc: float
    cache_miss_rate: float
    stalled_backend: float

    def as_features(self) -> Tuple[float, float, float]:
        """Feature vector X = {x1, x2, x3} for the regression."""
        return (self.ipc, self.cache_miss_rate, self.stalled_backend)


def _noise(tag: str) -> float:
    digest = zlib.crc32(tag.encode())
    unit = (digest % 10_000) / 10_000.0
    return 1.0 + _NOISE_SPAN * (2.0 * unit - 1.0)


def measure_counters(profile: ModelProfile, proc: ProcessorSpec) -> PerfCounters:
    """Synthesize PMU counters for the whole model executing solo on ``proc``.

    Args:
        profile: Solo profile of the model on the target SoC.
        proc: Processor the counters are read on (the paper reads the CPU
            PMU; embedded GPUs lack rich counters).

    Returns:
        A :class:`PerfCounters` with deterministic noise applied.
    """
    start, end = 0, profile.model.num_layers - 1
    mem_frac = profile.memory_fraction(proc, start, end)
    traffic = profile.traffic_bytes(proc, start, end)
    flops = profile.model.slice_flops(start, end)

    tag = f"{profile.model.name}:{proc.name}:{start}:{end}"
    ipc = _PEAK_IPC * (1.0 - 0.78 * mem_frac) * _noise(tag + ":ipc")

    instructions = max(1.0, flops * _INSTR_PER_FLOP)
    misses = traffic / _CACHE_LINE_BYTES
    miss_rate = min(0.60, misses / instructions * 10.0) * _noise(tag + ":miss")

    stalled = min(0.95, 0.12 + 0.75 * mem_frac) * _noise(tag + ":stall")
    return PerfCounters(
        ipc=ipc, cache_miss_rate=miss_rate, stalled_backend=stalled
    )


def ground_truth_intensity(profile: ModelProfile, proc: ProcessorSpec) -> float:
    """Ground-truth contention intensity of a whole-model solo execution.

    Defined as the execution's average bus-demand rate normalized by a
    10 GB/s reference bandwidth.  This is the regression target Y in
    Eq. 1; the deployed system estimates it from PMU features only
    (Observation 1 justifies using solo demand as the co-execution
    proxy).
    """
    rate = profile.traffic_rate_gbps(proc, 0, profile.model.num_layers - 1)
    return rate / 10.0

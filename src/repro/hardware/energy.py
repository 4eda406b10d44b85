"""Energy model for heterogeneous mobile execution (extension).

The paper motivates mobile pipelining partly through energy ("energy
efficiency also demands low bandwidth designs...") but reports no energy
numbers; this module adds the standard mobile-SoC energy accounting as a
documented extension so schedules can be compared on Joules as well as
milliseconds.

Model: each processor draws ``idle_w`` whenever powered and an
additional ``active_w`` while executing; the shared memory subsystem
adds ``dram_pj_per_byte`` per byte moved.  Values follow published
mobile measurements: a big ARM cluster burns ~2-3 W active, the small
cluster a few hundred mW, embedded GPUs ~2 W, NPUs deliver far better
energy-per-inference than CPUs at similar latency, and LPDDR4X costs
roughly 60-120 pJ/byte end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, TYPE_CHECKING

from .processor import ProcessorKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.executor import ExecutionResult


@dataclass(frozen=True)
class PowerSpec:
    """Static power parameters of one processor class."""

    idle_w: float
    active_w: float

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.active_w < 0:
            raise ValueError("power values must be non-negative")


#: Per-kind power draw (Watts).
POWER: Dict[ProcessorKind, PowerSpec] = {
    ProcessorKind.CPU_BIG: PowerSpec(idle_w=0.15, active_w=2.80),
    ProcessorKind.CPU_SMALL: PowerSpec(idle_w=0.05, active_w=0.45),
    ProcessorKind.GPU: PowerSpec(idle_w=0.10, active_w=2.20),
    ProcessorKind.NPU: PowerSpec(idle_w=0.08, active_w=1.60),
}

#: DRAM access energy, picojoules per byte (LPDDR4X class).
DRAM_PJ_PER_BYTE = 90.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one simulated run, by component (millijoules)."""

    active_mj: Dict[str, float]
    idle_mj: Dict[str, float]
    dram_mj: float

    @property
    def compute_mj(self) -> float:
        return sum(self.active_mj.values()) + sum(self.idle_mj.values())

    @property
    def total_mj(self) -> float:
        return self.compute_mj + self.dram_mj

    def per_inference_mj(self, num_requests: int) -> float:
        """Average energy per completed inference.

        Raises:
            ValueError: for non-positive request counts.
        """
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        return self.total_mj / num_requests


def estimate_energy(result: "ExecutionResult", soc) -> EnergyBreakdown:
    """Energy of a simulated execution.

    Active energy integrates each processor's busy time; idle energy
    covers the remainder of the makespan (the unit is powered while the
    pipeline runs); DRAM energy charges every byte of effective traffic
    the executed slices moved.  Power draw is :data:`POWER`'s and DRAM
    access energy :data:`DRAM_PJ_PER_BYTE`.

    Args:
        result: An :class:`~repro.runtime.executor.ExecutionResult`.
        soc: The :class:`~repro.hardware.soc.SocSpec` it ran on.

    Returns:
        The :class:`EnergyBreakdown` in millijoules.
    """
    active: Dict[str, float] = {}
    idle: Dict[str, float] = {}
    for proc in soc.processors:
        spec = POWER[proc.kind]
        busy_ms = result.processor_busy_ms.get(proc.name, 0.0)
        idle_ms = max(0.0, result.makespan_ms - busy_ms)
        # W * ms == mJ.
        active[proc.name] = spec.active_w * busy_ms
        idle[proc.name] = spec.idle_w * idle_ms

    traffic_bytes = sum(record.traffic_bytes for record in result.records)
    # pJ/byte * bytes = pJ; 1e-9 converts to mJ.
    dram_mj = traffic_bytes * DRAM_PJ_PER_BYTE * 1e-9
    return EnergyBreakdown(active_mj=active, idle_mj=idle, dram_mj=dram_mj)

"""Shared memory-subsystem model: the DVFS governor.

Fig. 9 of the paper traces two signals while pipelines execute on the
Kirin 990: the memory-controller frequency (which the vendor governor
raises to its maximum as soon as CPU/GPU co-execution demands bandwidth)
and the available system memory (which pipeline concurrency steadily
consumes).  This module models the first; the engine tracks the
resident bytes of running slices (Constraint 6) in its own step state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .processor import ProcessorKind
from .soc import SocSpec


@dataclass(frozen=True)
class MemoryDemand:
    """Instantaneous bandwidth demand of one active compute unit."""

    processor: ProcessorKind
    bandwidth_gbps: float
    footprint_bytes: float


class MemoryGovernor:
    """A demand-driven DVFS governor for the memory controller.

    The governor picks the lowest frequency in the SoC's table whose
    proportional bandwidth covers the aggregate demand of units on the
    *shared* bus.  NPU traffic rides its dedicated path and does not
    raise the shared-bus frequency — reproducing the Fig. 9 observation
    that single-stage NPU execution leaves the memory frequency low while
    any CPU/GPU involvement pins it to the maximum state.
    """

    def __init__(self, soc: SocSpec):
        self._soc = soc
        self._freqs = soc.memory_freq_mhz
        self._max_freq = self._freqs[-1]

    @property
    def frequencies_mhz(self) -> Tuple[int, ...]:
        return self._freqs

    def bandwidth_at(self, freq_mhz: int) -> float:
        """Shared-bus bandwidth (GB/s) available at a controller frequency."""
        return self._soc.bus_bandwidth_gbps * freq_mhz / self._max_freq

    #: Any shared-bus demand above this pins the controller to maximum —
    #: the vendor-governor behaviour Fig. 9 observes ("once the CPU/GPU
    #: are involved, memory frequency is running at the maximum state").
    LATENCY_BOOST_THRESHOLD_GBPS = 0.3

    def select_frequency(self, demands: Iterable[MemoryDemand]) -> int:
        """Frequency the governor chooses for the given active demands.

        Demand from dedicated-path units (NPU) is excluded: single-stage
        NPU execution leaves the controller at a low state.  Any CPU/GPU
        demand beyond a small threshold triggers the vendor governor's
        latency boost straight to the maximum frequency; tiny residual
        demand is served by the lowest state covering it.
        """
        shared_demand = sum(
            d.bandwidth_gbps
            for d in demands
            if d.processor != ProcessorKind.NPU
        )
        if shared_demand <= 0:
            return self._freqs[0]
        if shared_demand >= self.LATENCY_BOOST_THRESHOLD_GBPS:
            return self._max_freq
        for freq in self._freqs:
            if self.bandwidth_at(freq) >= shared_demand:
                return freq
        return self._max_freq


def working_set_bytes(weight_bytes: float, peak_activation_bytes: float) -> float:
    """Resident footprint of a slice: weights plus peak live activations."""
    return weight_bytes + peak_activation_bytes

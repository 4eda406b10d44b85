"""Shared memory-subsystem model: DVFS governor and footprint accounting.

Fig. 9 of the paper traces two signals while pipelines execute on the
Kirin 990: the memory-controller frequency (which the vendor governor
raises to its maximum as soon as CPU/GPU co-execution demands bandwidth)
and the available system memory (which pipeline concurrency steadily
consumes).  This module provides both models.
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


class MemoryFootprintTracker:
    """Tracks resident bytes of concurrently executing model slices.

    Enforces Constraint (6): the sum of working sets of co-resident
    slices must stay below the physical capacity, otherwise the device
    would page-fault and thrash (MASA's observation, cited by the paper).
    """

    def __init__(self, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity_bytes
        self._resident: dict = {}

    @property
    def capacity_bytes(self) -> float:
        return self._capacity

    @property
    def used_bytes(self) -> float:
        return sum(self._resident.values())

    @property
    def available_bytes(self) -> float:
        return self._capacity - self.used_bytes

    def fits(self, extra_bytes: float) -> bool:
        """Whether an allocation would stay within capacity."""
        return self.used_bytes + extra_bytes <= self._capacity

    def allocate(self, key, nbytes: float) -> None:
        """Register a resident working set.

        Raises:
            MemoryError: if the allocation would exceed capacity — the
                simulated analogue of swapping-induced collapse.
            ValueError: if the key is already resident.
        """
        if key in self._resident:
            raise ValueError(f"allocation key {key!r} already resident")
        if not self.fits(nbytes):
            raise MemoryError(
                f"allocating {nbytes / 1e6:.0f} MB for {key!r} exceeds capacity "
                f"({self.used_bytes / 1e6:.0f}/{self._capacity / 1e6:.0f} MB used)"
            )
        self._resident[key] = nbytes

    def release(self, key) -> None:
        """Release a working set.

        Raises:
            KeyError: if the key is not resident.
        """
        del self._resident[key]


def working_set_bytes(weight_bytes: float, peak_activation_bytes: float) -> float:
    """Resident footprint of a slice: weights plus peak live activations."""
    return weight_bytes + peak_activation_bytes

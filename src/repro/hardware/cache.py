"""Explicit cache-hierarchy model (substrate behind Observation 2).

The latency model's traffic-amplification heuristic
(:func:`repro.profiling.latency.traffic_amplification`) compresses the
cache behaviour of tiled GEMM into a square-root law.  This module
provides the first-principles version: a two-level hierarchy with
working-set-based hit-rate estimation, from which the same amplification
factor can be *derived* — and validated against the heuristic in tests.

The model follows the classic analytical treatment: a kernel touching a
working set ``W`` through a cache of capacity ``C`` with ``r`` logical
reuses of each operand achieves

    hit_rate ~= 1                      if W <= C      (everything fits)
    hit_rate ~= 1 - (1 - C/W) * (r-1)/r   otherwise   (reuse beyond the
                                                       resident fraction
                                                       misses)

so DRAM traffic is ``W * (1 + (r - 1) * miss_component)`` — linear in
the overflow for streaming kernels, tempered by tiling for GEMM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheLevel:
    """One cache level: capacity, line size and hit latency."""

    name: str
    capacity_bytes: float
    line_bytes: int = 64
    hit_latency_ns: float = 5.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.line_bytes <= 0:
            raise ValueError(f"{self.name}: line size must be positive")


@dataclass(frozen=True)
class CacheHierarchy:
    """A two-level private/shared hierarchy plus DRAM."""

    l1: CacheLevel
    l2: CacheLevel
    dram_latency_ns: float = 100.0

    def __post_init__(self) -> None:
        if self.l2.capacity_bytes < self.l1.capacity_bytes:
            raise ValueError("L2 must be at least as large as L1")


def make_big_core_hierarchy(l2_bytes: float = 1.0e6) -> CacheHierarchy:
    """A Cortex-A76/A78 class hierarchy (64 KiB L1, ~1 MiB L2)."""
    return CacheHierarchy(
        l1=CacheLevel("L1", 64e3, hit_latency_ns=1.2),
        l2=CacheLevel("L2", l2_bytes, hit_latency_ns=9.0),
    )


def resident_fraction(working_set_bytes: float, capacity_bytes: float) -> float:
    """Fraction of the working set resident in a cache of given size."""
    if working_set_bytes <= 0:
        return 1.0
    return min(1.0, capacity_bytes / working_set_bytes)


def reuse_hit_rate(
    working_set_bytes: float, capacity_bytes: float, reuses: float
) -> float:
    """Hit rate of a kernel re-reading its working set ``reuses`` times.

    The first pass always misses (cold); subsequent passes hit on the
    resident fraction.  With ``reuses`` total passes, the overall rate
    is the resident fraction weighted by the warm passes.

    Raises:
        ValueError: for non-positive reuse counts.
    """
    if reuses < 1:
        raise ValueError("reuses must be >= 1")
    if working_set_bytes <= 0:
        return 1.0
    resident = resident_fraction(working_set_bytes, capacity_bytes)
    warm_passes = reuses - 1.0
    return (warm_passes * resident) / reuses


def gemm_reuse_count(working_set_bytes: float, capacity_bytes: float) -> float:
    """Logical operand reuses of a tiled GEMM with the given footprint.

    A GEMM over matrices of total size ``W`` tiled for a cache ``C``
    re-reads each operand ``~sqrt(W / C)`` times once it overflows —
    the classic I/O lower bound (Hong-Kung).  Fits-in-cache GEMMs read
    each operand once.
    """
    if working_set_bytes <= capacity_bytes:
        return 1.0
    return math.sqrt(working_set_bytes / capacity_bytes)


def dram_traffic_bytes(
    working_set_bytes: float,
    hierarchy: CacheHierarchy,
    reuses: float = 1.0,
) -> float:
    """DRAM bytes moved by a kernel with the given reuse behaviour.

    Each of the ``reuses`` passes over the working set misses the L2 on
    the non-resident fraction; the first pass is fully cold.

    Raises:
        ValueError: for negative working sets or reuses < 1.
    """
    if working_set_bytes < 0:
        raise ValueError("working set must be >= 0")
    if reuses < 1:
        raise ValueError("reuses must be >= 1")
    hit = reuse_hit_rate(working_set_bytes, hierarchy.l2.capacity_bytes, reuses)
    total_accessed = working_set_bytes * reuses
    return total_accessed * (1.0 - hit)


def gemm_amplification(
    working_set_bytes: float, hierarchy: CacheHierarchy
) -> float:
    """Traffic amplification of a GEMM vs a single cold pass.

    This is the first-principles counterpart of the latency model's
    ``sqrt(W / L2)`` heuristic: amplification = DRAM traffic divided by
    the compulsory (one-pass) traffic.
    """
    if working_set_bytes <= 0:
        return 1.0
    reuses = gemm_reuse_count(
        working_set_bytes, hierarchy.l2.capacity_bytes
    )
    traffic = dram_traffic_bytes(working_set_bytes, hierarchy, reuses)
    return max(1.0, traffic / working_set_bytes)


def average_access_latency_ns(
    working_set_bytes: float, hierarchy: CacheHierarchy
) -> float:
    """Mean access latency given residency in L1/L2/DRAM."""
    in_l1 = resident_fraction(working_set_bytes, hierarchy.l1.capacity_bytes)
    in_l2 = resident_fraction(working_set_bytes, hierarchy.l2.capacity_bytes)
    l2_only = max(0.0, in_l2 - in_l1)
    dram = max(0.0, 1.0 - in_l2)
    return (
        in_l1 * hierarchy.l1.hit_latency_ns
        + l2_only * hierarchy.l2.hit_latency_ns
        + dram * hierarchy.dram_latency_ns
    )

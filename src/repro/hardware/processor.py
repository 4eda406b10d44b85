"""Processor specifications for heterogeneous mobile SoCs.

A :class:`ProcessorSpec` captures what the latency and contention models
need to know about one schedulable compute unit: its kind (CPU Big
cluster, CPU Small cluster, GPU, NPU), peak FP16 throughput, per-operator
efficiency, cache size, solo memory bandwidth and kernel-launch overhead.

The paper treats the CPU Big and Small clusters each as a single unit
(Appendix A: per-core partitioning causes up to 70 % intra-cluster
slowdown, so whole clusters are the scheduling granularity) and the
GPU/NPU as indivisible accelerators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from ..models.ir import NPU_SUPPORTED_OPS, Layer, OpType


class ProcessorKind(enum.Enum):
    """The four processor classes the paper schedules onto."""

    CPU_BIG = "cpu_big"
    CPU_SMALL = "cpu_small"
    GPU = "gpu"
    NPU = "npu"


#: Operator-family groupings used for per-processor efficiency factors.
_MATMUL_FAMILY = frozenset(
    {
        OpType.FULLY_CONNECTED,
        OpType.MATMUL,
        OpType.ATTENTION,
        OpType.MASKED_ATTENTION,
        OpType.EMBEDDING,
    }
)
# CONCAT and ADD appear in the IR only as tags on *fused* conv blocks
# (inception, fire, residual), whose compute is conv-dominated, so they
# take the conv efficiency.
_CONV_FAMILY = frozenset(
    {OpType.CONV, OpType.POINTWISE_CONV, OpType.MISH, OpType.CONCAT, OpType.ADD}
)
_DEPTHWISE_FAMILY = frozenset({OpType.DEPTHWISE_CONV})
_LIGHT_FAMILY = frozenset(
    {
        OpType.POOL,
        OpType.RELU,
        OpType.GELU,
        OpType.SOFTMAX,
        OpType.LAYER_NORM,
        OpType.BATCH_NORM,
        OpType.UPSAMPLE,
        OpType.FLATTEN,
    }
)


@dataclass(frozen=True)
class ProcessorSpec:
    """Static description of one compute unit.

    Attributes:
        name: Unique identifier within its SoC (e.g. ``"cpu_big"``).
        kind: Processor class.
        peak_gflops: Peak FP16 throughput in GFLOP/s.
        efficiency: Fraction of peak achieved per operator family; keys
            are ``"conv"``, ``"matmul"``, ``"depthwise"``, ``"light"``.
        mem_bandwidth_gbps: Effective solo DRAM bandwidth in GB/s.
        l2_cache_bytes: Last-level cache available to this unit; working
            sets beyond it amplify DRAM traffic (Observation 2).
        launch_overhead_ms: Fixed per-slice kernel-launch / dispatch cost.
        copy_bandwidth_gbps: Bandwidth for inter-stage tensor copies on the
            unified memory (the ``T^c`` term of Eq. 2).
        supports_all_ops: False for the NPU, whose operator set is
            :data:`~repro.models.ir.NPU_SUPPORTED_OPS`.
        dedicated_memory_path: True for the NPU: its traffic largely
            bypasses the shared bus, so it neither suffers from nor causes
            much contention (Sec. III: CPU-NPU slowdown ~3-5 %).
    """

    name: str
    kind: ProcessorKind
    peak_gflops: float
    efficiency: Mapping[str, float]
    mem_bandwidth_gbps: float
    l2_cache_bytes: float
    launch_overhead_ms: float
    copy_bandwidth_gbps: float
    supports_all_ops: bool = True
    dedicated_memory_path: bool = False

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0:
            raise ValueError(f"{self.name}: peak_gflops must be positive")
        if self.mem_bandwidth_gbps <= 0 or self.copy_bandwidth_gbps <= 0:
            raise ValueError(f"{self.name}: bandwidths must be positive")
        for key in ("conv", "matmul", "depthwise", "light"):
            if key not in self.efficiency:
                raise ValueError(f"{self.name}: missing efficiency[{key!r}]")
            if not 0 < self.efficiency[key] <= 1:
                raise ValueError(
                    f"{self.name}: efficiency[{key!r}] must be in (0, 1]"
                )

    def op_family(self, op: OpType) -> str:
        """Efficiency-family key for an operator."""
        if op in _MATMUL_FAMILY:
            return "matmul"
        if op in _CONV_FAMILY:
            return "conv"
        if op in _DEPTHWISE_FAMILY:
            return "depthwise"
        return "light"

    def effective_gflops(self, op: OpType) -> float:
        """Achievable GFLOP/s on this unit for the given operator type."""
        return self.peak_gflops * self.efficiency[self.op_family(op)]

    def supports(self, layer: Layer) -> bool:
        """Whether this unit can execute the layer at all."""
        if self.supports_all_ops:
            return True
        return layer.op in NPU_SUPPORTED_OPS

    def supports_model_slice(self, layers) -> bool:
        """Whether every layer of a slice is executable on this unit."""
        return all(self.supports(layer) for layer in layers)


def make_cpu_big(
    peak_gflops: float = 300.0, l2_cache_bytes: float = 1.0e6
) -> ProcessorSpec:
    """A performance-cluster CPU: strong NEON conv, weak huge-MatMul."""
    return ProcessorSpec(
        name="cpu_big",
        kind=ProcessorKind.CPU_BIG,
        peak_gflops=peak_gflops,
        efficiency={"conv": 0.50, "matmul": 0.25, "depthwise": 0.30, "light": 0.25},
        mem_bandwidth_gbps=14.0,
        l2_cache_bytes=l2_cache_bytes,
        launch_overhead_ms=0.05,
        copy_bandwidth_gbps=10.0,
    )


def make_cpu_small(peak_gflops: float = 55.0) -> ProcessorSpec:
    """An efficiency-cluster CPU: ~5x slower than the Big cluster."""
    return ProcessorSpec(
        name="cpu_small",
        kind=ProcessorKind.CPU_SMALL,
        peak_gflops=peak_gflops,
        efficiency={"conv": 0.45, "matmul": 0.15, "depthwise": 0.30, "light": 0.25},
        mem_bandwidth_gbps=6.0,
        l2_cache_bytes=0.25e6,
        launch_overhead_ms=0.05,
        copy_bandwidth_gbps=6.0,
    )


def make_gpu(peak_gflops: float = 600.0) -> ProcessorSpec:
    """An embedded OpenCL GPU: on par with the Big CPU cluster overall.

    Peak throughput is higher than the CPU's but OpenCL efficiency on
    Mali/Adreno is low and per-kernel launch cost is significant, which
    is why Fig. 1 shows Big CPU ~ GPU.
    """
    return ProcessorSpec(
        name="gpu",
        kind=ProcessorKind.GPU,
        peak_gflops=peak_gflops,
        efficiency={"conv": 0.20, "matmul": 0.12, "depthwise": 0.05, "light": 0.12},
        mem_bandwidth_gbps=16.0,
        l2_cache_bytes=2.0e6,
        launch_overhead_ms=0.40,
        copy_bandwidth_gbps=8.0,
    )


def make_npu(peak_gflops: float = 1300.0) -> ProcessorSpec:
    """A dedicated NPU: far faster, limited op set, own memory path."""
    return ProcessorSpec(
        name="npu",
        kind=ProcessorKind.NPU,
        peak_gflops=peak_gflops,
        efficiency={"conv": 0.60, "matmul": 0.55, "depthwise": 0.35, "light": 0.30},
        mem_bandwidth_gbps=30.0,
        l2_cache_bytes=8.0e6,
        launch_overhead_ms=0.80,
        copy_bandwidth_gbps=6.0,
        supports_all_ops=False,
        dedicated_memory_path=True,
    )

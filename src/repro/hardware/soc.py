"""SoC specifications: the three evaluation platforms of the paper.

A :class:`SocSpec` bundles the processors of one chip with the shared
memory-subsystem parameters (bus bandwidth, capacity, DVFS frequency
table) and the pairwise contention-coupling matrix motivated in Sec. III.

Processors are ordered by processing power, descending, exactly as the
paper arranges pipeline stages (NPU >> CPU Big >= GPU >> CPU Small).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .processor import (
    ProcessorKind,
    ProcessorSpec,
    make_cpu_big,
    make_cpu_small,
    make_gpu,
    make_npu,
)

#: Pairwise coupling factors for co-execution slowdown.  Entry (a, b) is
#: how strongly traffic from a unit of kind *b* slows a victim of kind *a*.
#: CPU<->GPU interfere strongly on the shared bus; the NPU's dedicated
#: memory path nearly isolates it (Sec. III: 18-21 % CPU-GPU vs 2-5 % for
#: NPU pairs).  CPU_BIG<->CPU_SMALL share the L3/bus but not L2.
DEFAULT_COUPLING: Dict[Tuple[ProcessorKind, ProcessorKind], float] = {
    (ProcessorKind.CPU_BIG, ProcessorKind.GPU): 1.00,
    (ProcessorKind.GPU, ProcessorKind.CPU_BIG): 1.00,
    # Separate CPU clusters share only the DRAM path (distinct L2s), so
    # their mutual coupling is well below the CPU-GPU level.
    (ProcessorKind.CPU_BIG, ProcessorKind.CPU_SMALL): 0.45,
    (ProcessorKind.CPU_SMALL, ProcessorKind.CPU_BIG): 0.45,
    (ProcessorKind.GPU, ProcessorKind.CPU_SMALL): 0.70,
    (ProcessorKind.CPU_SMALL, ProcessorKind.GPU): 0.70,
    (ProcessorKind.CPU_BIG, ProcessorKind.NPU): 0.15,
    (ProcessorKind.NPU, ProcessorKind.CPU_BIG): 0.12,
    (ProcessorKind.GPU, ProcessorKind.NPU): 0.10,
    (ProcessorKind.NPU, ProcessorKind.GPU): 0.10,
    (ProcessorKind.CPU_SMALL, ProcessorKind.NPU): 0.15,
    (ProcessorKind.NPU, ProcessorKind.CPU_SMALL): 0.12,
    (ProcessorKind.CPU_BIG, ProcessorKind.CPU_BIG): 3.50,
    (ProcessorKind.CPU_SMALL, ProcessorKind.CPU_SMALL): 3.50,
    (ProcessorKind.GPU, ProcessorKind.GPU): 3.50,
    (ProcessorKind.NPU, ProcessorKind.NPU): 0.50,
}

#: One victim's coupling row: co-runner processor name -> (its kind, the
#: coupling factor it exerts on the victim).
CouplingRow = Dict[str, Tuple[ProcessorKind, float]]


@dataclass(frozen=True)
class SocSpec:
    """One system-on-chip: processors plus shared memory subsystem.

    Attributes:
        name: Platform identifier (``"kirin990"``, ...).
        processors: Compute units in descending processing-power order.
        bus_bandwidth_gbps: Total shared-bus bandwidth at max memory
            frequency.
        memory_capacity_bytes: Physical memory available to inference
            (Constraint 6; the paper observes ~2.5 GB free on Kirin 990).
        memory_freq_mhz: DVFS frequency table of the memory controller,
            ascending (used by the Fig. 9 trace model).
        coupling: Pairwise contention coupling; defaults to
            :data:`DEFAULT_COUPLING`.
        coupling_rows: Derived at construction (``dataclasses.replace``
            re-derives it): per victim processor name, the
            :data:`CouplingRow` of the :meth:`coupling_factor` each
            processor of the SoC, the victim included, exerts on it.
            The slowdown model reads a row instead of hashing kind
            pairs on every engine step.
    """

    name: str
    processors: Tuple[ProcessorSpec, ...]
    bus_bandwidth_gbps: float
    memory_capacity_bytes: float
    memory_freq_mhz: Tuple[int, ...]
    coupling: Dict[Tuple[ProcessorKind, ProcessorKind], float] = field(
        default_factory=lambda: dict(DEFAULT_COUPLING)
    )
    coupling_rows: Dict[str, CouplingRow] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.processors:
            raise ValueError(f"SoC {self.name!r} needs at least one processor")
        names = [p.name for p in self.processors]
        if len(set(names)) != len(names):
            raise ValueError(f"SoC {self.name!r}: duplicate processor names")
        if self.bus_bandwidth_gbps <= 0:
            raise ValueError(f"SoC {self.name!r}: bus bandwidth must be positive")
        if list(self.memory_freq_mhz) != sorted(self.memory_freq_mhz):
            raise ValueError(f"SoC {self.name!r}: freq table must be ascending")
        rows = {
            victim.name: {
                source.name: (
                    source.kind,
                    self.coupling_factor(victim.kind, source.kind),
                )
                for source in self.processors
            }
            for victim in self.processors
        }
        object.__setattr__(self, "coupling_rows", rows)

    @property
    def num_processors(self) -> int:
        return len(self.processors)

    def processor(self, name: str) -> ProcessorSpec:
        """Look up a processor by name.

        Raises:
            KeyError: if no processor has that name.
        """
        for proc in self.processors:
            if proc.name == name:
                return proc
        raise KeyError(
            f"SoC {self.name!r} has no processor {name!r}; "
            f"available: {[p.name for p in self.processors]}"
        )

    def processors_of_kind(self, kind: ProcessorKind) -> Tuple[ProcessorSpec, ...]:
        return tuple(p for p in self.processors if p.kind == kind)

    @property
    def has_npu(self) -> bool:
        return any(p.kind == ProcessorKind.NPU for p in self.processors)

    @property
    def cpu_big(self) -> ProcessorSpec:
        return self.processors_of_kind(ProcessorKind.CPU_BIG)[0]

    @property
    def cpu_small(self) -> ProcessorSpec:
        return self.processors_of_kind(ProcessorKind.CPU_SMALL)[0]

    @property
    def gpu(self) -> ProcessorSpec:
        return self.processors_of_kind(ProcessorKind.GPU)[0]

    @property
    def npu(self) -> ProcessorSpec:
        npus = self.processors_of_kind(ProcessorKind.NPU)
        if not npus:
            raise KeyError(f"SoC {self.name!r} has no NPU")
        return npus[0]

    def coupling_factor(self, victim: ProcessorKind, source: ProcessorKind) -> float:
        """Contention coupling from a co-runner on ``source`` onto ``victim``."""
        return self.coupling.get((victim, source), 0.0)


def _ordered(*procs: ProcessorSpec) -> Tuple[ProcessorSpec, ...]:
    """Order processors by a representative conv throughput, descending."""
    from ..models.ir import OpType

    return tuple(
        sorted(procs, key=lambda p: p.effective_gflops(OpType.CONV), reverse=True)
    )


def make_kirin990() -> SocSpec:
    """HiSilicon Kirin 990: 2+2 A76 / 4 A55, Mali-G76 MP16, DaVinci NPU."""
    return SocSpec(
        name="kirin990",
        processors=_ordered(
            make_npu(peak_gflops=1300.0),
            make_cpu_big(peak_gflops=310.0, l2_cache_bytes=1.0e6),
            make_gpu(peak_gflops=620.0),
            make_cpu_small(peak_gflops=52.0),
        ),
        bus_bandwidth_gbps=34.0,
        memory_capacity_bytes=2.5e9,
        memory_freq_mhz=(451, 683, 1014, 1353, 1866),
    )


def make_snapdragon778g() -> SocSpec:
    """Qualcomm Snapdragon 778G: 1+3 A78 / 4 A55, Adreno 642L, no NPU.

    The paper's MNN deployment drives the Kirin NPU through HiAI; on the
    Snapdragon parts no comparable NPU path exists, which is why the
    reported peak speedups (8.8x) appear only on Kirin 990.
    """
    return SocSpec(
        name="snapdragon778g",
        processors=_ordered(
            make_cpu_big(peak_gflops=290.0, l2_cache_bytes=0.5e6),
            make_gpu(peak_gflops=1050.0),
            make_cpu_small(peak_gflops=54.0),
        ),
        bus_bandwidth_gbps=25.6,
        memory_capacity_bytes=2.2e9,
        memory_freq_mhz=(547, 768, 1017, 1555, 2092),
    )


def make_snapdragon870() -> SocSpec:
    """Qualcomm Snapdragon 870: 1+3 A77 / 4 A55, Adreno 650, no NPU."""
    return SocSpec(
        name="snapdragon870",
        processors=_ordered(
            make_cpu_big(peak_gflops=340.0, l2_cache_bytes=0.5e6),
            make_gpu(peak_gflops=1250.0),
            make_cpu_small(peak_gflops=50.0),
        ),
        bus_bandwidth_gbps=34.1,
        memory_capacity_bytes=2.8e9,
        memory_freq_mhz=(681, 1017, 1555, 2092, 2736),
    )


#: Registry of the three evaluation platforms.
SOC_BUILDERS = {
    "kirin990": make_kirin990,
    "snapdragon778g": make_snapdragon778g,
    "snapdragon870": make_snapdragon870,
}

SOC_NAMES: Tuple[str, ...] = tuple(SOC_BUILDERS)


def get_soc(name: str) -> SocSpec:
    """Build an SoC spec by name.

    Raises:
        KeyError: for unknown platform names.
    """
    key = name.lower()
    if key not in SOC_BUILDERS:
        raise KeyError(f"unknown SoC {name!r}; available: {sorted(SOC_BUILDERS)}")
    return SOC_BUILDERS[key]()


def all_socs() -> Tuple[SocSpec, ...]:
    return tuple(get_soc(name) for name in SOC_NAMES)

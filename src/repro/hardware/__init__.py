"""Simulated heterogeneous mobile SoC substrate."""

from .processor import (
    ProcessorKind,
    ProcessorSpec,
    make_cpu_big,
    make_cpu_small,
    make_gpu,
    make_npu,
)
from .soc import (
    DEFAULT_COUPLING,
    SOC_BUILDERS,
    SOC_NAMES,
    SocSpec,
    all_socs,
    get_soc,
    make_kirin990,
    make_snapdragon778g,
    make_snapdragon870,
)
from .energy import (
    DRAM_PJ_PER_BYTE,
    POWER,
    EnergyBreakdown,
    PowerSpec,
    estimate_energy,
)
from .memory import MemoryDemand, MemoryGovernor
from .thermal import ThermalState, steady_state, sustained_frequency_scale

__all__ = [
    "ProcessorKind",
    "ProcessorSpec",
    "make_cpu_big",
    "make_cpu_small",
    "make_gpu",
    "make_npu",
    "DEFAULT_COUPLING",
    "SOC_BUILDERS",
    "SOC_NAMES",
    "SocSpec",
    "all_socs",
    "get_soc",
    "make_kirin990",
    "make_snapdragon778g",
    "make_snapdragon870",
    "DRAM_PJ_PER_BYTE",
    "POWER",
    "EnergyBreakdown",
    "PowerSpec",
    "estimate_energy",
    "MemoryDemand",
    "MemoryGovernor",
    "ThermalState",
    "steady_state",
    "sustained_frequency_scale",
]

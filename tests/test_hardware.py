"""Tests for processor specs, SoC registry, memory and thermal models."""

import pytest

from repro.hardware.memory import (
    MemoryDemand,
    MemoryGovernor,
    working_set_bytes,
)
from repro.hardware.processor import (
    ProcessorKind,
    ProcessorSpec,
    make_cpu_big,
    make_npu,
)
from repro.hardware.soc import SOC_NAMES, all_socs, get_soc
from repro.hardware.thermal import steady_state, sustained_frequency_scale
from repro.models.ir import Layer, OpType


def _layer(op=OpType.CONV):
    return Layer(
        name="x", op=op, flops=1e6, weight_bytes=1e3,
        activation_bytes=1e3, output_bytes=1e3,
    )


class TestProcessorSpec:
    def test_effective_gflops_uses_family_efficiency(self):
        cpu = make_cpu_big()
        assert cpu.effective_gflops(OpType.CONV) == pytest.approx(
            cpu.peak_gflops * cpu.efficiency["conv"]
        )
        assert cpu.effective_gflops(OpType.MATMUL) < cpu.effective_gflops(
            OpType.CONV
        )

    def test_fused_block_ops_use_conv_family(self):
        cpu = make_cpu_big()
        assert cpu.op_family(OpType.CONCAT) == "conv"
        assert cpu.op_family(OpType.ADD) == "conv"

    def test_masked_attention_is_matmul_family(self):
        assert make_cpu_big().op_family(OpType.MASKED_ATTENTION) == "matmul"

    def test_cpu_supports_everything(self):
        assert make_cpu_big().supports(_layer(OpType.MISH))

    def test_npu_rejects_fallback_ops(self):
        npu = make_npu()
        assert not npu.supports(_layer(OpType.MISH))
        assert not npu.supports(_layer(OpType.MASKED_ATTENTION))
        assert npu.supports(_layer(OpType.CONV))

    def test_npu_slice_support(self):
        npu = make_npu()
        good = [_layer(OpType.CONV), _layer(OpType.POOL)]
        bad = good + [_layer(OpType.EMBEDDING)]
        assert npu.supports_model_slice(good)
        assert not npu.supports_model_slice(bad)

    def test_invalid_peak_rejected(self):
        with pytest.raises(ValueError):
            ProcessorSpec(
                name="x",
                kind=ProcessorKind.GPU,
                peak_gflops=0,
                efficiency={"conv": 0.5, "matmul": 0.5, "depthwise": 0.5, "light": 0.5},
                mem_bandwidth_gbps=10,
                l2_cache_bytes=1e6,
                launch_overhead_ms=0.1,
                copy_bandwidth_gbps=10,
            )

    def test_missing_efficiency_key_rejected(self):
        with pytest.raises(ValueError):
            ProcessorSpec(
                name="x",
                kind=ProcessorKind.GPU,
                peak_gflops=100,
                efficiency={"conv": 0.5},
                mem_bandwidth_gbps=10,
                l2_cache_bytes=1e6,
                launch_overhead_ms=0.1,
                copy_bandwidth_gbps=10,
            )


class TestSocRegistry:
    def test_three_platforms(self):
        assert set(SOC_NAMES) == {"kirin990", "snapdragon778g", "snapdragon870"}
        assert len(all_socs()) == 3

    def test_unknown_soc(self):
        with pytest.raises(KeyError):
            get_soc("exynos")

    def test_only_kirin_has_npu(self):
        assert get_soc("kirin990").has_npu
        assert not get_soc("snapdragon778g").has_npu
        assert not get_soc("snapdragon870").has_npu

    def test_processor_power_ordering(self):
        # The paper orders stages by descending processing power.
        soc = get_soc("kirin990")
        powers = [p.effective_gflops(OpType.CONV) for p in soc.processors]
        assert powers == sorted(powers, reverse=True)
        assert soc.processors[0].kind == ProcessorKind.NPU
        assert soc.processors[-1].kind == ProcessorKind.CPU_SMALL

    def test_processor_lookup(self):
        soc = get_soc("kirin990")
        assert soc.processor("gpu").kind == ProcessorKind.GPU
        with pytest.raises(KeyError):
            soc.processor("dsp")

    def test_npu_property_raises_without_npu(self):
        with pytest.raises(KeyError):
            get_soc("snapdragon870").npu

    def test_coupling_structure(self):
        soc = get_soc("kirin990")
        cpu_gpu = soc.coupling_factor(ProcessorKind.CPU_BIG, ProcessorKind.GPU)
        cpu_npu = soc.coupling_factor(ProcessorKind.CPU_BIG, ProcessorKind.NPU)
        intra = soc.coupling_factor(ProcessorKind.CPU_BIG, ProcessorKind.CPU_BIG)
        assert cpu_gpu > cpu_npu  # NPU's dedicated path
        assert intra > cpu_gpu  # Fig. 10 intra-cluster

    def test_unknown_coupling_defaults_to_zero(self):
        soc = get_soc("snapdragon870")
        assert soc.coupling_factor(ProcessorKind.NPU, ProcessorKind.NPU) >= 0


class TestMemoryGovernor:
    def test_idle_selects_lowest(self):
        gov = MemoryGovernor(get_soc("kirin990"))
        assert gov.select_frequency([]) == gov.frequencies_mhz[0]

    def test_npu_only_stays_low(self):
        gov = MemoryGovernor(get_soc("kirin990"))
        demand = [MemoryDemand(ProcessorKind.NPU, 20.0, 1e8)]
        assert gov.select_frequency(demand) == gov.frequencies_mhz[0]

    def test_cpu_demand_boosts_to_max(self):
        gov = MemoryGovernor(get_soc("kirin990"))
        demand = [MemoryDemand(ProcessorKind.CPU_BIG, 2.0, 1e8)]
        assert gov.select_frequency(demand) == gov.frequencies_mhz[-1]

    def test_tiny_demand_uses_low_state(self):
        gov = MemoryGovernor(get_soc("kirin990"))
        demand = [MemoryDemand(ProcessorKind.CPU_BIG, 0.05, 1e8)]
        assert gov.select_frequency(demand) < gov.frequencies_mhz[-1]

    def test_bandwidth_scales_with_frequency(self):
        soc = get_soc("kirin990")
        gov = MemoryGovernor(soc)
        assert gov.bandwidth_at(soc.memory_freq_mhz[-1]) == pytest.approx(
            soc.bus_bandwidth_gbps
        )
        assert gov.bandwidth_at(soc.memory_freq_mhz[0]) < soc.bus_bandwidth_gbps


class TestWorkingSet:
    def test_working_set_helper(self):
        assert working_set_bytes(10.0, 5.0) == 15.0


class TestThermal:
    def test_cpu_big_throttles_at_full_load(self):
        state = steady_state(ProcessorKind.CPU_BIG, 1.0)
        assert state.temperature_c > 60.0
        assert state.frequency_scale < 1.0

    def test_gpu_stays_cool(self):
        state = steady_state(ProcessorKind.GPU, 1.0)
        assert state.temperature_c < 50.0
        assert state.frequency_scale == 1.0

    def test_npu_never_throttles(self):
        assert sustained_frequency_scale(ProcessorKind.NPU, 1.0) == 1.0

    def test_idle_no_throttle(self):
        assert sustained_frequency_scale(ProcessorKind.CPU_BIG, 0.0) == 1.0

    def test_monotone_in_utilization(self):
        scales = [
            sustained_frequency_scale(ProcessorKind.CPU_BIG, u)
            for u in (0.0, 0.5, 0.8, 1.0)
        ]
        assert scales == sorted(scales, reverse=True)

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            steady_state(ProcessorKind.CPU_BIG, 1.5)

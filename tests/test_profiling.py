"""Tests for the roofline latency model, profiler tables, PMU and slowdown."""

import dataclasses
import math

import pytest

from repro.experiments.ext_sensitivity import scaled_soc
from repro.hardware.processor import make_cpu_big, make_gpu, make_npu
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.ir import Layer, OpType
from repro.models.zoo import get_model
from repro.profiling.latency import (
    MAX_AMPLIFICATION,
    copy_latency_ms,
    layer_compute_memory_ms,
    layer_latency_ms,
    layer_traffic_bytes,
    traffic_amplification,
)
from repro.profiling.pmu import ground_truth_intensity, measure_counters
from repro.profiling.profiler import INFEASIBLE, SocProfiler
from repro.profiling.slowdown import (
    MAX_SLOWDOWN,
    SliceWorkload,
    co_execution_ms,
    intra_cluster_slowdown,
    pairwise_slowdown_table,
    slowdown_fraction,
)


def _layer(op=OpType.CONV, flops=1e9, weights=1e6, acts=1e6, name="x"):
    return Layer(
        name=name, op=op, flops=flops, weight_bytes=weights,
        activation_bytes=acts, output_bytes=1e4,
    )


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiles(kirin):
    profiler = SocProfiler(kirin)
    return {
        name: profiler.profile(get_model(name))
        for name in ("squeezenet", "bert", "vit", "resnet50", "vgg16")
    }


class TestTrafficAmplification:
    def test_conv_has_no_amplification(self):
        cpu = make_cpu_big()
        assert traffic_amplification(_layer(OpType.CONV, weights=1e8), cpu) == 1.0

    def test_small_matmul_fits_cache(self):
        cpu = make_cpu_big()
        layer = _layer(OpType.MATMUL, weights=cpu.l2_cache_bytes / 2)
        assert traffic_amplification(layer, cpu) == 1.0

    def test_large_matmul_amplified(self):
        cpu = make_cpu_big()
        layer = _layer(OpType.MATMUL, weights=cpu.l2_cache_bytes * 9)
        assert traffic_amplification(layer, cpu) == pytest.approx(3.0)

    def test_amplification_capped(self):
        cpu = make_cpu_big()
        layer = _layer(OpType.MATMUL, weights=cpu.l2_cache_bytes * 1e6)
        assert traffic_amplification(layer, cpu) == MAX_AMPLIFICATION

    def test_fc_layers_traffic_exceeds_conv(self):
        # Observation 2: FC / MatMul layers have amplified cache misses.
        cpu = make_cpu_big()
        conv = _layer(OpType.CONV, weights=1e7)
        fc = _layer(OpType.FULLY_CONNECTED, weights=1e7)
        assert layer_traffic_bytes(fc, cpu) > 2 * layer_traffic_bytes(conv, cpu)


class TestLayerLatency:
    def test_roofline_compute_bound(self):
        cpu = make_cpu_big()
        layer = _layer(flops=1e10, weights=1e3, acts=1e3)
        compute, memory = layer_compute_memory_ms(layer, cpu)
        assert compute > memory
        latency = layer_latency_ms(layer, cpu)
        assert latency == pytest.approx(compute, rel=0.07)

    def test_roofline_memory_bound(self):
        cpu = make_cpu_big()
        layer = _layer(flops=1e3, weights=1e8, acts=1e8, op=OpType.CONV)
        compute, memory = layer_compute_memory_ms(layer, cpu)
        assert memory > compute
        assert layer_latency_ms(layer, cpu) == pytest.approx(memory, rel=0.07)

    def test_thermal_scale_slows_compute(self):
        cpu = make_cpu_big()
        layer = _layer(flops=1e10, weights=1e3, acts=1e3)
        assert layer_latency_ms(layer, cpu, 0.5) > layer_latency_ms(layer, cpu, 1.0)

    def test_invalid_thermal_scale(self):
        with pytest.raises(ValueError):
            layer_latency_ms(_layer(), make_cpu_big(), 0.0)

    def test_unsupported_layer_raises(self):
        with pytest.raises(ValueError):
            layer_latency_ms(_layer(OpType.MISH), make_npu())

    def test_deterministic(self):
        cpu = make_cpu_big()
        layer = _layer()
        assert layer_latency_ms(layer, cpu) == layer_latency_ms(layer, cpu)


class TestCopyLatency:
    def test_zero_bytes_free(self):
        assert copy_latency_ms(0.0, make_cpu_big(), make_gpu()) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            copy_latency_ms(-1.0, make_cpu_big(), make_gpu())

    def test_scales_with_size(self):
        a, b = make_cpu_big(), make_gpu()
        assert copy_latency_ms(2e6, a, b) > copy_latency_ms(1e6, a, b)

    def test_includes_dispatch_overheads(self):
        a, b = make_cpu_big(), make_npu()
        tiny = copy_latency_ms(1.0, a, b)
        assert tiny >= 0.5 * (a.launch_overhead_ms + b.launch_overhead_ms)


class TestModelProfile:
    def test_prefix_sums_match_direct(self, kirin, profiles):
        profile = profiles["resnet50"]
        cpu = kirin.cpu_big
        direct = sum(
            profile.layer_ms(cpu, i) for i in range(3, 9)
        ) + cpu.launch_overhead_ms
        assert profile.exec_ms(cpu, 3, 8) == pytest.approx(direct)

    def test_monotonicity_property(self, kirin, profiles):
        # Property 2: growing a slice never shrinks its time.
        profile = profiles["vgg16"]
        cpu = kirin.cpu_big
        n = profile.model.num_layers
        for i in range(0, n - 2):
            assert profile.exec_ms(cpu, i, n - 1) <= profile.exec_ms(
                cpu, i, n - 1
            )
            assert profile.exec_ms(cpu, i + 1, n - 1) < profile.exec_ms(cpu, i, n - 1)
            assert profile.exec_ms(cpu, 0, i) < profile.exec_ms(cpu, 0, i + 1)

    def test_npu_infeasible_slices(self, kirin, profiles):
        profile = profiles["bert"]
        npu = kirin.npu
        assert profile.exec_ms(npu, 0, 0) == INFEASIBLE
        assert not profile.feasible(npu, 0, profile.model.num_layers - 1)

    def test_feasible_on_cpu(self, kirin, profiles):
        profile = profiles["bert"]
        assert profile.feasible(kirin.cpu_big, 0, profile.model.num_layers - 1)

    def test_whole_model_matches_full_slice(self, kirin, profiles):
        profile = profiles["squeezenet"]
        cpu = kirin.cpu_big
        assert profile.whole_model_ms(cpu) == profile.exec_ms(
            cpu, 0, profile.model.num_layers - 1
        )

    def test_slice_cost_adds_copy_for_interior(self, kirin, profiles):
        profile = profiles["resnet50"]
        cpu, gpu = kirin.cpu_big, kirin.gpu
        plain = profile.exec_ms(cpu, 0, 5)
        with_copy = profile.slice_cost_ms(cpu, 0, 5, gpu)
        assert with_copy > plain

    def test_slice_cost_no_copy_at_tail(self, kirin, profiles):
        profile = profiles["resnet50"]
        cpu, gpu = kirin.cpu_big, kirin.gpu
        n = profile.model.num_layers
        assert profile.slice_cost_ms(cpu, 0, n - 1, gpu) == profile.exec_ms(
            cpu, 0, n - 1
        )

    def test_invalid_slice_raises(self, kirin, profiles):
        with pytest.raises(IndexError):
            profiles["vit"].exec_ms(kirin.cpu_big, 5, 2)

    def test_out_of_range_slice_raises_from_exec_and_layer_ms(
        self, kirin, profiles
    ):
        profile = profiles["vit"]
        n = profile.model.num_layers
        for start, end in ((-1, 0), (0, n), (n, n)):
            with pytest.raises(IndexError, match="invalid slice"):
                profile.exec_ms(kirin.npu, start, end)
        for index in (-1, n):
            with pytest.raises(IndexError, match="invalid slice"):
                profile.layer_ms(kirin.npu, index)

    def test_memory_fraction_in_unit_interval(self, kirin, profiles):
        for profile in profiles.values():
            frac = profile.memory_fraction(
                kirin.cpu_big, 0, profile.model.num_layers - 1
            )
            assert 0.0 <= frac <= 1.0

    def test_working_set_includes_weights_and_peak_activation(self, kirin, profiles):
        profile = profiles["squeezenet"]
        ws = profile.working_set_bytes(0, profile.model.num_layers - 1)
        assert ws > profile.model.total_weight_bytes

    def test_profiler_caches(self, kirin):
        profiler = SocProfiler(kirin)
        model = get_model("alexnet")
        assert profiler.profile(model) is profiler.profile(model)


class TestPmu:
    def test_counters_deterministic(self, kirin, profiles):
        p = profiles["bert"]
        a = measure_counters(p, kirin.cpu_big)
        b = measure_counters(p, kirin.cpu_big)
        assert a == b

    def test_memory_bound_models_have_lower_ipc(self, kirin, profiles):
        # AlexNet-style FC stacks are memory bound; compare extremes.
        ipc_sq = measure_counters(profiles["squeezenet"], kirin.cpu_big).ipc
        alex = SocProfiler(kirin).profile(get_model("alexnet"))
        ipc_alex = measure_counters(alex, kirin.cpu_big).ipc
        assert ipc_alex < ipc_sq

    def test_features_positive(self, kirin, profiles):
        for p in profiles.values():
            c = measure_counters(p, kirin.cpu_big)
            assert c.ipc > 0
            assert 0 <= c.cache_miss_rate <= 0.7
            assert 0 <= c.stalled_backend <= 1.0

    def test_ground_truth_squeezenet_outlier(self, kirin, profiles):
        # Observation 3: SqueezeNet's intensity rivals far larger models.
        sq = ground_truth_intensity(profiles["squeezenet"], kirin.cpu_big)
        vit = ground_truth_intensity(profiles["vit"], kirin.cpu_big)
        assert sq > vit


class TestSlowdown:
    def _workload(self, profiles, name, proc):
        p = profiles[name]
        return SliceWorkload(p, proc, 0, p.model.num_layers - 1)

    def test_no_corunners_no_slowdown(self, kirin, profiles):
        w = self._workload(profiles, "bert", kirin.cpu_big)
        assert slowdown_fraction(kirin, w, []) == 0.0

    def test_same_processor_rejected(self, kirin, profiles):
        a = self._workload(profiles, "bert", kirin.cpu_big)
        b = self._workload(profiles, "vit", kirin.cpu_big)
        with pytest.raises(ValueError):
            slowdown_fraction(kirin, a, [b])

    def test_cpu_gpu_pair_in_published_band(self, kirin, profiles):
        # Sec. III: CPU-GPU slowdowns are in the 5-30 % range.
        a = self._workload(profiles, "squeezenet", kirin.cpu_big)
        b = self._workload(profiles, "bert", kirin.gpu)
        s_a, s_b = pairwise_slowdown_table(kirin, a, b)
        assert 0.05 <= s_a <= 0.35
        assert 0.05 <= s_b <= 0.35

    def test_npu_pairs_nearly_isolated(self, kirin, profiles):
        # Sec. III: NPU pairs see only 2-5 % slowdown.
        a = self._workload(profiles, "vgg16", kirin.cpu_big)
        b = self._workload(profiles, "resnet50", kirin.npu)
        s_a, s_b = pairwise_slowdown_table(kirin, a, b)
        assert s_a <= 0.06
        assert s_b <= 0.06

    def test_squeezenet_more_disruptive_than_vit(self, kirin, profiles):
        # Table II / Observation 3.
        bert_gpu = self._workload(profiles, "bert", kirin.gpu)
        sq = self._workload(profiles, "squeezenet", kirin.cpu_big)
        vit = self._workload(profiles, "vit", kirin.cpu_big)
        slow_by_sq = slowdown_fraction(kirin, bert_gpu, [sq])
        slow_by_vit = slowdown_fraction(kirin, bert_gpu, [vit])
        assert slow_by_sq > slow_by_vit

    def test_more_corunners_more_slowdown(self, kirin, profiles):
        victim = self._workload(profiles, "bert", kirin.cpu_big)
        one = [self._workload(profiles, "vit", kirin.gpu)]
        two = one + [self._workload(profiles, "squeezenet", kirin.cpu_small)]
        assert slowdown_fraction(kirin, victim, two) > slowdown_fraction(
            kirin, victim, one
        )

    def test_slowdown_bounded(self, kirin, profiles):
        victim = self._workload(profiles, "squeezenet", kirin.cpu_big)
        others = [
            self._workload(profiles, "vgg16", kirin.gpu),
            self._workload(profiles, "bert", kirin.cpu_small),
            self._workload(profiles, "resnet50", kirin.npu),
        ]
        assert slowdown_fraction(kirin, victim, others) < 0.9

    def test_co_execution_time_inflates(self, kirin, profiles):
        victim = self._workload(profiles, "bert", kirin.cpu_big)
        co = [self._workload(profiles, "squeezenet", kirin.gpu)]
        assert co_execution_ms(kirin, victim, co) > victim.solo_ms()

    def test_intra_cluster_reaches_high_slowdown(self, kirin, profiles):
        # Fig. 10: up to ~70 % within one cluster.
        victim = self._workload(profiles, "squeezenet", kirin.cpu_big)
        partner = self._workload(profiles, "vgg16", kirin.cpu_big)
        s = intra_cluster_slowdown(kirin, victim, partner)
        assert 0.3 <= s <= 0.9

    def test_intra_cluster_asymmetric_split(self, kirin, profiles):
        victim = self._workload(profiles, "squeezenet", kirin.cpu_big)
        partner = self._workload(profiles, "vgg16", kirin.cpu_big)
        even = intra_cluster_slowdown(kirin, victim, partner, 2, 2)
        minority = intra_cluster_slowdown(kirin, victim, partner, 1, 3)
        assert minority > even

    def test_intra_cluster_invalid_cores(self, kirin, profiles):
        victim = self._workload(profiles, "squeezenet", kirin.cpu_big)
        partner = self._workload(profiles, "vgg16", kirin.cpu_big)
        with pytest.raises(ValueError):
            intra_cluster_slowdown(kirin, victim, partner, 0, 2)


def _slowdown_by_coupling_factor(soc, victim, co_runners):
    """Eq. 2's slowdown with every coupling from ``soc.coupling_factor``."""
    pressure = 0.0
    for co in co_runners:
        coupling = soc.coupling_factor(victim.proc.kind, co.proc.kind)
        pressure += coupling * co.intensity()
    if pressure <= 0.0:
        return 0.0
    return MAX_SLOWDOWN * (1.0 - math.exp(-pressure * victim.sensitivity()))


class TestCouplingRows:
    """``SocSpec.coupling_rows`` hold exactly ``coupling_factor``'s values."""

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("scale", [None, 1.7])
    def test_rows_equal_coupling_factor(self, soc_name, scale):
        soc = get_soc(soc_name)
        if scale is not None:  # a dataclasses.replace copy re-derives them
            soc = scaled_soc(soc, scale)
        names = [p.name for p in soc.processors]
        assert list(soc.coupling_rows) == names
        for victim in soc.processors:
            row = soc.coupling_rows[victim.name]
            assert list(row) == names
            for source in soc.processors:
                assert row[source.name] == (
                    source.kind,
                    soc.coupling_factor(victim.kind, source.kind),
                )

    def test_own_processors_match_coupling_factor(self, kirin, profiles):
        work = [
            SliceWorkload(profiles[name], proc, 0, 5)
            for name, proc in zip(
                ("bert", "vit", "squeezenet", "resnet50"), kirin.processors
            )
        ]
        for victim in work:
            others = [w for w in work if w is not victim]
            assert slowdown_fraction(
                kirin, victim, others
            ) == _slowdown_by_coupling_factor(kirin, victim, others)

    def test_foreign_processor_falls_back(self, kirin, profiles):
        # A copy of the SoC whose GPU is renamed and whose small CPU
        # takes the GPU's name: neither is one of Kirin 990's own.  A
        # lookup by name alone would couple the impostor as a GPU.
        renamed = {"gpu": "gpu2", "cpu_small": "gpu"}
        other = dataclasses.replace(
            kirin,
            name="other",
            processors=tuple(
                dataclasses.replace(p, name=renamed.get(p.name, p.name))
                for p in kirin.processors
            ),
        )
        bert = SocProfiler(other).profile(get_model("bert"))
        renamed_gpu = SliceWorkload(bert, other.processor("gpu2"), 0, 5)
        impostor = SliceWorkload(bert, other.processor("gpu"), 0, 5)
        cpu = SliceWorkload(profiles["squeezenet"], kirin.cpu_big, 0, 5)
        for victim, co in (
            (renamed_gpu, cpu),
            (cpu, renamed_gpu),
            (impostor, cpu),
            (cpu, impostor),
        ):
            expected = _slowdown_by_coupling_factor(kirin, victim, [co])
            assert expected > 0.0
            assert slowdown_fraction(kirin, victim, [co]) == expected

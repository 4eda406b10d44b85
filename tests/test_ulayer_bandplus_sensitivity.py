"""Tests for the uLayer baseline, contention-aware Band, sensitivity sweep."""

import pytest

from repro.baselines.band import plan_band, plan_band_contention_aware
from repro.baselines.ulayer import (
    split_layer,
    ulayer_model_latency_ms,
    ulayer_sequence_latency_ms,
    ulayer_speedup_over_cpu,
)
from repro.experiments.ext_sensitivity import run as sensitivity_run, scaled_soc
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import simulate_chains


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


class TestULayer:
    def test_split_balances_finish_times(self, kirin):
        model = get_model("vgg16")
        split = split_layer(model.layers[0], kirin.cpu_big, kirin.gpu, kirin)
        assert 0.0 < split.cpu_fraction < 1.0
        assert split.merge_ms > 0

    def test_per_model_speedup_in_realistic_band(self, kirin, profiler):
        # uLayer's CPU+GPU cooperation gains 1.3-2.5x on big CNNs...
        for name in ("vgg16", "resnet50", "bert"):
            speedup = ulayer_speedup_over_cpu(
                kirin, get_model(name), profiler
            )
            assert 1.2 <= speedup <= 3.0, f"{name}: {speedup:.2f}"

    def test_merge_overhead_hurts_tiny_models(self, kirin, profiler):
        # ...but the per-layer merge kills it on depthwise MobileNetV2
        # (the paper's critique of intra-operator partitioning).
        speedup = ulayer_speedup_over_cpu(
            kirin, get_model("mobilenetv2"), profiler
        )
        assert speedup < 1.2

    def test_sequence_is_serial_sum(self, kirin):
        models = [get_model("resnet50"), get_model("vgg16")]
        total = ulayer_sequence_latency_ms(kirin, models)
        parts = sum(ulayer_model_latency_ms(m, kirin)[0] for m in models)
        assert total == pytest.approx(parts)

    def test_sequence_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            ulayer_sequence_latency_ms(kirin, [])

    def test_merge_cost_scales_with_output(self, kirin):
        model = get_model("vgg16")
        big_out = max(model.layers, key=lambda layer: layer.output_bytes)
        small_out = min(model.layers, key=lambda layer: layer.output_bytes)
        big = split_layer(big_out, kirin.cpu_big, kirin.gpu, kirin)
        small = split_layer(small_out, kirin.cpu_big, kirin.gpu, kirin)
        assert big.merge_ms >= small.merge_ms


class TestBandContentionAware:
    def test_produces_valid_chains(self, kirin, profiler):
        models = [get_model(n) for n in ("yolov4", "bert", "squeezenet")]
        mapping = plan_band_contention_aware(kirin, models, profiler)
        assert len(mapping.chains) == 3
        result = simulate_chains(kirin, mapping.chains)
        assert result.num_requests == 3

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            plan_band_contention_aware(kirin, [])

    def test_not_worse_than_plain_band_on_contended_mix(self, kirin, profiler):
        # On a heavily contended workload, contention-aware estimates
        # should not lose badly to contention-blind ones.
        models = [
            get_model(n)
            for n in ("alexnet", "vgg16", "bert", "squeezenet", "alexnet")
        ]
        plain = simulate_chains(
            kirin, plan_band(kirin, models, profiler).chains
        ).makespan_ms
        aware = simulate_chains(
            kirin, plan_band_contention_aware(kirin, models, profiler).chains
        ).makespan_ms
        assert aware <= plain * 1.15

    def test_zero_pressure_gain_matches_plain_band(self, kirin, profiler):
        models = [get_model(n) for n in ("vit", "resnet50", "googlenet")]
        plain = plan_band(kirin, models, profiler)
        aware = plan_band_contention_aware(
            kirin, models, profiler, pressure_gain=0.0
        )
        assert plain.choices == aware.choices


class TestSensitivity:
    def test_scaled_soc_scales_coupling(self, kirin):
        doubled = scaled_soc(kirin, 2.0)
        for pair, value in kirin.coupling.items():
            assert doubled.coupling[pair] == pytest.approx(2 * value)

    def test_scaled_soc_validation(self, kirin):
        with pytest.raises(ValueError):
            scaled_soc(kirin, -1.0)

    def test_ordering_robust_across_scales(self, kirin):
        points = sensitivity_run(
            kirin,
            coupling_scales=(0.0, 1.0, 2.0),
            num_combinations=3,
            seed=9,
        )
        assert len(points) == 3
        for point in points:
            # H2P dominates serial MNN and stays competitive with Band
            # regardless of how strong contention is assumed to be.
            assert point.speedup_vs_mnn > 1.5
            assert point.speedup_vs_band > 0.9

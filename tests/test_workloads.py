"""Tests for workload generation and lightweight batching."""

import pytest

from repro.hardware.soc import get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.profiling.profiler import SocProfiler
from repro.workloads.batching import (
    batch_latency_model,
    batch_size_to_match,
    latency_growth_rates,
)
from repro.workloads.generator import arrival_times_ms, sample_combinations


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


class TestGenerator:
    def test_count_and_sizes(self):
        specs = sample_combinations(count=50, min_size=3, max_size=8, seed=1)
        assert len(specs) == 50
        assert all(3 <= len(s) <= 8 for s in specs)

    def test_deterministic_for_seed(self):
        a = sample_combinations(count=10, seed=5)
        b = sample_combinations(count=10, seed=5)
        assert [s.model_names for s in a] == [s.model_names for s in b]

    def test_different_seeds_differ(self):
        a = sample_combinations(count=10, seed=5)
        b = sample_combinations(count=10, seed=6)
        assert [s.model_names for s in a] != [s.model_names for s in b]

    def test_models_resolve(self):
        spec = sample_combinations(count=1, seed=0)[0]
        models = spec.models()
        assert len(models) == len(spec)
        assert all(m.name in MODEL_NAMES for m in models)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_combinations(count=0)
        with pytest.raises(ValueError):
            sample_combinations(min_size=5, max_size=3)

    def test_arrivals_spacing(self):
        times = arrival_times_ms(5, 100.0)
        assert times == [0.0, 100.0, 200.0, 300.0, 400.0]

    def test_arrivals_jitter_sorted_and_bounded(self):
        times = arrival_times_ms(10, 50.0, jitter=0.2, seed=3)
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_arrivals_invalid(self):
        with pytest.raises(ValueError):
            arrival_times_ms(3, 0.0)
        with pytest.raises(ValueError):
            arrival_times_ms(3, 10.0, jitter=1.5)
        with pytest.raises(ValueError):
            arrival_times_ms(-1, 10.0)


class TestBatching:
    def test_affine_model_matches_solo_at_batch_one(self, kirin, profiler):
        profile = profiler.profile(get_model("mobilenetv2"))
        affine = batch_latency_model(profile, kirin.cpu_big)
        solo = profile.whole_model_ms(kirin.cpu_big)
        # batch of 1 ~ solo + setup overhead
        assert affine.latency_ms(1) >= solo
        assert affine.latency_ms(1) <= solo * 1.5

    def test_latency_monotone_in_batch(self, kirin, profiler):
        profile = profiler.profile(get_model("squeezenet"))
        affine = batch_latency_model(profile, kirin.gpu)
        lats = [affine.latency_ms(b) for b in (1, 2, 4, 8, 16)]
        assert lats == sorted(lats)

    def test_per_sample_cost_decreases(self, kirin, profiler):
        profile = profiler.profile(get_model("squeezenet"))
        affine = batch_latency_model(profile, kirin.npu)
        assert affine.per_sample_ms(16) < affine.per_sample_ms(1)

    def test_invalid_batch_size(self, kirin, profiler):
        profile = profiler.profile(get_model("squeezenet"))
        affine = batch_latency_model(profile, kirin.cpu_big)
        with pytest.raises(ValueError):
            affine.latency_ms(0)

    def test_unsupported_processor_rejected(self, kirin, profiler):
        profile = profiler.profile(get_model("bert"))
        with pytest.raises(ValueError):
            batch_latency_model(profile, kirin.npu)

    def test_batch_size_to_match_closes_gap(self, kirin, profiler):
        # Appendix D: batch the light model until it fills a BERT-sized
        # stage (20-40x gap).
        light = profiler.profile(get_model("mobilenetv2"))
        heavy = profiler.profile(get_model("bert"))
        target = heavy.whole_model_ms(kirin.cpu_big)
        batch = batch_size_to_match(light, kirin.cpu_big, target)
        affine = batch_latency_model(light, kirin.cpu_big)
        assert batch > 1
        assert affine.latency_ms(batch) >= target * 0.9

    def test_batch_size_capped(self, kirin, profiler):
        light = profiler.profile(get_model("mobilenetv2"))
        batch = batch_size_to_match(light, kirin.npu, 1e9)
        assert batch == 64

    def test_batch_size_invalid_target(self, kirin, profiler):
        light = profiler.profile(get_model("mobilenetv2"))
        with pytest.raises(ValueError):
            batch_size_to_match(light, kirin.cpu_big, -5.0)

    def test_growth_rates_nearly_flat(self, kirin, profiler):
        # Fig. 13: affine latency means near-constant growth rate.
        profile = profiler.profile(get_model("squeezenet"))
        rates = latency_growth_rates(
            profile, kirin.cpu_big, (1, 2, 4, 8, 16, 32)
        )
        assert max(rates) - min(rates) <= 0.3 * max(rates)

    def test_growth_rates_need_two_sizes(self, kirin, profiler):
        profile = profiler.profile(get_model("squeezenet"))
        with pytest.raises(ValueError):
            latency_growth_rates(profile, kirin.cpu_big, (4,))

    def test_measured_latency_deterministic(self, kirin, profiler):
        profile = profiler.profile(get_model("squeezenet"))
        affine = batch_latency_model(profile, kirin.cpu_big)
        assert affine.measured_latency_ms(8) == affine.measured_latency_ms(8)

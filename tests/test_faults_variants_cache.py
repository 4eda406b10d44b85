"""Tests for fault injection, model variants, cache model, coupled DP
and the terminal charts."""

import pytest

from repro.analysis.charts import (
    bar_chart,
    grouped_bar_chart,
    scatter_plot,
    step_series,
)
from repro.core.partition_coupled import (
    expected_pressures,
    partition_model_coupled,
    plan_coupled,
)
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.cache import (
    CacheHierarchy,
    CacheLevel,
    average_access_latency_ns,
    dram_traffic_bytes,
    gemm_amplification,
    make_big_core_hierarchy,
    resident_fraction,
    reuse_hit_rate,
)
from repro.hardware.soc import get_soc
from repro.models.variants import (
    build_bert_variant,
    build_resnet,
    build_vgg,
    build_vit_variant,
)
from repro.models.zoo import get_model
from repro.profiling.latency import traffic_amplification
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import execute_plan, plan_to_chains, simulate_chains


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


class TestFaultInjection:
    def _plan(self, kirin, names):
        planner = Hetero2PipePlanner(kirin)
        return planner.plan([get_model(n) for n in names]).plan

    def test_offline_processor_gets_no_new_tasks(self, kirin, profiler):
        plan = self._plan(kirin, ["vit", "resnet50", "googlenet"])
        chains = plan_to_chains(plan)
        result = simulate_chains(
            kirin, chains, processor_offline_ms={"npu": 0.0}
        )
        assert all(r.processor != "npu" for r in result.records)
        assert result.num_requests == 3

    def test_fallback_extends_makespan(self, kirin, profiler):
        plan = self._plan(kirin, ["vit", "resnet50", "googlenet"])
        healthy = simulate_chains(kirin, plan_to_chains(plan)).makespan_ms
        degraded = simulate_chains(
            kirin,
            plan_to_chains(plan),
            processor_offline_ms={"npu": 0.0},
        ).makespan_ms
        assert degraded > healthy

    def test_midrun_fault_lets_running_task_finish(self, kirin, profiler):
        plan = self._plan(kirin, ["vit", "vit", "vit"])
        chains = plan_to_chains(plan)
        # NPU dies at 5 ms: whatever started before then completes on it.
        result = simulate_chains(
            kirin, chains, processor_offline_ms={"npu": 5.0}
        )
        npu_records = [r for r in result.records if r.processor == "npu"]
        for rec in npu_records:
            assert rec.start_ms < 5.0 + 1e-6
        # Remaining requests completed elsewhere.
        assert len(result.records) >= 3

    def test_all_processors_offline_raises(self, kirin, profiler):
        plan = self._plan(kirin, ["vit"])
        offline = {p.name: 0.0 for p in kirin.processors}
        with pytest.raises(RuntimeError):
            simulate_chains(
                kirin, plan_to_chains(plan), processor_offline_ms=offline
            )

    def test_fault_after_completion_is_noop(self, kirin, profiler):
        plan = self._plan(kirin, ["googlenet"])
        healthy = simulate_chains(kirin, plan_to_chains(plan)).makespan_ms
        late = simulate_chains(
            kirin,
            plan_to_chains(plan),
            processor_offline_ms={"npu": healthy + 1000.0},
        ).makespan_ms
        assert late == pytest.approx(healthy)


class TestVariants:
    def test_resnet_depths_scale_flops(self):
        flops = [build_resnet(d).total_flops for d in (18, 50, 101)]
        assert flops[0] < flops[1] < flops[2]

    def test_resnet_unknown_depth(self):
        with pytest.raises(KeyError):
            build_resnet(77)

    def test_resnet50_matches_zoo(self):
        variant = build_resnet(50)
        zoo = get_model("resnet50")
        assert variant.total_flops == pytest.approx(zoo.total_flops)
        assert variant.num_layers == zoo.num_layers

    def test_vgg_depths(self):
        assert build_vgg(11).total_flops < build_vgg(19).total_flops
        with pytest.raises(KeyError):
            build_vgg(12)

    def test_vgg16_matches_zoo(self):
        assert build_vgg(16).total_flops == pytest.approx(
            get_model("vgg16").total_flops
        )

    def test_bert_variants(self):
        distil = build_bert_variant(num_layers=6)
        base = build_bert_variant(num_layers=12)
        large = build_bert_variant(num_layers=24, hidden=1024)
        assert distil.total_flops < base.total_flops < large.total_flops
        for model in (distil, base, large):
            assert not model.npu_supported()

    def test_bert_variant_validation(self):
        with pytest.raises(ValueError):
            build_bert_variant(num_layers=0)

    def test_vit_variants(self):
        tiny = build_vit_variant(hidden=192)
        base = build_vit_variant(hidden=768)
        assert tiny.total_flops < base.total_flops
        assert tiny.npu_supported()

    def test_vit_patch_validation(self):
        with pytest.raises(ValueError):
            build_vit_variant(patch=15)

    def test_variants_plan_end_to_end(self, kirin):
        planner = Hetero2PipePlanner(kirin)
        models = [build_resnet(18), build_bert_variant(6), build_vit_variant(hidden=192)]
        report = planner.plan(models)
        report.plan.validate()
        result = execute_plan(report.plan)
        assert result.num_requests == 3


class TestCacheModel:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            CacheLevel("L1", 0)
        with pytest.raises(ValueError):
            CacheHierarchy(
                l1=CacheLevel("L1", 1e6), l2=CacheLevel("L2", 1e5)
            )

    def test_resident_fraction(self):
        assert resident_fraction(1e6, 2e6) == 1.0
        assert resident_fraction(2e6, 1e6) == 0.5

    def test_reuse_hit_rate_bounds(self):
        assert reuse_hit_rate(1e3, 1e6, 10) <= 1.0
        assert reuse_hit_rate(1e9, 1e6, 10) >= 0.0
        with pytest.raises(ValueError):
            reuse_hit_rate(1e6, 1e6, 0.5)

    def test_fits_in_cache_no_amplification(self):
        hierarchy = make_big_core_hierarchy()
        assert gemm_amplification(0.5e6, hierarchy) == 1.0

    def test_overflow_amplifies(self):
        hierarchy = make_big_core_hierarchy()
        assert gemm_amplification(16e6, hierarchy) > 1.5

    def test_amplification_monotone_in_working_set(self):
        hierarchy = make_big_core_hierarchy()
        values = [gemm_amplification(w, hierarchy) for w in (1e6, 4e6, 16e6, 64e6)]
        assert values == sorted(values)

    def test_consistent_with_heuristic(self, kirin):
        # The first-principles GEMM amplification tracks the latency
        # model's sqrt heuristic within 2x over the relevant range.
        from repro.models.ir import Layer, OpType

        hierarchy = make_big_core_hierarchy(kirin.cpu_big.l2_cache_bytes)
        for weights in (2e6, 8e6, 32e6):
            layer = Layer(
                name="x", op=OpType.MATMUL, flops=1e9,
                weight_bytes=weights, activation_bytes=1e5, output_bytes=1e4,
            )
            heuristic = traffic_amplification(layer, kirin.cpu_big)
            derived = gemm_amplification(weights, hierarchy)
            assert 0.5 <= derived / heuristic <= 2.0

    def test_dram_traffic_cold_pass(self):
        hierarchy = make_big_core_hierarchy()
        w = 10e6
        assert dram_traffic_bytes(w, hierarchy, reuses=1.0) == pytest.approx(w)

    def test_access_latency_grows_with_working_set(self):
        hierarchy = make_big_core_hierarchy()
        small = average_access_latency_ns(32e3, hierarchy)
        large = average_access_latency_ns(64e6, hierarchy)
        assert large > small


class TestCoupledPlanning:
    def test_pressures_zero_for_single_request(self, kirin, profiler):
        profile = profiler.profile(get_model("vit"))
        pressures = expected_pressures(kirin, [profile], profile)
        assert all(v == 0.0 for v in pressures.values())

    def test_coupled_partition_valid(self, kirin, profiler):
        profiles = [profiler.profile(get_model(n)) for n in ("bert", "vit")]
        pressures = expected_pressures(kirin, profiles, profiles[0])
        result = partition_model_coupled(
            profiles[0], kirin.processors, pressures
        )
        covered = sum(
            s[1] - s[0] + 1 for s in result.slices if s is not None
        )
        assert covered == profiles[0].model.num_layers

    def test_two_step_not_worse_than_coupled(self, kirin, profiler):
        # The paper's design claim: the two-step decomposition matches
        # or beats the contention-coupled single-step formulation.
        from repro.workloads.generator import sample_combinations

        planner = Hetero2PipePlanner(kirin)
        wins = 0
        total = 0
        for spec in sample_combinations(count=5, seed=17):
            models = spec.models()
            coupled = execute_plan(
                plan_coupled(kirin, models, profiler)
            ).makespan_ms
            h2p = execute_plan(planner.plan(models).plan).makespan_ms
            total += 1
            if h2p <= coupled * 1.001:
                wins += 1
        assert wins >= total - 1

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            plan_coupled(kirin, [])


class TestCharts:
    def test_bar_chart_rows(self):
        text = bar_chart([("a", 1.0), ("bb", 2.0)], unit="ms")
        lines = text.splitlines()
        assert len(lines) == 2
        assert "ms" in lines[0]

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart([])
        with pytest.raises(ValueError):
            bar_chart([("a", -1.0)])
        with pytest.raises(ValueError):
            bar_chart([("a", 1.0)], width=3)

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart(
            [("g1", [("a", 1.0)]), ("g2", [("b", 2.0)])]
        )
        assert "[g1]" in text and "[g2]" in text

    def test_scatter_plot_contains_markers(self):
        text = scatter_plot([(0, 0), (1, 1), (2, 4)], width=20, height=8)
        assert "o" in text

    def test_scatter_validation(self):
        with pytest.raises(ValueError):
            scatter_plot([])
        with pytest.raises(ValueError):
            scatter_plot([(0, 0)], width=3)

    def test_step_series(self):
        text = step_series([(0, 451), (10, 1866), (20, 1866)], label="MHz")
        assert "#" in text
        with pytest.raises(ValueError):
            step_series([])

"""Tests for the baseline scheme implementations."""

import pytest

from repro.baselines.annealing import AnnealingConfig, anneal_plan
from repro.baselines.band import (
    execute_band,
    plan_band,
    segment_by_npu_support,
)
from repro.baselines.exhaustive import candidate_assignments, exhaustive_plan
from repro.baselines.mnn_serial import plan_mnn_serial, serial_latency_ms
from repro.baselines.pipe_it import local_search_split, plan_pipe_it
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import execute_plan
from repro.runtime.executor import async_makespan_ms


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


MIXED = ["yolov4", "bert", "squeezenet", "vit"]


class TestMnnSerial:
    def test_everything_on_cpu_big(self, kirin, profiler):
        plan = plan_mnn_serial(kirin, [get_model(n) for n in MIXED], profiler)
        cpu_stage = [
            k for k, p in enumerate(plan.processors) if p.name == "cpu_big"
        ][0]
        for assignment in plan.assignments:
            occupied = [
                k for k, s in enumerate(assignment.slices) if s is not None
            ]
            assert occupied == [cpu_stage]

    def test_execution_is_serial_sum(self, kirin, profiler):
        models = [get_model(n) for n in MIXED]
        plan = plan_mnn_serial(kirin, models, profiler)
        result = execute_plan(plan)
        assert result.makespan_ms == pytest.approx(
            serial_latency_ms(kirin, models, profiler), rel=1e-6
        )

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            plan_mnn_serial(kirin, [])


class TestPipeIt:
    def test_split_balances_or_stays_on_big(self, kirin, profiler):
        for name in MIXED:
            profile = profiler.profile(get_model(name))
            cut, makespan = local_search_split(profile, kirin)
            whole_big = profile.whole_model_ms(kirin.cpu_big)
            assert makespan <= whole_big + 1e-9
            if cut is not None:
                assert 1 <= cut < profile.model.num_layers

    def test_plan_uses_two_cpu_stages(self, kirin, profiler):
        plan = plan_pipe_it(kirin, [get_model(n) for n in MIXED], profiler)
        assert [p.name for p in plan.processors] == ["cpu_big", "cpu_small"]
        plan.validate()

    def test_executes(self, kirin, profiler):
        plan = plan_pipe_it(kirin, [get_model(n) for n in MIXED], profiler)
        result = execute_plan(plan)
        assert result.makespan_ms > 0

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            plan_pipe_it(kirin, [])


class TestBand:
    def test_segmentation_of_supported_model(self):
        segments = segment_by_npu_support(get_model("vit"))
        assert len(segments) == 1
        assert segments[0].npu_supported

    def test_segmentation_of_bert(self):
        segments = segment_by_npu_support(get_model("bert"))
        # embedding + encoders unsupported, pooler supported.
        assert any(not s.npu_supported for s in segments)
        total = sum(s.end - s.start + 1 for s in segments)
        assert total == get_model("bert").num_layers

    def test_segments_are_contiguous(self):
        for name in MIXED:
            segments = segment_by_npu_support(get_model(name))
            expected = 0
            for seg in segments:
                assert seg.start == expected
                expected = seg.end + 1

    def test_band_never_places_unsupported_on_npu(self, kirin, profiler):
        mapping = plan_band(kirin, [get_model(n) for n in MIXED], profiler)
        for chain, model_name in zip(mapping.chains, MIXED):
            model = get_model(model_name)
            for task in chain:
                if task.proc.name == "npu":
                    assert task.workload is not None
                    layers = model.layers[
                        task.workload.start : task.workload.end + 1
                    ]
                    assert all(layer.npu_supported() for layer in layers)

    def test_band_spreads_over_processors(self, kirin, profiler):
        # With enough identical requests the NPU queue exceeds the CPU's
        # solo latency and EFT starts spilling onto other processors.
        mapping = plan_band(
            kirin, [get_model("resnet50")] * 12, profiler
        )
        used = {
            task.proc.name for chain in mapping.chains for task in chain
        }
        assert len(used) >= 2

    def test_band_beats_serial(self, kirin, profiler):
        models = [get_model(n) for n in MIXED]
        band = execute_band(kirin, models, profiler).makespan_ms
        serial = serial_latency_ms(kirin, models, profiler)
        assert band < serial

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            plan_band(kirin, [])


class TestExhaustive:
    def test_candidates_include_dp_and_singles(self, kirin, profiler):
        profile = profiler.profile(get_model("vit"))
        options = candidate_assignments(profile, tuple(kirin.processors))
        assert len(options) >= 2
        for option in options:
            option.validate()

    def test_exhaustive_at_least_matches_h2p(self, kirin, profiler):
        models = [get_model(n) for n in ["vit", "resnet50", "squeezenet"]]
        planner = Hetero2PipePlanner(kirin)
        h2p = async_makespan_ms(planner.plan(models).plan)
        _, best = exhaustive_plan(kirin, models, profiler)
        assert best <= h2p * 1.05  # exhaustive+polish is the reference

    def test_too_large_instance_rejected(self, kirin, profiler):
        import repro.baselines.exhaustive as ex

        old = ex.MAX_CANDIDATES
        ex.MAX_CANDIDATES = 2
        try:
            with pytest.raises(ValueError):
                exhaustive_plan(
                    kirin, [get_model("vit")] * 3, profiler
                )
        finally:
            ex.MAX_CANDIDATES = old

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            exhaustive_plan(kirin, [])


class TestAnnealing:
    def test_annealing_returns_valid_plan(self, kirin, profiler):
        models = [get_model(n) for n in MIXED]
        plan, cost = anneal_plan(
            kirin, models, profiler, AnnealingConfig(steps=60, seed=1)
        )
        plan.validate()
        assert cost == pytest.approx(async_makespan_ms(plan))

    def test_annealing_never_worse_than_start(self, kirin, profiler):
        from repro.baselines.annealing import _initial_plan

        models = [get_model(n) for n in MIXED]
        start = async_makespan_ms(_initial_plan(kirin, models, profiler))
        _, cost = anneal_plan(
            kirin, models, profiler, AnnealingConfig(steps=80, seed=3)
        )
        assert cost <= start + 1e-6

    def test_deterministic_for_fixed_seed(self, kirin, profiler):
        models = [get_model(n) for n in ["vit", "resnet50"]]
        config = AnnealingConfig(steps=40, seed=9)
        _, a = anneal_plan(kirin, models, profiler, config)
        _, b = anneal_plan(kirin, models, profiler, config)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealingConfig(steps=0)

    def test_empty_rejected(self, kirin):
        with pytest.raises(ValueError):
            anneal_plan(kirin, [])

"""Tests for the scenario catalogue, makespan bounds and the scenario
experiment, plus serialization fuzzing with random models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import MakespanBounds, makespan_lower_bounds
from repro.core.planner import Hetero2PipePlanner
from repro.experiments.ext_scenarios import run as scenarios_run
from repro.hardware.soc import get_soc
from repro.models.ir import Layer, ModelGraph, OpType
from repro.models.serialization import model_from_json, model_to_json
from repro.models.zoo import MODEL_NAMES, get_model
from repro.profiling.profiler import SocProfiler
from repro.runtime.executor import execute_plan
from repro.workloads.scenarios import SCENARIOS, all_scenarios, get_scenario


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


class TestScenarios:
    def test_catalogue_size(self):
        assert len(SCENARIOS) >= 5
        assert len(all_scenarios()) == len(SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("doom_scrolling")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_models_resolve_from_evaluation_zoo(self, name):
        scenario = get_scenario(name)
        models = scenario.models()
        assert len(models) == scenario.num_requests
        for model in models:
            assert model.name in MODEL_NAMES

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_arrivals_match_requests(self, name):
        scenario = get_scenario(name)
        arrivals = scenario.arrivals()
        assert len(arrivals) == scenario.num_requests
        assert arrivals == sorted(arrivals)

    def test_scenarios_plan_end_to_end(self, kirin):
        planner = Hetero2PipePlanner(kirin)
        scenario = get_scenario("video_conference")
        result = execute_plan(planner.plan(scenario.models()).plan)
        assert result.num_requests == scenario.num_requests


class TestBounds:
    def test_bounds_below_any_execution(self, kirin):
        planner = Hetero2PipePlanner(kirin)
        for name in ("scene_understanding", "smart_camera"):
            models = get_scenario(name).models()
            bounds = makespan_lower_bounds(kirin, models)
            achieved = execute_plan(planner.plan(models).plan).makespan_ms
            assert achieved >= bounds.lower_bound_ms - 1e-6

    def test_chain_bound_is_best_single_model(self, kirin):
        profiler = SocProfiler(kirin)
        models = [get_model("yolov4"), get_model("squeezenet")]
        bounds = makespan_lower_bounds(kirin, models, profiler)
        yolo = profiler.profile(get_model("yolov4"))
        best_yolo = min(
            yolo.whole_model_ms(p)
            for p in kirin.processors
            if yolo.feasible(p, 0, yolo.model.num_layers - 1)
        )
        assert bounds.chain_bound_ms == pytest.approx(best_yolo)

    def test_work_bound_scales_with_requests(self, kirin):
        one = makespan_lower_bounds(kirin, [get_model("resnet50")])
        four = makespan_lower_bounds(kirin, [get_model("resnet50")] * 4)
        assert four.work_bound_ms == pytest.approx(4 * one.work_bound_ms)

    def test_gap_validation(self):
        bounds = MakespanBounds(work_bound_ms=100.0, chain_bound_ms=50.0)
        assert bounds.lower_bound_ms == 100.0
        assert bounds.gap(150.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            bounds.gap(50.0)

    def test_empty_workload_rejected(self, kirin):
        with pytest.raises(ValueError):
            makespan_lower_bounds(kirin, [])


class TestScenarioExperiment:
    def test_h2p_dominates_serial_everywhere(self, kirin):
        rows = scenarios_run()
        for row in rows:
            assert row.h2p_ms < row.mnn_ms
            assert row.h2p_ms >= row.lower_bound_ms


# --- serialization fuzzing -------------------------------------------------

_OPS = list(OpType)


@st.composite
def random_model(draw):
    n = draw(st.integers(1, 10))
    layers = []
    for i in range(n):
        layers.append(
            Layer(
                name=f"layer{i}",
                op=_OPS[draw(st.integers(0, len(_OPS) - 1))],
                flops=draw(st.floats(0, 1e9, allow_nan=False)),
                weight_bytes=draw(st.floats(0, 1e8, allow_nan=False)),
                activation_bytes=draw(st.floats(0, 1e8, allow_nan=False)),
                output_bytes=draw(st.floats(0, 1e7, allow_nan=False)),
                output_shape=tuple(
                    draw(
                        st.lists(st.integers(1, 64), min_size=0, max_size=3)
                    )
                ),
            )
        )
    return ModelGraph(
        name=draw(st.text(min_size=1, max_size=12)),
        layers=tuple(layers),
        family=draw(st.sampled_from(["cnn", "transformer", "detector"])),
        input_bytes=draw(st.floats(0, 1e7, allow_nan=False)),
    )


class TestSerializationFuzz:
    @given(random_model())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_any_model(self, model):
        restored = model_from_json(model_to_json(model))
        assert restored.name == model.name
        assert restored.family == model.family
        assert restored.num_layers == model.num_layers
        for a, b in zip(model.layers, restored.layers):
            assert a.op == b.op
            assert a.flops == pytest.approx(b.flops)
            assert a.output_shape == b.output_shape

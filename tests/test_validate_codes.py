"""One minimally-broken plan per ``core.validate`` violation code; a sweep
that plans every zoo model alone and all ten together on every SoC under
every planner configuration and validates each plan; and a hypothesis
property: planner-produced plans always validate clean, replay from their
provenance, and do not depend on the planner's caches."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.objective import plan_fingerprint
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.core.plan import PipelinePlan, StageAssignment
from repro.core.validate import validate_plan
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.profiling.profiler import SocProfiler


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


def _raw_assignment(profiler, name, slices):
    # Bypass __post_init__ so intentionally-broken slices survive.
    assignment = StageAssignment.__new__(StageAssignment)
    assignment.profile = profiler.profile(get_model(name))
    assignment.slices = list(slices)
    return assignment


def _raw_plan(kirin, profiler, slices_per_model, order=()):
    return PipelinePlan(
        soc=kirin,
        processors=tuple(kirin.processors),
        assignments=[
            _raw_assignment(profiler, name, slices)
            for name, slices in slices_per_model
        ],
        order=tuple(order),
    )


def _codes(plan):
    return {v.code for v in validate_plan(plan)}


class TestEveryViolationCode:
    def test_unknown_processor(self, kirin, profiler):
        # Rename one pipeline stage to a processor the SoC doesn't have.
        alien = dataclasses.replace(kirin.processors[0], name="dsp")
        n = get_model("alexnet").num_layers
        plan = PipelinePlan(
            soc=kirin,
            processors=(alien,) + tuple(kirin.processors[1:]),
            assignments=[
                _raw_assignment(
                    profiler, "alexnet", [(0, n - 1), None, None, None]
                )
            ],
        )
        assert "unknown-processor" in _codes(plan)

    def test_bad_order(self, kirin, profiler):
        n = get_model("alexnet").num_layers
        plan = _raw_plan(
            kirin,
            profiler,
            [("alexnet", [(0, n - 1), None, None, None])],
            order=(1,),  # not a permutation of {0}
        )
        assert "bad-order" in _codes(plan)

    def test_gap_or_overlap(self, kirin, profiler):
        n = get_model("vgg16").num_layers
        plan = _raw_plan(
            kirin, profiler, [("vgg16", [(0, 2), (4, n - 1), None, None])]
        )
        assert "gap-or-overlap" in _codes(plan)

    def test_bad_slice(self, kirin, profiler):
        n = get_model("vgg16").num_layers
        plan = _raw_plan(
            kirin, profiler, [("vgg16", [(0, n), None, None, None])]
        )
        assert "bad-slice" in _codes(plan)

    def test_incomplete_cover(self, kirin, profiler):
        plan = _raw_plan(
            kirin, profiler, [("vgg16", [(0, 3), None, None, None])]
        )
        assert "incomplete-cover" in _codes(plan)

    def test_unsupported_operator(self, kirin, profiler):
        # YOLOv4 contains NPU-unsupported ops; force it onto the NPU.
        npu_stage = next(
            k for k, p in enumerate(kirin.processors) if p.name == "npu"
        )
        n = get_model("yolov4").num_layers
        slices = [None] * len(kirin.processors)
        slices[npu_stage] = (0, n - 1)
        plan = _raw_plan(kirin, profiler, [("yolov4", slices)])
        assert "unsupported-operator" in _codes(plan)

    def test_memory_capacity(self, kirin, profiler):
        tiny = dataclasses.replace(kirin, memory_capacity_bytes=1e6)
        n = get_model("vgg16").num_layers
        plan = PipelinePlan(
            soc=tiny,
            processors=tuple(kirin.processors),
            assignments=[
                _raw_assignment(
                    profiler, "vgg16", [(0, n - 1), None, None, None]
                )
            ],
        )
        assert "memory-capacity" in _codes(plan)


_PLANNERS = {}


#: The planner configurations the zoo sweep plans under.
CONFIGS = {
    "default": PlannerConfig(),
    "no_ct": PlannerConfig.no_contention_or_tail(),
    "no_steal": PlannerConfig(enable_work_stealing=False),
}

#: Each zoo model alone, then all ten in one pipeline, which exercises
#: the Constraint 6 co-residency diagonals across a full model mix.
ZOO_WORKLOADS = [(name,) for name in MODEL_NAMES] + [tuple(MODEL_NAMES)]


def _planner(soc_name, config_key, cached=True):
    key = (soc_name, config_key, cached)
    if key not in _PLANNERS:
        config = dataclasses.replace(CONFIGS[config_key], enable_caches=cached)
        soc = get_soc(soc_name)
        # Reuse one estimator per SoC across configs: fitting dominates.
        donor = next(
            (p for (s, _, _), p in _PLANNERS.items() if s == soc_name), None
        )
        estimator = donor.estimator if donor is not None else None
        _PLANNERS[key] = Hetero2PipePlanner(soc, config, estimator=estimator)
    return _PLANNERS[key]


class TestZooSweepValidates:
    """3 SoCs x 3 configurations x 11 workloads: 99 cold plans."""

    @pytest.mark.parametrize("config_key", list(CONFIGS))
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_zoo_plans_validate(self, soc_name, config_key):
        planner = _planner(soc_name, config_key)
        for names in ZOO_WORKLOADS:
            planner.invalidate_caches()
            plan = planner.plan([get_model(n) for n in names]).plan
            assert validate_plan(plan) == [], f"{soc_name}/{config_key}/{names}"


class TestPlannerPlansAlwaysValidate:
    @given(
        soc_name=st.sampled_from(SOC_NAMES),
        model_names=st.lists(
            st.sampled_from(MODEL_NAMES), min_size=1, max_size=4
        ),
        config_key=st.sampled_from(["default", "no_ct"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_plan_validates_clean(self, soc_name, model_names, config_key):
        planner = _planner(soc_name, config_key)
        planner.invalidate_caches()  # a plan-cache hit records no events
        models = [get_model(n) for n in model_names]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            report = planner.plan(models)
        plan = report.plan
        assert validate_plan(plan) == []

        order, slices = obs.reconstruct_plan(rec.events)
        assert order == plan.order
        assert list(slices) == [tuple(a.slices) for a in plan.assignments]
        for event in rec.events:
            if isinstance(event, obs.LayerStolen) and event.phase == "global-refine":
                assert event.gain_ms > 0
            if isinstance(event, (obs.PlacementChanged, obs.TailReplaced)):
                assert event.makespan_after_ms < event.makespan_before_ms

        uncached = _planner(soc_name, config_key, cached=False).plan(models)
        assert plan_fingerprint(uncached.plan) == plan_fingerprint(plan)

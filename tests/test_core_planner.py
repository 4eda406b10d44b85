"""End-to-end tests of the Hetero2Pipe planner facade."""

import pytest

from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.runtime.executor import execute_plan
from repro.runtime.executor import async_makespan_ms


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def planner(kirin):
    return Hetero2PipePlanner(kirin)


MIXED = ["yolov4", "bert", "squeezenet", "resnet50", "vit"]


class TestPlannerBasics:
    def test_empty_request_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.plan([])

    def test_single_model_plan(self, planner):
        report = planner.plan([get_model("resnet50")])
        report.plan.validate()
        assert report.plan.num_requests == 1
        assert len(report.partitions) == 1
        assert len(report.scores) == 1

    def test_plan_is_valid_and_executable(self, planner):
        report = planner.plan([get_model(n) for n in MIXED])
        report.plan.validate()
        result = execute_plan(report.plan)
        assert result.makespan_ms > 0
        assert result.num_requests == len(MIXED)

    def test_order_is_permutation(self, planner):
        report = planner.plan([get_model(n) for n in MIXED])
        assert sorted(report.plan.order) == list(range(len(MIXED)))

    def test_scores_follow_input_order(self, planner):
        report = planner.plan([get_model(n) for n in MIXED])
        assert [s.model_name for s in report.scores] == MIXED

    def test_report_contains_partitions_per_model(self, planner):
        report = planner.plan([get_model(n) for n in MIXED])
        for name, partition in zip(MIXED, report.partitions):
            n_layers = get_model(name).num_layers
            covered = sum(
                s[1] - s[0] + 1 for s in partition.slices if s is not None
            )
            assert covered == n_layers


class TestAblations:
    def test_no_ct_config(self):
        config = PlannerConfig.no_contention_or_tail()
        assert not config.enable_mitigation
        assert not config.enable_tail_optimization
        assert config.enable_work_stealing

    def test_full_never_worse_than_no_ct(self, kirin, planner):
        no_ct = Hetero2PipePlanner(kirin, PlannerConfig.no_contention_or_tail())
        models = [get_model(n) for n in MIXED]
        full_cost = async_makespan_ms(planner.plan(models).plan)
        no_ct_cost = async_makespan_ms(no_ct.plan(models).plan)
        assert full_cost <= no_ct_cost + 1e-6

    def test_stealing_disabled_still_plans(self, kirin):
        config = PlannerConfig(
            enable_work_stealing=False,
            enable_mitigation=False,
            enable_tail_optimization=False,
        )
        planner = Hetero2PipePlanner(kirin, config)
        report = planner.plan([get_model(n) for n in MIXED])
        report.plan.validate()
        assert report.stealing_moves == 0

    def test_tail_only_config(self, kirin):
        config = PlannerConfig(
            enable_work_stealing=False, enable_mitigation=False
        )
        planner = Hetero2PipePlanner(kirin, config)
        report = planner.plan([get_model(n) for n in MIXED])
        report.plan.validate()

    def test_mitigation_only_accepted_when_beneficial(self, kirin, planner):
        # With mitigation enabled the planner must return the better of
        # the arrival order and the mitigated order.
        models = [get_model(n) for n in MIXED]
        no_mit = Hetero2PipePlanner(
            kirin, PlannerConfig(enable_mitigation=False)
        )
        with_mit = planner.plan(models)
        without = no_mit.plan(models)
        assert async_makespan_ms(with_mit.plan) <= async_makespan_ms(
            without.plan
        ) + 1e-6


class TestCrossSoc:
    @pytest.mark.parametrize(
        "soc_name", ["kirin990", "snapdragon778g", "snapdragon870"]
    )
    def test_plans_on_all_platforms(self, soc_name):
        soc = get_soc(soc_name)
        planner = Hetero2PipePlanner(soc)
        report = planner.plan([get_model(n) for n in MIXED])
        report.plan.validate()
        result = execute_plan(report.plan)
        assert result.makespan_ms > 0

    def test_snapdragon_plan_has_no_npu_stage(self):
        soc = get_soc("snapdragon870")
        planner = Hetero2PipePlanner(soc)
        report = planner.plan([get_model("vit"), get_model("resnet50")])
        names = {p.name for p in report.plan.processors}
        assert "npu" not in names


class TestBeatsSerial:
    def test_multi_model_beats_serial_cpu(self, kirin, planner):
        from repro.baselines.mnn_serial import plan_mnn_serial

        models = [get_model(n) for n in MIXED]
        h2p = execute_plan(planner.plan(models).plan).makespan_ms
        serial = execute_plan(plan_mnn_serial(kirin, models)).makespan_ms
        assert h2p < serial / 1.5  # comfortably faster

"""Tests for the discrete-event engine, arrival processes and the
legacy-executor equivalence guarantee."""

import dataclasses
import itertools
import json
import math
import time

import pytest

from repro import obs
from repro.core.planner import Hetero2PipePlanner
from repro.core.stealing import move_boundary_layer, single_processor_assignment
from repro.hardware.processor import make_gpu
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.obs.blame import blame_requests
from repro.runtime._legacy_executor import legacy_simulate_chains
from repro.runtime.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    make_arrival_process,
    resolve_arrivals,
)
from repro.profiling.profiler import SocProfiler
from repro.profiling.slowdown import (
    MAX_SLOWDOWN,
    SliceWorkload,
    slowdown_fraction,
)
from repro.runtime.engine import (
    ARRIVAL,
    CANCELLATION,
    DEPARTURE,
    PREEMPTION,
    TASK_READY,
    ChainTask,
    DiscreteEventEngine,
    ExecutionResult,
    ProbeRun,
    TaskRecord,
)
from repro.runtime.executor import (
    plan_to_chains,
    replicate_chains,
    simulate_chains,
)
from repro.runtime.replay import run_from_dict, run_to_dict
from repro.workloads.scenarios import get_scenario


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def zoo_plans():
    """The full model zoo planned on every SoC: the equivalence grid."""
    models = [get_model(name) for name in MODEL_NAMES]
    return {
        name: Hetero2PipePlanner(get_soc(name)).plan(models).plan
        for name in SOC_NAMES
    }


@pytest.fixture(scope="module")
def vit_resnet_plan(kirin):
    return Hetero2PipePlanner(kirin).plan(
        [get_model("vit"), get_model("resnet50")]
    ).plan


def _task(soc, request, solo_ms, proc_idx=0, working_set=0.0):
    return ChainTask(
        request=request,
        proc=soc.processors[proc_idx],
        solo_ms=solo_ms,
        workload=None,
        working_set=working_set,
    )


def _assert_results_equal(engine, legacy, tol=1e-9, label=""):
    assert [
        (r.request, r.stage, r.processor) for r in engine.records
    ] == [(r.request, r.stage, r.processor) for r in legacy.records], label
    for rec_e, rec_l in zip(engine.records, legacy.records):
        assert abs(rec_e.start_ms - rec_l.start_ms) <= tol, label
        assert abs(rec_e.finish_ms - rec_l.finish_ms) <= tol, label
    assert engine.request_finish_ms == pytest.approx(
        legacy.request_finish_ms, abs=tol
    ), label
    assert abs(engine.makespan_ms - legacy.makespan_ms) <= tol, label
    assert engine.memory_pressure_events == legacy.memory_pressure_events, label
    assert len(engine.trace) == len(legacy.trace), label


def _assert_grid_matches_legacy(zoo_plans, shared=None, engine_only=None):
    """Diff the engine against the legacy loop on every SoC's zoo plan.

    ``shared(plan)`` gives the kwargs both simulators take; the
    ``engine_only`` kwargs are switches the legacy loop never had.
    Returns the engine results by SoC.
    """
    results = {}
    for soc_name, plan in zoo_plans.items():
        kwargs = shared(plan) if shared else {}
        engine = simulate_chains(
            plan.soc,
            plan_to_chains(plan),
            record=False,
            **kwargs,
            **(engine_only or {}),
        )
        legacy = legacy_simulate_chains(plan.soc, plan_to_chains(plan), **kwargs)
        _assert_results_equal(engine, legacy, label=soc_name)
        results[soc_name] = engine
    return results


class TestGoldenEquivalence:
    """The engine must reproduce the frozen legacy loop exactly.

    Every simulation variant runs on the full model zoo planned on all
    three SoCs; record streams, finish times and makespans must agree
    within 1e-9 ms (in practice the divergence is exactly 0.0).
    """

    def test_closed_loop(self, zoo_plans):
        _assert_grid_matches_legacy(zoo_plans)

    def test_staggered_arrivals(self, zoo_plans):
        _assert_grid_matches_legacy(
            zoo_plans,
            lambda plan: {
                "arrivals": [12.5 * i for i in range(len(plan.assignments))]
            },
        )

    def test_no_contention(self, zoo_plans):
        _assert_grid_matches_legacy(
            zoo_plans, lambda plan: {"with_contention": False}
        )

    def test_traced_run(self, zoo_plans):
        results = _assert_grid_matches_legacy(
            zoo_plans, lambda plan: {"trace": True}
        )
        # Both sampled the same, non-zero number of edges.
        assert all(result.trace for result in results.values())

    def test_fault_injection(self, zoo_plans):
        _assert_grid_matches_legacy(
            zoo_plans,
            lambda plan: {
                "processor_offline_ms": {plan.processors[0].name: 15.0}
            },
        )

    def test_objective_probe(self, zoo_plans):
        # The planner's probe: no memory gate, no causality tracking.
        _assert_grid_matches_legacy(
            zoo_plans,
            lambda plan: {"enforce_memory": False},
            engine_only={"track_causality": False},
        )

    def test_chain_task_ids_must_match_position(self, kirin):
        # Swapped ids: the engine used to run both chains' first slices
        # as request 0's and never finish request 1.
        swapped = [
            [_task(kirin, 1, 5.0, proc_idx=2)],
            [_task(kirin, 0, 3.0, proc_idx=1)],
        ]
        with pytest.raises(ValueError, match="chain 0 holds a task of request 1"):
            DiscreteEventEngine(kirin, swapped, record=False)

    def test_chain_task_id_out_of_range(self, kirin):
        # Used to escape as a bare IndexError from the state arrays.
        chains = [[_task(kirin, 0, 1.0)], [_task(kirin, 5, 1.0)]]
        with pytest.raises(ValueError, match="chain 1 holds a task of request 5"):
            DiscreteEventEngine(kirin, chains, record=False)

    def test_validation_errors_match_legacy(self, kirin):
        with pytest.raises(ValueError, match="arrival times"):
            simulate_chains(
                kirin, [[_task(kirin, 0, 1.0)]], arrivals=[0.0, 1.0]
            )
        huge = kirin.memory_capacity_bytes * 2.0
        with pytest.raises(MemoryError, match="alone"):
            simulate_chains(
                kirin, [[_task(kirin, 0, 1.0, working_set=huge)]]
            )


class TestEpsilonFix:
    """The deliberate divergence: no starts before the arrival time."""

    def test_arrival_within_eps_of_edge(self, kirin):
        # Request 1 arrives 0.5e-9 after request 0's completion edge at
        # t=10.  The legacy scan treats it as already arrived at t=10
        # and starts it *before* its own arrival (negative queueing
        # delay); the engine advances now to the arrival timestamp.
        arrival = 10.0 + 0.5e-9
        chains = [[_task(kirin, 0, 10.0)], [_task(kirin, 1, 10.0)]]
        legacy = legacy_simulate_chains(
            kirin,
            [[_task(kirin, 0, 10.0)], [_task(kirin, 1, 10.0)]],
            arrivals=[0.0, arrival],
        )
        legacy_start = min(
            r.start_ms for r in legacy.records if r.request == 1
        )
        assert legacy_start < arrival  # the legacy bug, pinned

        engine = simulate_chains(
            kirin, chains, arrivals=[0.0, arrival], record=False
        )
        assert engine.first_start_ms(1) >= arrival
        assert engine.queueing_delay_ms(1) >= 0.0

    def test_queueing_delays_nonnegative_by_construction(self, kirin):
        chains = [[_task(kirin, i, 5.0)] for i in range(6)]
        result = simulate_chains(
            kirin,
            chains,
            arrivals=PoissonArrivals(3.0, seed=11),
            record=False,
        )
        assert all(d >= 0.0 for d in result.queueing_delays_ms())


class TestArrivalProcesses:
    def test_deterministic_periodic(self):
        assert DeterministicArrivals(10.0).times_ms(4) == [
            0.0,
            10.0,
            20.0,
            30.0,
        ]

    def test_poisson_seeded_and_monotone(self):
        a = PoissonArrivals(10.0, seed=3).times_ms(50)
        b = PoissonArrivals(10.0, seed=3).times_ms(50)
        c = PoissonArrivals(10.0, seed=4).times_ms(50)
        assert a == b  # same seed replays identically
        assert a != c
        assert a == sorted(a)
        assert all(t > 0 for t in a)
        mean_gap = a[-1] / len(a)
        assert 5.0 < mean_gap < 20.0  # crude sanity on the rate

    def test_resolve_arrivals(self):
        assert resolve_arrivals(3, None) == [0.0, 0.0, 0.0]
        assert resolve_arrivals(2, [1.0, 2.0]) == [1.0, 2.0]
        assert resolve_arrivals(2, DeterministicArrivals(4.0)) == [0.0, 4.0]
        with pytest.raises(ValueError, match="expected 2"):
            resolve_arrivals(2, [1.0])

    def test_factory(self):
        assert make_arrival_process("closed") is None
        assert isinstance(
            make_arrival_process("poisson", seed=1), PoissonArrivals
        )
        assert isinstance(
            make_arrival_process("periodic"), DeterministicArrivals
        )
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrival_process("bursty")
        with pytest.raises(ValueError, match="trace"):
            make_arrival_process("trace")

    def test_base_process_is_closed_loop(self):
        assert ArrivalProcess().times_ms(3) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
    def test_processes_reject_bad_intervals(self, interval):
        with pytest.raises(ValueError, match="interval"):
            DeterministicArrivals(interval)
        with pytest.raises(ValueError, match="interval"):
            PoissonArrivals(interval)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_engine_rejects_non_finite_arrival(self, vit_resnet_plan, bad):
        # Either used to wedge the engine or report an infinite makespan.
        chains = plan_to_chains(vit_resnet_plan)
        with pytest.raises(ValueError, match="arrival time of request 1"):
            DiscreteEventEngine(vit_resnet_plan.soc, chains, arrivals=[0.0, bad])


class TestDeadlines:
    def test_deadline_drop_when_start_is_late(self, kirin):
        # Single processor: request 1 queues behind a 50 ms slice and
        # cannot start within its 10 ms deadline.
        chains = [[_task(kirin, 0, 50.0)], [_task(kirin, 1, 50.0)]]
        result = simulate_chains(
            kirin,
            chains,
            arrivals=[0.0, 1.0],
            deadline_ms=[None, 10.0],
            record=False,
        )
        assert result.dropped_requests == (1,)
        assert result.deadline_drops == 1
        assert result.num_completed == 1
        assert result.completed_requests() == [0]
        assert result.request_finish_ms[1] == pytest.approx(11.0)
        assert result.queueing_delay_ms(1) is None
        # Dropped requests carry no completion latency.
        assert result.latency_percentile_ms(100.0) == pytest.approx(50.0)

    def test_deadline_met_does_not_drop(self, kirin):
        chains = [[_task(kirin, 0, 5.0)], [_task(kirin, 1, 5.0)]]
        result = simulate_chains(
            kirin,
            chains,
            arrivals=[0.0, 1.0],
            deadline_ms=30.0,
            record=False,
        )
        assert result.dropped_requests == ()
        assert result.num_completed == 2

    def test_deadline_guards_start_not_finish(self, kirin):
        # The drop condition is "first slice unstarted by the deadline";
        # a request that started in time may finish after it.
        chains = [[_task(kirin, 0, 40.0)]]
        result = simulate_chains(
            kirin, chains, deadline_ms=10.0, record=False
        )
        assert result.dropped_requests == ()
        assert result.request_finish_ms[0] == pytest.approx(40.0)

    def test_deadline_validation(self, kirin):
        chains = [[_task(kirin, 0, 1.0)]]
        with pytest.raises(ValueError, match="deadline"):
            simulate_chains(kirin, chains, deadline_ms=-1.0)
        with pytest.raises(ValueError, match="expected 1 deadline"):
            simulate_chains(kirin, chains, deadline_ms=[1.0, 2.0])

    def test_nan_deadline_rejected(self, vit_resnet_plan):
        # A NaN deadline used to wedge the engine.
        soc = vit_resnet_plan.soc
        for deadline in (math.nan, [None, math.nan]):
            with pytest.raises(ValueError, match="deadline"):
                DiscreteEventEngine(
                    soc, plan_to_chains(vit_resnet_plan), deadline_ms=deadline
                )

    def test_infinite_deadline_means_none(self, vit_resnet_plan):
        soc = vit_resnet_plan.soc
        arrivals = [0.0, 50.0]
        free = simulate_chains(soc, plan_to_chains(vit_resnet_plan), arrivals)
        result = simulate_chains(
            soc, plan_to_chains(vit_resnet_plan), arrivals, deadline_ms=math.inf
        )
        assert result.dropped_requests == ()
        assert result.makespan_ms == free.makespan_ms

    def test_all_dropped_has_no_latency(self, kirin):
        chains = [[_task(kirin, 0, 5.0)]]
        result = simulate_chains(
            kirin, chains, arrivals=[5.0], deadline_ms=0.0, record=False
        )
        # Deadline 0 at arrival 5: the cancellation fires at t=5 before
        # any slice starts (events pop before scheduling each step).
        assert result.dropped_requests == (0,)
        with pytest.raises(ValueError, match="no completed"):
            result.latency_percentile_ms(50.0)
        assert result.throughput_per_s == 0.0


class TestCancellationAndPreemption:
    def test_user_cancellation_frees_processor(self, kirin):
        chains = [[_task(kirin, 0, 50.0)], [_task(kirin, 1, 10.0)]]
        engine = DiscreteEventEngine(kirin, chains, record=False)
        engine.schedule_cancellation(0, 20.0)
        result = engine.run()
        assert result.cancelled_requests == (0,)
        assert result.dropped_requests == ()  # user cancel, not a drop
        assert result.request_finish_ms[0] == pytest.approx(20.0)
        # Request 1 takes over the freed processor at the cancel edge.
        assert result.request_finish_ms[1] == pytest.approx(30.0)
        assert [r.request for r in result.records] == [1]

    def test_cancellation_releases_memory(self, kirin):
        cap = kirin.memory_capacity_bytes
        chains = [
            [_task(kirin, 0, 50.0, proc_idx=0, working_set=0.7 * cap)],
            [_task(kirin, 1, 10.0, proc_idx=1, working_set=0.6 * cap)],
        ]
        engine = DiscreteEventEngine(kirin, chains, record=False)
        engine.schedule_cancellation(0, 5.0)
        result = engine.run()
        # Request 1 was memory-blocked until the cancellation released
        # request 0's arena — and no forced overcommit was needed.
        assert result.memory_pressure_events == 0
        assert result.first_start_ms(1) == pytest.approx(5.0)

    def test_cancellation_after_finish_is_noop(self, kirin):
        chains = [[_task(kirin, 0, 5.0)]]
        engine = DiscreteEventEngine(kirin, chains, record=False)
        engine.schedule_cancellation(0, 100.0)
        result = engine.run()
        assert result.cancelled_requests == ()
        assert result.request_finish_ms[0] == pytest.approx(5.0)

    def test_cancellation_request_range_checked(self, kirin):
        engine = DiscreteEventEngine(
            kirin, [[_task(kirin, 0, 1.0)]], record=False
        )
        with pytest.raises(ValueError, match="out of range"):
            engine.schedule_cancellation(7, 1.0)

    def test_cancellation_before_arrival_takes_effect_at_arrival(self, kirin):
        # Shrunk from the ready-set invariant property: a cancellation
        # that fired before its request arrived used to stamp a finish
        # time earlier than the arrival (a negative latency and a blame
        # residue of -1 ms), and the later arrival event re-entered the
        # request into the timeline fold for good.
        chains = [[_task(kirin, 0, 1.0)], [_task(kirin, 1, 1.0)]]
        engine = DiscreteEventEngine(
            kirin,
            chains,
            arrivals=[1.0, 0.0],
            record=False,
            keep_events=True,
        )
        engine.schedule_cancellation(0, 0.0)
        result = engine.run()
        assert result.cancelled_requests == (0,)
        assert result.request_finish_ms[0] == 1.0  # withdrawn on arrival
        kinds = [(e.kind, e.request) for e in result.events if e.request == 0]
        assert kinds == [(ARRIVAL, 0), (CANCELLATION, 0)]
        assert all(abs(b.residue_ms) <= 1e-9 for b in blame_requests(result))

    def test_preemption_preserves_progress(self, kirin):
        chains = [[_task(kirin, 0, 50.0)]]
        engine = DiscreteEventEngine(
            kirin, chains, record=False, keep_events=True
        )
        engine.schedule_preemption(0, 10.0)
        result = engine.run()
        # The slice resumes with its remaining work intact (no arena
        # double-charge, no restart from zero): total finish unchanged.
        assert result.request_finish_ms[0] == pytest.approx(50.0)
        assert PREEMPTION in {e.kind for e in result.events}
        [record] = result.records
        assert record.start_ms == pytest.approx(0.0)  # original start kept

    def test_preempted_slice_charges_its_arena_once(self, kirin):
        # A slice holds an arena exactly when it has started, so the
        # resume after a preemption admits and charges nothing more.
        working_set = 0.3 * kirin.memory_capacity_bytes
        chains = [[_task(kirin, 0, 50.0, working_set=working_set)]]
        engine = DiscreteEventEngine(
            kirin, chains, record=False, trace=True, keep_events=True
        )
        engine.schedule_preemption(0, 10.0)
        result = engine.run()
        assert PREEMPTION in {e.kind for e in result.events}
        assert max(p.used_bytes for p in result.trace) == working_set
        assert result.trace[-1].used_bytes == 0.0  # released at departure
        assert result.memory_pressure_events == 0

    def test_preemption_without_running_task_is_noop(self, kirin):
        chains = [[_task(kirin, 0, 5.0)]]
        engine = DiscreteEventEngine(
            kirin, chains, arrivals=[20.0], record=False, keep_events=True
        )
        engine.schedule_preemption(0, 1.0)
        result = engine.run()
        assert PREEMPTION not in {e.kind for e in result.events}
        assert result.request_finish_ms[0] == pytest.approx(25.0)


class TestIncrementalStepping:
    def test_step_snapshots_partial_state(self, kirin):
        # Request 1's arrival at t=5 clips the first step exactly there,
        # so the snapshot after one step shows no completions.
        chains = [[_task(kirin, 0, 10.0)], [_task(kirin, 1, 10.0)]]
        engine = DiscreteEventEngine(
            kirin, chains, arrivals=[0.0, 5.0], record=False
        )
        assert engine.step()  # work remains
        partial = engine.result()
        assert partial.makespan_ms == pytest.approx(5.0)
        assert partial.records == []
        while engine.step():
            pass
        assert not engine.step()  # done: nothing left to step
        assert engine.result().request_finish_ms == pytest.approx(
            [10.0, 20.0]
        )

    def test_engine_is_single_use(self, kirin):
        engine = DiscreteEventEngine(
            kirin, [[_task(kirin, 0, 1.0)]], record=False
        )
        engine.run()
        with pytest.raises(RuntimeError, match="single-use"):
            engine.run()

    def test_event_log_taxonomy(self, kirin):
        chains = [[_task(kirin, 0, 5.0)], [_task(kirin, 1, 5.0)]]
        engine = DiscreteEventEngine(
            kirin,
            chains,
            arrivals=[0.0, 2.0],
            deadline_ms=[None, 1.0],
            record=False,
            keep_events=True,
        )
        result = engine.run()
        kinds = [e.kind for e in result.events]
        assert kinds.count(ARRIVAL) == 2
        assert TASK_READY in kinds
        assert DEPARTURE in kinds
        assert CANCELLATION in kinds  # the deadline drop
        assert all(
            e.time_ms <= later.time_ms
            for e, later in zip(result.events, result.events[1:])
        )

    def test_events_not_kept_by_default(self, kirin):
        result = simulate_chains(
            kirin, [[_task(kirin, 0, 1.0)]], record=False
        )
        assert result.events == []


class TestMemoryResidency:
    """Constraint 6 under staggered arrivals: wait, don't over-admit."""

    def _chains(self, soc):
        cap = soc.memory_capacity_bytes
        return [
            [_task(soc, 0, 10.0, proc_idx=0, working_set=0.7 * cap)],
            [_task(soc, 1, 5.0, proc_idx=1, working_set=0.6 * cap)],
        ]

    @pytest.mark.parametrize(
        "simulate",
        [simulate_chains, legacy_simulate_chains],
        ids=["engine", "legacy"],
    )
    def test_blocked_task_waits_for_drain(self, kirin, simulate):
        # Request 1's processor is free at its arrival (t=2) but
        # 0.7C + 0.6C exceeds capacity: it must wait for request 0's
        # arena to drain at t=10, not deadlock and not over-admit.
        result = simulate(kirin, self._chains(kirin), arrivals=[0.0, 2.0])
        assert result.memory_pressure_events == 0
        start_1 = min(r.start_ms for r in result.records if r.request == 1)
        assert start_1 == pytest.approx(10.0)
        assert result.request_finish_ms[1] == pytest.approx(15.0)

    def test_engine_reports_wait_as_queueing_delay(self, kirin):
        result = simulate_chains(
            kirin, self._chains(kirin), arrivals=[0.0, 2.0], record=False
        )
        assert result.queueing_delay_ms(1) == pytest.approx(8.0)

    @pytest.mark.parametrize(
        "simulate",
        [simulate_chains, legacy_simulate_chains],
        ids=["engine", "legacy"],
    )
    def test_residency_wedge_forces_one_start(self, kirin, simulate):
        # A single request whose second slice cannot fit next to its own
        # held arena: every processor is idle and blocked, so the
        # engine overcommits exactly once and counts the pressure event.
        cap = kirin.memory_capacity_bytes
        chains = [
            [
                _task(kirin, 0, 10.0, proc_idx=0, working_set=0.7 * cap),
                _task(kirin, 0, 10.0, proc_idx=1, working_set=0.4 * cap),
            ]
        ]
        result = simulate(kirin, chains)
        assert result.memory_pressure_events == 1
        assert result.request_finish_ms[0] == pytest.approx(20.0)

    def test_trace_shows_residency_bounded(self, kirin):
        result = simulate_chains(
            kirin,
            self._chains(kirin),
            arrivals=[0.0, 2.0],
            trace=True,
            record=False,
        )
        cap = kirin.memory_capacity_bytes
        assert result.trace
        assert all(p.used_bytes <= cap for p in result.trace)


class TestExecutionResultExtensions:
    def test_first_start_derived_from_records_for_old_archives(self):
        # Results rebuilt from pre-engine archives have no
        # request_first_start_ms field; first starts derive from records.
        result = ExecutionResult(
            records=[
                TaskRecord(0, 0, "gpu", 3.0, 7.0, 4.0),
                TaskRecord(0, 1, "npu", 7.0, 9.0, 2.0),
            ],
            makespan_ms=9.0,
            request_arrival_ms=[1.0],
            request_finish_ms=[9.0],
            trace=[],
            processor_busy_ms={},
        )
        assert result.first_start_ms(0) == pytest.approx(3.0)
        assert result.queueing_delay_ms(0) == pytest.approx(2.0)
        assert result.mean_queueing_delay_ms == pytest.approx(2.0)
        assert result.num_completed == 1

    def test_never_started_request_has_none_delay(self):
        result = ExecutionResult(
            records=[],
            makespan_ms=0.0,
            request_arrival_ms=[0.0],
            request_finish_ms=[0.0],
            trace=[],
            processor_busy_ms={},
        )
        assert result.first_start_ms(0) is None
        assert result.queueing_delay_ms(0) is None
        # Tri-state: None (nothing ever started) is distinguishable
        # from a genuine zero-wait run.
        assert result.mean_queueing_delay_ms is None


class TestTaskRecord:
    """``TaskRecord`` is a named tuple with the dataclass's old contract."""

    def test_positional_fields_and_default(self):
        rec = TaskRecord(0, 0, "gpu", 3.0, 7.0, 4.0)
        assert (rec.request, rec.stage, rec.processor) == (0, 0, "gpu")
        assert (rec.start_ms, rec.finish_ms, rec.solo_ms) == (3.0, 7.0, 4.0)
        assert rec.traffic_bytes == 0.0
        assert TaskRecord._fields == (
            "request",
            "stage",
            "processor",
            "start_ms",
            "finish_ms",
            "solo_ms",
            "traffic_bytes",
        )

    def test_immutable(self):
        rec = TaskRecord(0, 0, "gpu", 3.0, 7.0, 4.0)
        with pytest.raises(AttributeError):
            rec.finish_ms = 9.0  # type: ignore[misc]

    def test_equality_hash_and_properties(self):
        rec = TaskRecord(0, 0, "gpu", 3.0, 7.0, 4.0)
        twin = TaskRecord(
            request=0, stage=0, processor="gpu", start_ms=3.0,
            finish_ms=7.0, solo_ms=4.0, traffic_bytes=0.0,
        )
        assert rec == twin and hash(rec) == hash(twin)
        assert len({rec, twin, TaskRecord(1, 0, "gpu", 3.0, 7.0, 4.0)}) == 2
        assert rec.duration_ms == 4.0
        assert rec.slowdown == 0.0
        assert TaskRecord(0, 0, "gpu", 3.0, 9.0, 4.0).slowdown == 0.5
        assert TaskRecord(0, 0, "gpu", 3.0, 9.0, 0.0).slowdown == 0.0

    def test_replay_round_trip(self, vit_resnet_plan):
        result = simulate_chains(
            vit_resnet_plan.soc, plan_to_chains(vit_resnet_plan), record=False
        )
        assert all(r.traffic_bytes > 0.0 for r in result.records)
        doc = json.loads(json.dumps(run_to_dict(result)))
        rebuilt = run_from_dict(doc).result
        assert rebuilt.records == result.records
        assert all(isinstance(r, TaskRecord) for r in rebuilt.records)
        assert run_to_dict(rebuilt)["records"] == doc["records"]


class TestFaultInputs:
    """``processor_offline_ms`` is checked like every other engine input."""

    def test_unknown_processor_rejected(self, vit_resnet_plan):
        # A typo used to inject no fault and still enable the
        # O(requests) re-route sweep from its time on.
        with pytest.raises(ValueError, match="'foo'.*not on SoC"):
            DiscreteEventEngine(
                vit_resnet_plan.soc,
                plan_to_chains(vit_resnet_plan),
                processor_offline_ms={"foo": 5.0},
            )

    def test_nan_time_rejected(self, vit_resnet_plan):
        with pytest.raises(ValueError, match="NaN"):
            DiscreteEventEngine(
                vit_resnet_plan.soc,
                plan_to_chains(vit_resnet_plan),
                processor_offline_ms={"npu": float("nan")},
            )

    def test_infinite_time_means_never(self, vit_resnet_plan):
        soc = vit_resnet_plan.soc
        healthy = simulate_chains(
            soc, plan_to_chains(vit_resnet_plan), record=False
        )
        never = simulate_chains(
            soc,
            plan_to_chains(vit_resnet_plan),
            record=False,
            processor_offline_ms={"npu": math.inf},
        )
        assert never.records == healthy.records
        assert never.makespan_ms == healthy.makespan_ms


class TestClockOverflow:
    """Solo times that are each finite can still add up past the float
    range; such a run is an input error, whatever else is injected."""

    @staticmethod
    def _gpu_chains(kirin, solo_ms, n):
        gpu = kirin.processor("gpu")
        return [[ChainTask(i, gpu, solo_ms, None, 0.0)] for i in range(n)]

    def test_an_infinite_solo_time_is_rejected(self, kirin):
        chains = self._gpu_chains(kirin, math.inf, 1)
        for run in (DiscreteEventEngine, ProbeRun):
            with pytest.raises(ValueError, match="solo_ms must be >= 0 and finite"):
                run(kirin, chains)
        with pytest.raises(ValueError, match="solo_ms"):
            simulate_chains(kirin, chains)

    def test_a_clock_that_reaches_inf_raises(self, kirin):
        chains = self._gpu_chains(kirin, 1e308, 2)
        with pytest.raises(ValueError, match="overflowed to inf"):
            simulate_chains(kirin, chains)
        engine = DiscreteEventEngine(kirin, chains, record=False)
        with pytest.raises(ValueError, match="overflowed to inf"):
            while engine.step():
                pass

    @pytest.mark.parametrize("offline", [None, {"npu": 1.0}])
    def test_overflow_is_not_reported_as_a_fault(self, kirin, offline):
        """At an infinite clock every slot reads offline, so the third
        slice once failed as if no processor could run it."""
        chains = self._gpu_chains(kirin, 1e308, 3)
        with pytest.raises(ValueError, match="overflowed to inf"):
            simulate_chains(kirin, chains, processor_offline_ms=offline)


class TestStepCost:
    """An engine step must cost O(ready heads), not O(requests)."""

    def test_cost_per_request_flat_in_run_length(self, kirin):
        # A per-step scan over every request submitted makes the cost
        # per request grow linearly with the run: 6.2x from 125 to
        # 1,000 requests with the scans, 1.2x with the ready sets.
        plan = Hetero2PipePlanner(kirin).plan(
            get_scenario("scene_understanding").models()
        ).plan
        base = plan_to_chains(plan)

        def cpu_s_per_request(copies):
            best = float("inf")
            for _ in range(3):
                chains = replicate_chains(base, copies)
                arrivals = PoissonArrivals(interval_ms=125.0, seed=3)
                engine = DiscreteEventEngine(
                    kirin, chains, arrivals=arrivals, record=False
                )
                started = time.process_time()
                engine.run()
                best = min(best, time.process_time() - started)
            return best / len(chains)

        short = cpu_s_per_request(125 // len(base))
        long = cpu_s_per_request(1000 // len(base))
        assert long <= 2.0 * short, (long / short, short, long)


def _memory_free_engine(soc, chains):
    """The engine whose run a :class:`ProbeRun` of ``chains`` answers for."""
    return DiscreteEventEngine(
        soc, chains, enforce_memory=False, record=False, track_causality=False
    )


def _task_key(task):
    return (task.proc.name, task.workload.start, task.workload.end)


def _position(task):
    """A task named by its place in the run, not by its identity."""
    return (task.request, task.stage, task.proc.name)


def _request_ids(mask):
    """The request ids of a probe run's ready mask (bit ``i`` is request ``i``)."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _trajectory(checkpoints, key):
    """Checkpoints as frozen plain values, running tasks named by ``key``
    and ready masks read as request-id sets."""
    return [
        (
            ck.now_ms,
            tuple(ck.next_idx),
            tuple(ck.prev_done),
            tuple(
                None if entry is None else (key(entry[0]), entry[1])
                for entry in ck.running
            ),
            ck.completed,
            tuple(_request_ids(ready) for ready in ck.ready),
            tuple(ck.started_ms),
        )
        for ck in checkpoints
    ]


def _neighbours(plan, i):
    """Every single boundary move and whole placement of request ``i``."""
    assignment = plan.assignments[i]
    for s in range(plan.depth - 1):
        for frm, to in ((s, s + 1), (s + 1, s)):
            trial = plan.copy()
            if move_boundary_layer(trial.assignments[i], frm, to, trial.processors):
                yield trial
    for stage in range(plan.depth):
        placed = single_processor_assignment(assignment, stage, plan.processors)
        if placed is not None and placed.slices != assignment.slices:
            trial = plan.copy()
            trial.assignments[i] = placed
            yield trial


def _neighbour_tails(plan):
    """Chains of every single boundary move and placement of ``plan``,
    each with the request, first differing chain position and progress
    code at which the engine first reads that position."""
    base = plan_to_chains(plan)
    for i in range(plan.num_requests):
        for trial in _neighbours(plan, i):
            chains = plan_to_chains(trial)
            old, new = base[i], chains[i]
            p = 0
            while (
                p < len(old)
                and p < len(new)
                and _task_key(old[p]) == _task_key(new[p])
            ):
                p += 1
            same_proc = (
                p < len(old)
                and p < len(new)
                and old[p].proc.name == new[p].proc.name
            )
            yield i, p, 2 * p + 2 if same_proc else 2 * p + 1, chains


class TestProbes:
    """Bounded, checkpointed and resumed probe runs answer exactly what a
    full engine run would."""

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_slowdown_lies_in_the_bound_premise_range(self, soc_name):
        """Every zoo slice against the most intense zoo slice on every
        subset of the other processors: 0 <= slowdown < MAX_SLOWDOWN.
        Couplings, intensities and sensitivities are all >= 0, so the
        slowdown grows with each co-runner and these sets are the worst
        case."""
        soc = get_soc(soc_name)
        profiler = SocProfiler(soc)
        workloads = {p.name: [] for p in soc.processors}
        for name in MODEL_NAMES:
            profile = profiler.profile(get_model(name))
            n = profile.model.num_layers
            for proc in soc.processors:
                for start in range(n):
                    for end in range(start, n):
                        if profile.feasible(proc, start, end):
                            workloads[proc.name].append(
                                SliceWorkload(profile, proc, start, end)
                            )
        for victim in soc.processors:
            for source in soc.processors:
                assert soc.coupling_factor(victim.kind, source.kind) >= 0.0
        for ws in workloads.values():
            for w in ws:
                assert 0.0 <= w.intensity() < math.inf
                assert 0.0 <= w.sensitivity() < math.inf
        worst = {
            name: max(ws, key=lambda w: w.intensity())
            for name, ws in workloads.items()
            if ws
        }
        for proc in soc.processors:
            others = [worst[p.name] for p in soc.processors if p is not proc]
            subsets = [
                combo
                for r in range(len(others) + 1)
                for combo in itertools.combinations(others, r)
            ]
            for victim in workloads[proc.name]:
                for combo in subsets:
                    slowdown = slowdown_fraction(soc, victim, combo)
                    assert 0.0 <= slowdown < MAX_SLOWDOWN

    def test_bounded_run_is_exact_or_a_proven_loss(self, zoo_plans):
        for plan in zoo_plans.values():
            full = _memory_free_engine(plan.soc, plan_to_chains(plan)).run()
            # One run answers every cutoff: it never writes its start.
            run = ProbeRun(plan.soc, plan_to_chains(plan))
            assert run.bounded_ms() == full.makespan_ms
            for scale in (0.5, 0.9, 0.99, 1.0, 1.01):
                cutoff = full.makespan_ms * scale
                value = run.bounded_ms(cutoff)
                if value == math.inf:
                    assert full.makespan_ms >= cutoff
                else:
                    assert value == full.makespan_ms
            # Half the makespan is reached well before the run ends.
            with obs.use_recorder(obs.InMemoryRecorder()) as rec:
                assert run.bounded_ms(0.5 * full.makespan_ms) == math.inf
                steps = rec.metrics.counter("engine_steps").value
            assert steps < len(full.records)

    def test_checkpoints_are_the_full_steps_states(self, zoo_plans):
        """The probe loop's state after every step is the full step's."""
        for plan in zoo_plans.values():
            anchor = ProbeRun(plan.soc, plan_to_chains(plan))
            anchor.checkpointed()
            engine = _memory_free_engine(plan.soc, plan_to_chains(plan))
            states = []
            more = True
            while more:
                more = engine.step()
                # A slot runs its tasks one at a time, so its started
                # solo time is its departed tasks' and then its running
                # task's, summed in start order as the loop sums it.
                started = []
                for proc, task in zip(engine._procs, engine._proc_running):
                    started_ms = 0.0
                    for rec in engine._records:
                        if rec.processor == proc.name:
                            started_ms += rec.solo_ms
                    if task is not None:
                        started_ms += task.solo_ms
                    started.append(started_ms)
                states.append(
                    (
                        engine._now,
                        tuple(engine._next_idx),
                        tuple(engine._prev_done),
                        tuple(
                            None if task is None else (_position(task), left_ms)
                            for task, left_ms in zip(
                                engine._proc_running, engine._left_ms
                            )
                        ),
                        engine._completed,
                        tuple(frozenset(ready) for ready in engine._ready),
                        tuple(started),
                    )
                )
            assert _trajectory(anchor.checkpoints, _position)[1:] == states

    def test_fork_at_every_checkpoint_replays_the_run(self, zoo_plans):
        """A run resumed from any checkpoint with no tails replays the
        anchor's trajectory from there, checkpointed or bounded."""
        for plan in zoo_plans.values():
            engine = _memory_free_engine(plan.soc, plan_to_chains(plan))
            full = engine.run()
            anchor = ProbeRun(plan.soc, plan_to_chains(plan))
            makespan = anchor.checkpointed()
            assert makespan == full.makespan_ms
            assert len(anchor.checkpoints) == engine._steps + 1
            expected = _trajectory(anchor.checkpoints, id)
            for index in range(len(anchor.checkpoints)):
                resumed = anchor.resumed(index, {})
                assert resumed.checkpointed() == makespan
                assert _trajectory(resumed.checkpoints, id) == expected
                # The bounded loop resumes the same state bit for bit.
                assert anchor.resumed(index, {}).bounded_ms() == makespan

    def test_fork_with_replaced_tails_equals_a_fresh_run(self, zoo_plans):
        resumes = refiled = 0
        for plan in zoo_plans.values():
            anchor = ProbeRun(plan.soc, plan_to_chains(plan))
            anchor.checkpointed()
            checkpoints = anchor.checkpoints
            for i, p, code, chains in _neighbour_tails(plan):
                first = next(
                    j
                    for j, ck in enumerate(checkpoints)
                    if ck.progress(i) >= code
                )
                fresh = ProbeRun(plan.soc, chains)
                makespan = fresh.checkpointed()
                expected = _trajectory(fresh.checkpoints, _position)
                # Every checkpoint up to the divergence step serves, and
                # checkpoint 0 always does: a first position moved to
                # another processor is re-filed there (first == 0).
                for index in range(max(first, 1)):
                    tails = {i: (p, chains[i][p:])}
                    resumed = anchor.resumed(index, tails)
                    assert resumed.checkpointed() == makespan
                    assert _trajectory(resumed.checkpoints, _position) == expected
                    assert anchor.resumed(index, tails).bounded_ms() == makespan
                    resumes += 1
                    refiled += first == 0
        assert resumes > 0
        assert refiled > 0

    def test_fork_counts_only_its_own_work(self, vit_resnet_plan):
        plan = vit_resnet_plan
        anchor = ProbeRun(plan.soc, plan_to_chains(plan))
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            anchor.checkpointed()
            total = rec.metrics.counter("engine_steps").value
            index = len(anchor.checkpoints) // 2
            anchor.resumed(index, {}).bounded_ms()
            resumed = rec.metrics.counter("engine_steps").value - total
        assert total == len(anchor.checkpoints) - 1
        assert resumed == total - index

    def test_fork_shares_no_run_state(self, vit_resnet_plan):
        """Resumed runs share the anchor's chains and tasks: after an
        anchor and bounded and checkpointed runs resumed from every
        checkpoint, with and without a re-filed first position, a fresh
        run of the same chains has the anchor's makespan, and the
        anchor's checkpoints, ready sets and started times are as they
        were."""
        plan = vit_resnet_plan
        chains = plan_to_chains(plan)
        anchor = ProbeRun(plan.soc, chains)
        makespan_ms = anchor.checkpointed()
        frozen = _trajectory(anchor.checkpoints, id)
        head = chains[1][0].proc.name
        moved = [
            chain
            for chain in (plan_to_chains(trial)[1] for trial in _neighbours(plan, 1))
            if chain[0].proc.name != head
        ]
        assert moved  # a neighbour with request 1's first stage moved
        tails = {1: (0, moved[0])}
        for index in range(len(anchor.checkpoints)):
            anchor.resumed(index, {}).bounded_ms()
            anchor.resumed(index, {}).checkpointed()
            if not anchor.checkpoints[index].next_idx[1]:
                anchor.resumed(index, tails).checkpointed()
                anchor.resumed(index, tails).bounded_ms()
        assert ProbeRun(plan.soc, chains).bounded_ms() == makespan_ms
        assert _trajectory(anchor.checkpoints, id) == frozen

    def test_fork_rejects_bad_indices_and_started_tails(self, vit_resnet_plan):
        plan = vit_resnet_plan
        anchor = ProbeRun(plan.soc, plan_to_chains(plan))
        with pytest.raises(ValueError, match="checkpointed"):
            anchor.resumed(0, {})
        anchor.checkpointed()
        last = len(anchor.checkpoints) - 1
        for index in (-1, last + 1):
            with pytest.raises(ValueError, match=r"out of range \[0, "):
                anchor.resumed(index, {})
        with pytest.raises(ValueError, match="started before"):
            anchor.resumed(last, {0: (0, [])})

    def test_probe_runs_check_chains_like_the_engine(self, kirin):
        swapped = [
            [_task(kirin, 1, 5.0, proc_idx=2)],
            [_task(kirin, 0, 3.0, proc_idx=1)],
        ]
        with pytest.raises(ValueError, match="chain 0 holds a task of request 1"):
            ProbeRun(kirin, swapped)
        foreign = dataclasses.replace(make_gpu(), name="foreign_gpu")
        with pytest.raises(ValueError, match="not on SoC"):
            ProbeRun(kirin, [[ChainTask(0, foreign, 1.0, None, 0.0)]])

    def test_runs_reject_a_negative_or_nan_solo_time(self, kirin):
        """A task cannot check its own solo time (it is a named tuple),
        so every engine and probe run checks it."""
        for solo_ms in (-1.0, math.nan):
            chains = [[ChainTask(0, kirin.processors[0], solo_ms, None, 0.0)]]
            for run in (DiscreteEventEngine, ProbeRun):
                with pytest.raises(ValueError, match="solo_ms must be >= 0"):
                    run(kirin, chains)


class TestOfflineSweep:
    """The re-routing sweep runs only when a head can be on an offline
    slot, so its count follows fault edges and re-routed heads."""

    def test_sweeps_scale_with_edges_and_reroutes(self, kirin, monkeypatch):
        plan = Hetero2PipePlanner(kirin).plan(
            get_scenario("scene_understanding").models()
        ).plan
        chains = replicate_chains(plan_to_chains(plan), 400 // plan.num_requests)
        planned = {
            (task.request, task.stage): task.proc.name
            for chain in chains
            for task in chain
        }
        arrivals = PoissonArrivals(interval_ms=125.0, seed=5).times_ms(len(chains))
        offline = {"gpu": arrivals[len(chains) // 3], "cpu_big": arrivals[-40]}
        sweeps = []
        real = DiscreteEventEngine._reassign_offline_heads

        def spy(self):
            sweeps.append(self._now)
            real(self)

        monkeypatch.setattr(DiscreteEventEngine, "_reassign_offline_heads", spy)
        engine = DiscreteEventEngine(
            kirin,
            chains,
            arrivals=arrivals,
            processor_offline_ms=offline,
            record=False,
        )
        result = engine.run()
        rerouted = sum(
            rec.processor != planned[rec.request, rec.stage] for rec in result.records
        )
        assert len(chains) >= 400 and rerouted > 0
        assert len(sweeps) <= len(offline) + rerouted
        assert len(sweeps) < engine._steps / 20

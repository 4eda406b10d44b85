"""Tests for the event-driven pipeline executor."""

import dataclasses

import pytest

from repro.core.partition import partition_model
from repro.core.plan import PipelinePlan, StageAssignment
from repro.core.planner import Hetero2PipePlanner
from repro.baselines.mnn_serial import plan_mnn_serial
from repro import obs
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.profiling.profiler import SocProfiler
from repro.profiling.slowdown import (
    DEDICATED_PATH_LEAK,
    DEDICATED_PATH_SENSITIVITY,
    REFERENCE_BANDWIDTH_GBPS,
    SENSITIVITY_BASE,
    SENSITIVITY_GAIN,
    SliceWorkload,
)
from repro.runtime import executor
from repro.runtime.executor import (
    ARENA_OVERHEAD_FACTOR,
    ChainTask,
    execute_plan,
    plan_to_chains,
    scale_chain_tasks,
    simulate_chains,
)
from repro.workloads.generator import sample_combinations


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


def make_plan(profiler, kirin, names):
    return PipelinePlan(
        soc=kirin,
        processors=tuple(kirin.processors),
        assignments=[
            StageAssignment(
                profile=profiler.profile(get_model(n)),
                slices=list(
                    partition_model(
                        profiler.profile(get_model(n)), kirin.processors
                    ).slices
                ),
            )
            for n in names
        ],
    )


def simple_chain(kirin, profiler, name, proc, request=0):
    profile = profiler.profile(get_model(name))
    n = profile.model.num_layers
    return [
        ChainTask(
            request=request,
            proc=proc,
            solo_ms=profile.whole_model_ms(proc),
            workload=SliceWorkload(profile, proc, 0, n - 1),
            working_set=profile.working_set_bytes(0, n - 1),
        )
    ]


class TestPrecedenceAndOrdering:
    def test_stages_execute_in_order(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert"])
        result = execute_plan(plan)
        records = sorted(
            (r for r in result.records if r.request == 0),
            key=lambda r: r.stage,
        )
        for earlier, later in zip(records, records[1:]):
            assert later.start_ms >= earlier.finish_ms - 1e-6

    def test_single_processor_serializes(self, profiler, kirin):
        plan = plan_mnn_serial(kirin, [get_model("resnet50")] * 3, profiler)
        result = execute_plan(plan)
        recs = sorted(result.records, key=lambda r: r.start_ms)
        for earlier, later in zip(recs, recs[1:]):
            assert later.start_ms >= earlier.finish_ms - 1e-6

    def test_fifo_request_order_per_processor(self, profiler, kirin):
        plan = plan_mnn_serial(
            kirin, [get_model("squeezenet")] * 4, profiler
        )
        result = execute_plan(plan)
        recs = sorted(result.records, key=lambda r: r.start_ms)
        assert [r.request for r in recs] == [0, 1, 2, 3]

    def test_arrivals_delay_start(self, profiler, kirin):
        plan = plan_mnn_serial(kirin, [get_model("squeezenet")] * 2, profiler)
        result = execute_plan(plan, arrivals=[0.0, 500.0])
        second = [r for r in result.records if r.request == 1][0]
        assert second.start_ms >= 500.0

    def test_arrival_length_mismatch(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        with pytest.raises(ValueError):
            execute_plan(plan, arrivals=[0.0, 1.0])


class TestContention:
    def test_contention_slows_execution(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "yolov4", "vgg16"])
        with_c = execute_plan(plan, with_contention=True).makespan_ms
        without = execute_plan(plan, with_contention=False).makespan_ms
        assert with_c > without

    def test_solo_execution_matches_profile(self, profiler, kirin):
        chain = simple_chain(kirin, profiler, "resnet50", kirin.cpu_big)
        result = simulate_chains(kirin, [chain])
        assert result.makespan_ms == pytest.approx(chain[0].solo_ms, rel=1e-6)

    def test_observed_slowdown_recorded(self, profiler, kirin):
        chains = [
            simple_chain(kirin, profiler, "bert", kirin.cpu_big, 0),
            simple_chain(kirin, profiler, "vgg16", kirin.gpu, 1),
        ]
        result = simulate_chains(kirin, chains)
        slowdowns = [r.slowdown for r in result.records]
        assert any(s > 0.02 for s in slowdowns)


class TestMemory:
    def test_capacity_violation_raises(self, kirin):
        huge = ChainTask(
            request=0,
            proc=kirin.cpu_big,
            solo_ms=1.0,
            workload=None,
            working_set=kirin.memory_capacity_bytes * 2,
        )
        with pytest.raises(MemoryError):
            simulate_chains(kirin, [[huge]])

    def test_memory_blocking_serializes(self, profiler, kirin):
        # Two tasks on different processors whose combined working sets
        # exceed capacity must not overlap.
        half = kirin.memory_capacity_bytes * 0.6
        profile = profiler.profile(get_model("squeezenet"))
        n = profile.model.num_layers

        def task(request, proc):
            return ChainTask(
                request=request,
                proc=proc,
                solo_ms=10.0,
                workload=SliceWorkload(profile, proc, 0, n - 1),
                working_set=half,
            )

        chains = [[task(0, kirin.cpu_big)], [task(1, kirin.gpu)]]
        result = simulate_chains(kirin, chains)
        recs = sorted(result.records, key=lambda r: r.start_ms)
        assert recs[1].start_ms >= recs[0].finish_ms - 1e-6

    def test_pressure_fallback_counts_events(self, profiler, kirin):
        # A single request whose two stages each need >50% capacity;
        # arena residency holds stage 1's memory, so stage 2 only starts
        # via the pressure fallback.
        profile = profiler.profile(get_model("squeezenet"))
        n = profile.model.num_layers
        big = kirin.memory_capacity_bytes * 0.6
        chain = [
            ChainTask(0, kirin.cpu_big, 5.0,
                      SliceWorkload(profile, kirin.cpu_big, 0, n - 1), big),
            ChainTask(0, kirin.gpu, 5.0,
                      SliceWorkload(profile, kirin.gpu, 0, n - 1), big,
                      stage=1),
        ]
        result = simulate_chains(kirin, [chain])
        assert result.memory_pressure_events >= 1
        assert result.makespan_ms > 0

    def test_memory_not_enforced_when_disabled(self, profiler, kirin):
        profile = profiler.profile(get_model("squeezenet"))
        n = profile.model.num_layers
        big = kirin.memory_capacity_bytes * 2
        chain = [
            ChainTask(0, kirin.cpu_big, 5.0,
                      SliceWorkload(profile, kirin.cpu_big, 0, n - 1), big)
        ]
        result = simulate_chains(kirin, [chain], enforce_memory=False)
        assert result.makespan_ms > 0


class TestMetricsAndTrace:
    def test_throughput_definition(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan)
        assert result.throughput_per_s == pytest.approx(
            2 / (result.makespan_ms / 1e3)
        )

    def test_utilizations_bounded(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "vit", "yolov4"])
        result = execute_plan(plan)
        for proc in kirin.processors:
            assert 0.0 <= result.utilization(proc.name) <= 1.0 + 1e-9

    def test_trace_collected_when_enabled(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan, trace=True)
        assert len(result.trace) >= 2
        times = [t.time_ms for t in result.trace]
        assert times == sorted(times)

    def test_trace_empty_when_disabled(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        assert execute_plan(plan, trace=False).trace == []

    def test_npu_only_trace_keeps_low_memory_freq(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["mobilenetv2"])
        # mobilenet collapses onto the NPU; governor stays at the floor.
        result = execute_plan(plan, trace=True)
        npu_points = [
            t for t in result.trace if t.active_processors == ("npu",)
        ]
        for point in npu_points:
            assert point.memory_freq_mhz == kirin.memory_freq_mhz[0]

    def test_plan_to_chains_round_trip(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "vit"])
        chains = plan_to_chains(plan)
        assert len(chains) == 2
        for chain, assignment in zip(chains, plan.assignments):
            occupied = [s for s in assignment.slices if s is not None]
            assert len(chain) == len(occupied)
            for task in chain:
                assert task.working_set >= ARENA_OVERHEAD_FACTOR

    def test_request_latency(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan, arrivals=[0.0, 10.0])
        assert result.request_latency_ms(1) == pytest.approx(
            result.request_finish_ms[1] - 10.0
        )

    def test_mean_latency(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan)
        expected = sum(
            result.request_latency_ms(i) for i in range(2)
        ) / 2
        assert result.mean_latency_ms() == pytest.approx(expected)

    def test_latency_percentiles_interpolate(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50", "bert"])
        result = execute_plan(plan)
        latencies = sorted(
            result.request_latency_ms(i) for i in range(3)
        )
        # Linear interpolation over the sorted sample, numpy-style:
        # p50 of 3 samples is the middle one, p100/p0 are the extremes.
        assert result.p50_latency_ms == pytest.approx(latencies[1])
        assert result.latency_percentile_ms(0.0) == pytest.approx(
            latencies[0]
        )
        assert result.latency_percentile_ms(100.0) == pytest.approx(
            latencies[-1]
        )
        # p75 of 3 samples: rank 1.5 -> halfway between samples 1 and 2.
        assert result.latency_percentile_ms(75.0) == pytest.approx(
            (latencies[1] + latencies[2]) / 2
        )

    def test_latency_percentiles_ordered(self, profiler, kirin):
        plan = make_plan(
            profiler, kirin, ["vit", "resnet50", "bert", "yolov4"]
        )
        result = execute_plan(plan)
        assert (
            result.p50_latency_ms
            <= result.p95_latency_ms
            <= result.p99_latency_ms
            <= result.makespan_ms
        )

    def test_single_request_percentiles_degenerate(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        result = execute_plan(plan)
        only = result.request_latency_ms(0)
        assert result.p50_latency_ms == pytest.approx(only)
        assert result.p99_latency_ms == pytest.approx(only)

    def test_latency_percentile_validation(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        result = execute_plan(plan)
        with pytest.raises(ValueError):
            result.latency_percentile_ms(-1.0)
        with pytest.raises(ValueError):
            result.latency_percentile_ms(100.5)

    def test_unknown_processor_rejected(self, profiler, kirin):
        from repro.hardware.processor import make_gpu

        foreign = dataclasses.replace(make_gpu(), name="foreign_gpu")
        chain = [ChainTask(0, foreign, 1.0, None, 0.0)]
        with pytest.raises(ValueError):
            simulate_chains(kirin, [chain])


def assert_memo_prices_its_keys(profile, soc):
    procs = {p.name: p for p in soc.processors}
    for (name, next_name, start, end), entry in profile.slice_tasks.items():
        next_proc = None if next_name is None else procs[next_name]
        assert entry[0] == profile.slice_cost_ms(procs[name], start, end, next_proc)


class TestSliceTaskMemo:
    """``plan_to_chains`` shares each stage's immutable parts through the
    profile's slice-task memo and hands out new immutable tasks."""

    def test_calls_return_distinct_tasks_sharing_workloads(self, kirin):
        plan = make_plan(SocProfiler(kirin), kirin, ["bert", "vit", "resnet50"])
        first = [t for chain in plan_to_chains(plan) for t in chain]
        second = [t for chain in plan_to_chains(plan) for t in chain]
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert a is not b
            assert a.workload is b.workload

    def test_scaling_and_running_leave_the_chains_as_built(self, kirin):
        plan = make_plan(SocProfiler(kirin), kirin, ["bert", "vit", "resnet50"])
        chains = plan_to_chains(plan)
        reference = plan_to_chains(plan)
        factors = {p.name: 2.0 for p in kirin.processors}
        scaled = scale_chain_tasks(chains, factors)
        assert chains == reference
        assert [[t.solo_ms for t in chain] for chain in scaled] == [
            [2.0 * t.solo_ms for t in chain] for chain in chains
        ]
        first = simulate_chains(kirin, chains)
        assert chains == reference
        assert simulate_chains(kirin, chains) == first

    def test_scaling_scales_only_the_named_processors(self, kirin):
        plan = make_plan(SocProfiler(kirin), kirin, ["bert", "vit", "resnet50"])
        chains = plan_to_chains(plan)
        scaled = scale_chain_tasks(chains, {"gpu": 2.0})
        assert any(t.proc.name == "gpu" for chain in chains for t in chain)
        for chain, new in zip(chains, scaled):
            for task, scaled_task in zip(chain, new):
                if task.proc.name == "gpu":
                    assert scaled_task == task._replace(solo_ms=2.0 * task.solo_ms)
                else:
                    assert scaled_task is task

    def test_memoized_parts_equal_direct_construction(self, kirin):
        plan = make_plan(SocProfiler(kirin), kirin, ["bert", "vit", "yolov4"])
        plan_to_chains(plan)  # fill the memo; the next call reads it
        for i, (chain, assignment) in enumerate(
            zip(plan_to_chains(plan), plan.assignments)
        ):
            occupied = [
                (k, slc) for k, slc in enumerate(assignment.slices) if slc
            ]
            assert len(chain) == len(occupied)
            for task, (k, (start, end)) in zip(chain, occupied):
                proc = plan.processors[k]
                assert (task.request, task.stage, task.proc) == (i, k, proc)
                assert task.solo_ms == assignment.stage_time_ms(
                    k, plan.processors
                )
                assert task.working_set == (
                    ARENA_OVERHEAD_FACTOR
                    * assignment.profile.working_set_bytes(start, end)
                )
                assert task.workload == SliceWorkload(
                    assignment.profile, proc, start, end
                )

    def test_stages_other_than_an_assignments_are_priced_by_their_own(self, kirin):
        """A probe tail's stages need not be any assignment's slices: each
        task and memo entry costs its own slice, not a plan's."""
        profiler = SocProfiler(kirin)
        plan = make_plan(profiler, kirin, ["bert", "vit"])
        assignment = plan.assignments[1]
        n = assignment.profile.model.num_layers
        stages = [(0, 0, n // 2), (1, n // 2 + 1, n - 1)]
        assert stages != executor._stages(assignment.slices)
        names = executor._handoff_names(plan.processors)
        tasks = executor._chain_tasks(
            1, assignment.profile, plan.processors, names, stages
        )
        assert len(tasks) == len(stages)
        for task, (k, start, end) in zip(tasks, stages):
            assert task.solo_ms == assignment.profile.slice_cost_ms(
                plan.processors[k], start, end, plan.processors[k + 1]
            )
        assert_memo_prices_its_keys(assignment.profile, kirin)

    def test_planned_memos_price_every_key_by_its_own_slice(self):
        """Every entry the planner's probes leave in the memo, over the
        end-to-end benchmark's cold-mix catalogue on every SoC, holds
        its own key's solo time."""
        mixes = [
            spec.models()
            for spec in sample_combinations(
                count=12, min_size=3, max_size=6, seed=2025
            )
        ]
        for soc_name in SOC_NAMES:
            soc = get_soc(soc_name)
            planner = Hetero2PipePlanner(soc)
            for models in mixes:
                planner.invalidate_caches()
                planner.plan(models)
                for model in models:
                    profile = planner.profiler.profile(model)
                    assert profile.slice_tasks
                    assert_memo_prices_its_keys(profile, soc)

    def test_memo_counters_once_per_call(self, kirin):
        plan = make_plan(SocProfiler(kirin), kirin, ["bert", "vit"])
        tasks = sum(1 for a in plan.assignments for s in a.slices if s)
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            plan_to_chains(plan)
            plan_to_chains(plan)
            counters = rec.metrics.snapshot()["counters"]
        assert counters["chain_task_memo_misses"] == tasks
        assert counters["chain_task_memo_hits"] == tasks

    def test_contention_inputs_equal_the_uncached_formula(self):
        """Over the zoo x SoC grid, every processor, the whole model and
        every single layer: the values computed once per workload are
        the formula's, bit for bit."""
        for soc_name in SOC_NAMES:
            soc = get_soc(soc_name)
            profiler = SocProfiler(soc)
            for name in MODEL_NAMES:
                profile = profiler.profile(get_model(name))
                n = profile.model.num_layers
                ranges = [(0, n - 1)] + [(i, i) for i in range(n)]
                for proc in soc.processors:
                    for start, end in ranges:
                        w = SliceWorkload(profile, proc, start, end)
                        rate = profile.traffic_rate_gbps(proc, start, end)
                        sens = SENSITIVITY_BASE + SENSITIVITY_GAIN * (
                            profile.memory_fraction(proc, start, end)
                        )
                        if proc.dedicated_memory_path:
                            rate *= DEDICATED_PATH_LEAK
                            sens *= DEDICATED_PATH_SENSITIVITY
                        assert w.intensity() == rate / REFERENCE_BANDWIDTH_GBPS
                        assert w.sensitivity() == sens


class TestEngineCounters:
    def test_steps_and_slowdown_evaluations_counted_once_per_run(
        self, profiler, kirin, monkeypatch
    ):
        from repro.runtime import engine

        calls, steps = [], []
        real_slowdown = engine.slowdown_fraction
        real_step = engine.DiscreteEventEngine._step

        def counting_slowdown(*args):
            calls.append(1)
            return real_slowdown(*args)

        def counting_step(self):
            steps.append(1)
            real_step(self)

        monkeypatch.setattr(engine, "slowdown_fraction", counting_slowdown)
        monkeypatch.setattr(engine.DiscreteEventEngine, "_step", counting_step)
        plan = make_plan(profiler, kirin, ["bert", "vit", "resnet50"])
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            # A silent probe-style run counts as simulation work too.
            sim = engine.DiscreteEventEngine(
                kirin, plan_to_chains(plan), record=False,
                track_causality=False,
            )
            result = sim.run()
            counters = rec.metrics.snapshot()["counters"]
        assert counters["slowdown_evaluations"] == len(calls) > 0
        assert counters["engine_steps"] == len(steps) >= len(result.records)
        assert "tasks_executed" not in counters

        # A probe run steps its own loop, not _step, with the slowdown
        # model inlined: it counts what a memory-free run() counts and
        # returns its makespan bit for bit, without one call through
        # the engine module's global.
        calls.clear()
        steps.clear()
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            free = engine.DiscreteEventEngine(
                kirin, plan_to_chains(plan), enforce_memory=False,
                record=False, track_causality=False,
            ).run()
            free_counters = rec.metrics.snapshot()["counters"]
        assert free_counters["slowdown_evaluations"] == len(calls) > 0
        assert free_counters["engine_steps"] == len(steps)
        calls.clear()
        steps.clear()
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            probe_ms = engine.ProbeRun(kirin, plan_to_chains(plan)).bounded_ms(
                2 * result.makespan_ms
            )
            probe_counters = rec.metrics.snapshot()["counters"]
        assert probe_counters == free_counters
        assert probe_ms == free.makespan_ms
        assert calls == [] and steps == []

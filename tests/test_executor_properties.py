"""Property-based invariants of the event-driven simulator.

Random task chains are generated with hypothesis and the executed
schedule is checked for the properties any correct pipeline execution
must have: per-processor mutual exclusion, chain precedence (Eq. 8),
work conservation, arrival respect, and determinism.  Open-loop runs
with deadlines, cancellations, preemptions and processor faults run
twice on one chain set and agree field for field, and a ``baseline``
what-if reproduces an executed run bit for bit from its chains.  They
check the engine's per-processor ready sets against a brute-force
recomputation after every step, that replaying them with causality
tracking off simulates exactly the same schedule, and that the
timeline fold of their event logs keeps the engine's busy times,
Little's law and non-negative queueing delays, that the timeline and
SLO folds close the same windows with the queue depth a count from the
events says, and that their critical paths tile [0, makespan].  Doubling every solo time doubles the
makespan exactly, and reversing the processor tuple keeps it.  Probe
runs, bounded and resumed, equal the engine's makespan on random
chains, with and without zoo workloads (so with and without
contention).
"""

import dataclasses
import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.planner import Hetero2PipePlanner
from repro.hardware.processor import ProcessorKind
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.obs.bench import MODEL_MIX
from repro.obs.blame import blame_requests, extract_critical_path
from repro.obs.slo import SloEvaluator, SloSpec
from repro.obs.timeline import TimelineAggregator
from repro.obs.whatif import WhatIf, run_counterfactual
from repro.profiling.profiler import SocProfiler
from repro.profiling.slowdown import SliceWorkload
from repro.runtime.engine import DiscreteEventEngine, ProbeRun
from repro.runtime.executor import (
    ChainTask,
    _first_reaching,
    _handoff_names,
    _probe_tail,
    plan_to_chains,
    replicate_chains,
    scale_chain_tasks,
    simulate_chains,
)

KIRIN = get_soc("kirin990")
PROCS = list(KIRIN.processors)
#: Every SoC, and Kirin 990 recalibrated the way a drift replan does it
#: (a slower GPU): the SoCs whose coupling matrices probe runs read.
PROBE_SOCS = {name: get_soc(name) for name in SOC_NAMES}
PROBE_SOCS["kirin990_recalibrated"] = dataclasses.replace(
    KIRIN,
    processors=tuple(
        dataclasses.replace(p, peak_gflops=p.peak_gflops / 1.3)
        if p.name == "gpu"
        else p
        for p in KIRIN.processors
    ),
)


@st.composite
def timing_tasks(draw, request, max_working_set=1e8, soc_name="kirin990"):
    """A task without a workload (pure timing) on a random processor."""
    procs = PROBE_SOCS[soc_name].processors
    proc = procs[draw(st.integers(0, len(procs) - 1))]
    solo = draw(st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False))
    return ChainTask(
        request=request,
        proc=proc,
        solo_ms=solo,
        workload=None,
        working_set=draw(st.floats(0, max_working_set)),
    )


@st.composite
def chains_strategy(draw, max_working_set=1e8, tasks=timing_tasks):
    """Random request chains, by default without workloads."""
    num_requests = draw(st.integers(1, 5))
    chains = []
    for request in range(num_requests):
        length = draw(st.integers(1, 4))
        chains.append(
            [draw(tasks(request, max_working_set)) for _ in range(length)]
        )
    return chains


@functools.lru_cache(maxsize=None)
def _zoo_profiles(soc_name="kirin990"):
    profiler = SocProfiler(PROBE_SOCS[soc_name])
    return tuple(profiler.profile(get_model(name)) for name in MODEL_NAMES)


@st.composite
def zoo_tasks(draw, request, max_working_set=0.0, soc_name="kirin990"):
    """A random zoo slice on a random processor that can run it, with
    its workload, so co-running tasks slow each other down."""
    profile = draw(st.sampled_from(_zoo_profiles(soc_name)))
    last = profile.model.num_layers - 1
    start = draw(st.integers(0, last))
    end = draw(st.integers(start, last))
    procs = PROBE_SOCS[soc_name].processors
    proc = draw(st.sampled_from([p for p in procs if profile.feasible(p, start, end)]))
    return ChainTask(
        request=request,
        proc=proc,
        solo_ms=profile.exec_ms(proc, start, end),
        workload=SliceWorkload(profile, proc, start, end),
        working_set=0.0,
    )


@st.composite
def arrivals_for(draw, num_requests):
    return [
        draw(st.floats(0, 200, allow_nan=False)) for _ in range(num_requests)
    ]


class TestExecutorInvariants:
    @given(chains_strategy())
    @settings(max_examples=120, deadline=None)
    def test_all_tasks_complete(self, chains):
        result = simulate_chains(KIRIN, chains)
        assert len(result.records) == sum(len(c) for c in chains)

    @given(chains_strategy())
    @settings(max_examples=120, deadline=None)
    def test_processor_mutual_exclusion(self, chains):
        result = simulate_chains(KIRIN, chains)
        by_proc = {}
        for rec in result.records:
            by_proc.setdefault(rec.processor, []).append(rec)
        for recs in by_proc.values():
            recs.sort(key=lambda r: r.start_ms)
            for a, b in zip(recs, recs[1:]):
                assert b.start_ms >= a.finish_ms - 1e-6

    @given(chains_strategy())
    @settings(max_examples=120, deadline=None)
    def test_chain_precedence(self, chains):
        result = simulate_chains(KIRIN, chains)
        by_request = {}
        for rec in result.records:
            by_request.setdefault(rec.request, []).append(rec)
        for request, recs in by_request.items():
            recs.sort(key=lambda r: r.start_ms)
            # tasks of one request never overlap and run in chain order
            for a, b in zip(recs, recs[1:]):
                assert b.start_ms >= a.finish_ms - 1e-6

    @given(chains_strategy())
    @settings(max_examples=100, deadline=None)
    def test_durations_at_least_solo(self, chains):
        # Contention can only slow tasks down, never speed them up.
        result = simulate_chains(KIRIN, chains)
        for rec in result.records:
            assert rec.duration_ms >= rec.solo_ms - 1e-6

    @given(chains_strategy())
    @settings(max_examples=100, deadline=None)
    def test_no_contention_matches_solo_sum_per_chain(self, chains):
        result = simulate_chains(KIRIN, chains, with_contention=False)
        for rec in result.records:
            assert rec.duration_ms == pytest.approx(rec.solo_ms, abs=1e-5)

    @given(chains_strategy())
    @settings(max_examples=80, deadline=None)
    def test_makespan_bounds(self, chains):
        result = simulate_chains(KIRIN, chains, with_contention=False)
        # Lower bound: the longest chain; upper bound: total serial work.
        longest_chain = max(
            sum(t.solo_ms for t in chain) for chain in chains
        )
        total = sum(t.solo_ms for chain in chains for t in chain)
        assert result.makespan_ms >= longest_chain - 1e-5
        assert result.makespan_ms <= total + 1e-5

    @given(chains_strategy())
    @settings(max_examples=80, deadline=None)
    def test_busy_time_conservation(self, chains):
        result = simulate_chains(KIRIN, chains)
        recorded = sum(r.duration_ms for r in result.records)
        busy = sum(result.processor_busy_ms.values())
        assert busy == pytest.approx(recorded, rel=1e-6, abs=1e-5)

    @given(chains_strategy())
    @settings(max_examples=60, deadline=None)
    def test_arrivals_respected(self, chains):
        arrivals = [10.0 * (i + 1) for i in range(len(chains))]
        result = simulate_chains(KIRIN, chains, arrivals=arrivals)
        firsts = {}
        for rec in result.records:
            firsts.setdefault(rec.request, rec.start_ms)
            firsts[rec.request] = min(firsts[rec.request], rec.start_ms)
        for request, start in firsts.items():
            assert start >= arrivals[request] - 1e-6

    @given(chains_strategy())
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, chains):
        assert simulate_chains(KIRIN, chains) == simulate_chains(KIRIN, chains)

    @given(chains_strategy())
    @settings(max_examples=40, deadline=None)
    def test_finish_times_match_records(self, chains):
        result = simulate_chains(KIRIN, chains)
        for request in range(len(chains)):
            last = max(
                r.finish_ms
                for r in result.records
                if r.request == request
            )
            assert result.request_finish_ms[request] == pytest.approx(last)


# ------------------------------------------- ready-set invariant (engine)


@st.composite
def open_loop_runs(draw, tasks=timing_tasks):
    """Chains plus everything that moves a chain head: arrivals,
    deadlines, cancellations, preemptions, processor faults and a
    memory gate tight enough to block and force starts."""
    chains = draw(
        chains_strategy(max_working_set=0.6 * KIRIN.memory_capacity_bytes, tasks=tasks)
    )
    n = len(chains)
    times = st.floats(0, 300, allow_nan=False)
    return {
        "chains": chains,
        "arrivals": draw(arrivals_for(n)),
        "deadline_ms": draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.one_of(st.none(), st.floats(0, 100, allow_nan=False)),
                    min_size=n,
                    max_size=n,
                ),
            )
        ),
        "cancellations": draw(
            st.lists(st.tuples(st.integers(0, n - 1), times), max_size=4)
        ),
        "preemptions": draw(
            st.lists(st.tuples(st.integers(0, n - 1), times), max_size=6)
        ),
        # At most all but one processor fails, so every slice has a
        # fallback (tasks without workloads run anywhere).
        "offline": draw(
            st.dictionaries(
                st.sampled_from([p.name for p in PROCS]),
                times,
                max_size=len(PROCS) - 1,
            )
        ),
        "enforce_memory": draw(st.booleans()),
    }


def _brute_force_ready(engine):
    """Per-processor ready heads recomputed from the engine's raw state."""
    ready = {p.name: set() for p in PROCS}
    for i, chain in enumerate(engine._chains):
        idx = engine._next_idx[i]
        if (
            idx < len(chain)
            and engine._prev_done[i]
            and engine._arrived[i]
            and i not in engine._removed
        ):
            ready[chain[idx].proc.name].add(i)
    return ready


def _engine(run, **options):
    """An engine over one generated open-loop run, events scheduled."""
    engine = DiscreteEventEngine(
        KIRIN,
        run["chains"],
        arrivals=run["arrivals"],
        deadline_ms=run["deadline_ms"],
        processor_offline_ms=run["offline"],
        enforce_memory=run["enforce_memory"],
        record=False,
        **options,
    )
    for request, at_ms in run["cancellations"]:
        engine.schedule_cancellation(request, at_ms)
    for request, at_ms in run["preemptions"]:
        engine.schedule_preemption(request, at_ms)
    return engine


def _drive(run, track_causality=True):
    engine = _engine(run, track_causality=track_causality)
    while True:
        more = engine.step()
        # The engine's ready sets are slot-indexed (soc.processors order).
        by_name = {p.name: ready for p, ready in zip(PROCS, engine._ready)}
        assert by_name == _brute_force_ready(engine)
        if not more:
            break
    return engine.result()


class TestReadySetInvariant:
    @given(open_loop_runs())
    @settings(max_examples=150, deadline=None)
    def test_ready_sets_match_brute_force_every_step(self, run):
        # Every processor a fault leaves online runs every slice, so no
        # generated run may wedge: a RuntimeError fails the test.
        result = _drive(run)
        for blamed in blame_requests(result):
            assert abs(blamed.residue_ms) <= 1e-9, blamed
        # Causality bookkeeping never feeds back into the simulation.
        untracked = _drive(run, track_causality=False)
        assert untracked.records == result.records
        assert untracked.request_finish_ms == result.request_finish_ms
        assert untracked.request_first_start_ms == result.request_first_start_ms
        assert untracked.dropped_requests == result.dropped_requests
        assert untracked.cancelled_requests == result.cancelled_requests
        assert untracked.memory_pressure_events == result.memory_pressure_events
        assert untracked.causality == []
        assert untracked.corun_inflation_ms == {}


class TestRunsShareChains:
    """A run writes to no task, so one chain set serves any number of
    runs: two runs of it are equal field for field, on open-loop runs
    with every feature that moves a chain head and on a perturbed copy
    of their chains, and a ``baseline`` what-if of an executed run
    reproduces it bit for bit from the same chains."""

    @given(open_loop_runs(), st.floats(0.5, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_a_second_run_of_one_chain_set_equals_the_first(self, run, factor):
        first = _engine(run, keep_events=True).run()
        assert _engine(run, keep_events=True).run() == first
        scaled = dict(run, chains=scale_chain_tasks(run["chains"], {"gpu": factor}))
        perturbed = _engine(scaled, keep_events=True).run()
        assert _engine(scaled, keep_events=True).run() == perturbed
        assert _engine(run, keep_events=True).run() == first

    @given(st.one_of(open_loop_runs(), open_loop_runs(tasks=zoo_tasks)))
    @settings(max_examples=150, deadline=None)
    def test_baseline_whatif_is_bit_exact(self, run):
        """What-ifs take arrivals and deadlines (no faults, cancellations
        or preemptions), and a run without the memory gate replays as
        the ``unlimited_memory`` intervention; zoo chains co-run."""
        chains = run["chains"]
        executed = simulate_chains(
            KIRIN,
            chains,
            arrivals=run["arrivals"],
            deadline_ms=run["deadline_ms"],
            enforce_memory=run["enforce_memory"],
            record=False,
            track_causality=True,
        )
        replayed, request_map = run_counterfactual(
            KIRIN,
            chains,
            WhatIf(kind="baseline" if run["enforce_memory"] else "unlimited_memory"),
            arrivals=run["arrivals"],
            deadline_ms=run["deadline_ms"],
        )
        assert request_map == {i: i for i in range(len(chains))}
        assert replayed == executed


def _npu_run(arrivals, cancellations=()):
    """One 1 ms NPU task per arrival, nothing else moving a head."""
    npu = KIRIN.processor("npu")
    return {
        "chains": [
            [ChainTask(i, npu, solo_ms=1.0, workload=None, working_set=0.0)]
            for i in range(len(arrivals))
        ],
        "arrivals": list(arrivals),
        "deadline_ms": None,
        "cancellations": list(cancellations),
        "preemptions": [],
        "offline": {},
        "enforce_memory": False,
    }


class TestTimelineIdentities:
    @given(open_loop_runs())
    @settings(max_examples=150, deadline=None)
    # Subnormal times: a horizon of 5e-324 ms (the arrival rate alone
    # overflows), and gaps whose mean underflows to zero.
    @example(_npu_run([0.0], cancellations=[(0, 5e-324)]))
    @example(_npu_run([0.0, 0.0, 5e-324]))
    def test_timeline_fold_keeps_the_engines_identities(self, run):
        """The fold of a run's event log: busy time equal to the
        engine's, Little's law, and no negative queueing delay."""
        result = _engine(run, keep_events=True, track_causality=False).run()
        fold = TimelineAggregator(
            [p.name for p in PROCS], [len(c) for c in run["chains"]], 25.0
        )
        fold.observe_many(result.events)
        fold.finish(result.makespan_ms)
        for name, busy_ms in result.processor_busy_ms.items():
            assert fold.busy_ms(name) == pytest.approx(busy_ms, abs=1e-9), name
        assert fold.littles_law().ok
        for delay_ms in result.queueing_delays_ms():
            assert delay_ms is None or delay_ms >= 0.0

    @given(open_loop_runs(), st.sampled_from([2.5, 25.0, 400.0]))
    @settings(max_examples=150, deadline=None)
    def test_both_folds_close_the_same_windows(self, run, window_ms):
        """Over one event log the timeline and SLO folds close the same
        ``(window, end_ms)`` sequence, and every window's end queue
        depth is the count of requests arrived, not yet departed from
        their last stage or cancelled, and not running, taken from the
        events before the one that closed it."""
        result = _engine(run, keep_events=True, track_causality=False).run()
        stages = [len(c) for c in run["chains"]]
        timeline = TimelineAggregator([p.name for p in PROCS], stages, window_ms)
        slo = SloEvaluator([SloSpec("all", 50.0)] * len(stages), stages, window_ms)
        arrived, running, done = set(), set(), set()
        departures = [0] * len(stages)
        timeline_closes, slo_closes = [], []

        def check(windows, depth):
            for window in windows:
                assert window.queue_depth_end == depth, window
                timeline_closes.append((window.window, window.end_ms))

        for event in result.events:
            depth = len(arrived - done - running)
            check(timeline.observe(event), depth)
            slo_closes.extend((r.window, r.end_ms) for r in slo.observe(event))
            request = event.request
            if event.kind == "arrival":
                arrived.add(request)
            elif event.kind == "task_ready":
                running.add(request)
            elif event.kind in ("departure", "preemption", "cancellation"):
                running.discard(request)
            if event.kind == "departure":
                departures[request] += 1
                if departures[request] == stages[request]:
                    done.add(request)
            elif event.kind == "cancellation":
                done.add(request)
            assert timeline.queue_depth() == len(arrived - done - running)
        check(timeline.finish(result.makespan_ms), len(arrived - done - running))
        slo_closes.extend((r.window, r.end_ms) for r in slo.finish(result.makespan_ms))
        assert timeline_closes == slo_closes
        assert timeline_closes


class TestCriticalPathTiling:
    @given(open_loop_runs())
    @settings(max_examples=150, deadline=None)
    def test_critical_path_tiles_the_makespan(self, run):
        """Gaps and durations of the path tile [0, makespan]: each
        segment starts where the previous ended, the last ends at the
        makespan, within 1e-9."""
        result = _engine(run).run()
        path = extract_critical_path(result)
        assert path.makespan_ms == result.makespan_ms
        assert abs(path.residue_ms) <= 1e-9
        cursor = 0.0
        for seg in path.segments:
            start = seg.start_ms if seg.start_ms is not None else seg.finish_ms
            assert abs(start - (cursor + seg.gap_ms)) <= 1e-9
            cursor = seg.finish_ms
        assert abs(cursor - result.makespan_ms) <= 1e-9

    def test_a_no_op_deadline_after_the_last_cancellation_tiles(self):
        """Request 1's cancellation fires when it arrives at 1 ms and
        drains the run; its deadline, due 1e-9 ms later, is then a no-op
        within the engine's epsilon and must not end the run after every
        slice on the path."""
        run = dict(
            _npu_run([0.0, 1.0], cancellations=[(1, 0.0)]), deadline_ms=[None, 1e-9]
        )
        result = _engine(run).run()
        assert result.cancelled_requests == (1,)
        assert result.makespan_ms == 1.0
        assert abs(extract_critical_path(result).residue_ms) <= 1e-9


class TestMetamorphicRelations:
    """Every instant of a run doubles with its solo times, and doubling
    is exact in binary floating point, so the makespan doubles bit for
    bit, with and without contention.  The order of the SoC's processor
    tuple indexes the engine's slots but decides nothing, so reversing
    it keeps the makespan bit for bit."""

    def _check_doubling(self, chains):
        doubled = scale_chain_tasks(chains, {p.name: 2.0 for p in PROCS})
        base_ms = simulate_chains(KIRIN, chains).makespan_ms
        assert simulate_chains(KIRIN, doubled).makespan_ms == 2.0 * base_ms

    @given(chains_strategy())
    @settings(max_examples=150, deadline=None)
    def test_doubling_every_solo_time_doubles_the_makespan(self, chains):
        self._check_doubling(chains)

    @given(chains_strategy(tasks=zoo_tasks))
    @settings(max_examples=100, deadline=None)
    def test_doubling_doubles_the_makespan_under_contention(self, chains):
        self._check_doubling(chains)

    @given(chains_strategy(tasks=zoo_tasks))
    @settings(max_examples=100, deadline=None)
    def test_reversing_the_processor_tuple_keeps_the_makespan(self, chains):
        reversed_soc = dataclasses.replace(
            KIRIN, processors=tuple(reversed(KIRIN.processors))
        )
        assert (
            simulate_chains(reversed_soc, chains).makespan_ms
            == simulate_chains(KIRIN, chains).makespan_ms
        )


@st.composite
def probe_cases(draw, tasks):
    """Chains, a cutoff scale and one request's replaced tail: the
    request, the first replaced position and the new tasks from it."""
    chains = draw(chains_strategy(tasks=tasks))
    request = draw(st.integers(0, len(chains) - 1))
    position = draw(st.integers(0, len(chains[request])))
    tail = draw(st.lists(tasks(request), max_size=3))
    return chains, draw(st.floats(0.0, 1.5)), request, position, tail


def _first_read(old, new, position):
    """The progress code at which a run first reads chain ``position``
    once ``old`` is replaced by ``new`` from there: when it starts if
    both tasks are on one processor, else when it is exposed."""
    same_slot = (
        position < len(old)
        and position < len(new)
        and old[position].proc.name == new[position].proc.name
    )
    return 2 * position + 2 if same_slot else 2 * position + 1


def _assert_first_reaching(checkpoints, chains):
    """For every request and every progress code of its chain, the
    binary search names the first checkpoint a brute-force scan finds
    reaching it."""
    for request, chain in enumerate(chains):
        for code in range(2 * len(chain) + 2):
            assert _first_reaching(checkpoints, request, code) == next(
                j for j, ck in enumerate(checkpoints) if ck.progress(request) >= code
            )


class TestProbeDifferential:
    """Probe runs answer exactly what a memory-free engine run would, on
    every SoC's coupling matrix and on a recalibrated copy, and a move's
    resume point is a brute-force scan's."""

    def _check(self, soc, case):
        chains, scale, request, position, tail = case
        makespan_ms = DiscreteEventEngine(
            soc,
            chains,
            enforce_memory=False,
            record=False,
            track_causality=False,
        ).run().makespan_ms
        run = ProbeRun(soc, chains)
        assert run.bounded_ms() == makespan_ms
        cutoff_ms = scale * makespan_ms
        value = run.bounded_ms(cutoff_ms)
        assert value == makespan_ms or (
            value == math.inf and makespan_ms >= cutoff_ms
        )
        replaced = [list(chain) for chain in chains]
        replaced[request] = chains[request][:position] + tail
        fresh_ms = ProbeRun(soc, replaced).bounded_ms()
        run.checkpointed()
        _assert_first_reaching(run.checkpoints, chains)
        code = _first_read(chains[request], replaced[request], position)
        first = next(
            (j for j, ck in enumerate(run.checkpoints) if ck.progress(request) >= code),
            len(run.checkpoints),
        )
        # Checkpoint 0 always serves: a moved first position is re-filed.
        for index in range(max(first, 1)):
            resumed = run.resumed(index, {request: (position, tail)})
            assert resumed.bounded_ms() == fresh_ms
            value = resumed.bounded_ms(scale * fresh_ms)
            assert value == fresh_ms or (
                value == math.inf and fresh_ms >= scale * fresh_ms
            )
            # The move probe's run is the resumed run.
            assert run.moved_ms(index, request, position, tail) == fresh_ms
            assert run.moved_ms(index, request, position, tail, scale * fresh_ms) == value
        # A resumed run's checkpoints, its inherited ones included.
        resumed = run.resumed(max(first, 1) - 1, {request: (position, tail)})
        assert resumed.checkpointed() == fresh_ms
        _assert_first_reaching(resumed.checkpoints, replaced)

    def _check_every_soc(self, data, tasks):
        """One case per SoC of :data:`PROBE_SOCS`, each drawn on its
        own processors."""
        for soc_name, soc in PROBE_SOCS.items():
            case = data.draw(
                probe_cases(functools.partial(tasks, soc_name=soc_name)),
                label=soc_name,
            )
            self._check(soc, case)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_timing_chains(self, data):
        self._check_every_soc(data, timing_tasks)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_zoo_workload_chains(self, data):
        self._check_every_soc(data, zoo_tasks)

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_more_requests_than_a_machine_word(self, soc_name):
        """The five-model mix 14 times over is 70 requests, so a slot's
        ready mask is wider than 64 bits: bounded, checkpointed and
        resumed runs still give the memory-free engine's makespan, the
        resumed one with the last request's chain replaced by one that
        starts on another processor (its exposed head is re-filed)."""
        soc = PROBE_SOCS[soc_name]
        plan = Hetero2PipePlanner(soc).plan([get_model(m) for m in MODEL_MIX]).plan
        chains = replicate_chains(plan_to_chains(plan), 14)
        request = len(chains) - 1
        assert request >= 64
        first = chains[request][0].proc.name
        other = next(chain for chain in chains if chain[0].proc.name != first)
        tail = [task._replace(request=request) for task in other]
        replaced = chains[:request] + [tail]

        def engine_ms(chains):
            return DiscreteEventEngine(
                soc, chains, enforce_memory=False, record=False, track_causality=False
            ).run().makespan_ms

        makespan_ms = engine_ms(chains)
        run = ProbeRun(soc, chains)
        assert run.bounded_ms() == makespan_ms
        assert run.checkpointed() == makespan_ms
        assert max(run.checkpoints[0].ready).bit_length() > 64
        moved_ms = engine_ms(replaced)
        assert run.resumed(0, {request: (0, tail)}).bounded_ms() == moved_ms
        assert run.resumed(0, {request: (0, tail)}).checkpointed() == moved_ms
        assert run.moved_ms(0, request, 0, tail) == moved_ms
        self._check(soc, (chains, 0.9, request, 0, tail))

    def test_rejects_a_processor_of_another_kind(self):
        """A processor named like its slot but of another kind, on the
        task or its workload, would read another coupling than
        slowdown_fraction does: a fresh run rejects it, and so does the
        builder of a resumed run's tails, before it memoizes the tail."""
        profile = _zoo_profiles()[0]
        gpu = KIRIN.processor("gpu")
        impostor = dataclasses.replace(gpu, kind=ProcessorKind.CPU_BIG)
        last = profile.model.num_layers - 1
        for task in (
            ChainTask(0, impostor, 1.0, None, 0.0),
            ChainTask(0, gpu, 1.0, SliceWorkload(profile, impostor, 0, last), 0.0),
        ):
            with pytest.raises(ValueError, match="does not run on"):
                ProbeRun(KIRIN, [[task]])
        fresh = SocProfiler(KIRIN).profile(profile.model)
        processors = tuple(impostor if p is gpu else p for p in KIRIN.processors)
        names = _handoff_names(processors)
        stage = (processors.index(impostor), 0, last)
        with pytest.raises(ValueError, match="does not run on"):
            _probe_tail(KIRIN, 0, fresh, processors, names, [stage])
        assert not fresh.probe_tails

"""Property-based invariants of the event-driven simulator.

Random task chains are generated with hypothesis and the executed
schedule is checked for the properties any correct pipeline execution
must have: per-processor mutual exclusion, chain precedence (Eq. 8),
work conservation, arrival respect, and determinism.  Open-loop runs
with deadlines, cancellations, preemptions and processor faults check
the engine's per-processor ready sets against a brute-force
recomputation after every step, and that replaying them with causality
tracking off simulates exactly the same schedule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.soc import get_soc
from repro.obs.blame import blame_requests
from repro.runtime.engine import DiscreteEventEngine
from repro.runtime.executor import ChainTask, replicate_chains, simulate_chains

KIRIN = get_soc("kirin990")
PROCS = list(KIRIN.processors)


@st.composite
def chains_strategy(draw, max_working_set=1e8):
    """Random request chains without workloads (pure timing tasks)."""
    num_requests = draw(st.integers(1, 5))
    chains = []
    for request in range(num_requests):
        length = draw(st.integers(1, 4))
        chain = []
        for _ in range(length):
            proc = PROCS[draw(st.integers(0, len(PROCS) - 1))]
            solo = draw(
                st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
            )
            chain.append(
                ChainTask(
                    request=request,
                    proc=proc,
                    solo_ms=solo,
                    workload=None,
                    working_set=draw(st.floats(0, max_working_set)),
                )
            )
        chains.append(chain)
    return chains


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
        import copy

        a = simulate_chains(KIRIN, copy.deepcopy(chains))
        b = simulate_chains(KIRIN, copy.deepcopy(chains))
        assert a.makespan_ms == b.makespan_ms
        assert [(r.request, r.start_ms) for r in a.records] == [
            (r.request, r.start_ms) for r in b.records
        ]

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
def open_loop_runs(draw):
    """Chains plus everything that moves a chain head: arrivals,
    deadlines, cancellations, preemptions, processor faults and a
    memory gate tight enough to block and force starts."""
    chains = draw(chains_strategy(max_working_set=0.6 * KIRIN.memory_capacity_bytes))
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


def _drive(run, track_causality=True):
    engine = DiscreteEventEngine(
        KIRIN,
        replicate_chains(run["chains"], 1),  # engine tasks are mutable
        arrivals=run["arrivals"],
        deadline_ms=run["deadline_ms"],
        processor_offline_ms=run["offline"],
        enforce_memory=run["enforce_memory"],
        record=False,
        track_causality=track_causality,
    )
    for request, at_ms in run["cancellations"]:
        engine.schedule_cancellation(request, at_ms)
    for request, at_ms in run["preemptions"]:
        engine.schedule_preemption(request, at_ms)
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

"""Tests for the planner hot-path caching layer (core.objective).

Covers the LRU substrate, the plan fingerprint, the memoized objective,
and the planner-level guarantees: cached and uncached planners emit
byte-identical plans over the full zoo x SoC grid, and a repeated
20-request mix stops re-running the event-driven simulation.
"""

import inspect
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.objective import (
    OBJECTIVE_CACHE_SIZE,
    LowerBound,
    LRUCache,
    ObjectiveCache,
    plan_fingerprint,
)
from repro.core.plan import PipelinePlan, StageAssignment
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.core.partition import partition_model
from repro.core.stealing import (
    boundary_moves,
    move_boundary_layer,
    placement_moves,
    single_processor_assignment,
)
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.obs.blame import blame_requests
from repro.profiling.profiler import SocProfiler
from repro.runtime import executor
from repro.runtime.executor import _first_reaching, async_makespan_ms


def canonical(plan: PipelinePlan):
    """Byte-comparable identity of a plan: everything the executor reads."""
    return (
        plan.soc.name,
        tuple(p.name for p in plan.processors),
        plan.order,
        tuple((a.model_name, tuple(a.slices)) for a in plan.assignments),
    )


def assert_first_reaching(anchor):
    """For every request and every progress code of its chain, the
    binary search names the first checkpoint of the anchor's run that a
    brute-force scan finds reaching it."""
    checkpoints = anchor._run.checkpoints
    for request, stages in enumerate(anchor._stages):
        for code in range(2 * len(stages) + 2):
            assert _first_reaching(checkpoints, request, code) == next(
                j for j, ck in enumerate(checkpoints) if ck.progress(request) >= code
            )


def build_plan(soc, names):
    profiler = SocProfiler(soc)
    assignments = []
    for name in names:
        profile = profiler.profile(get_model(name))
        part = partition_model(profile, soc.processors)
        assignments.append(
            StageAssignment(profile=profile, slices=list(part.slices))
        )
    return PipelinePlan(
        soc=soc, processors=tuple(soc.processors), assignments=assignments
    )


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("a") == 10
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_clear_keeps_accounting(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestPlanFingerprint:
    @pytest.fixture(scope="class")
    def kirin(self):
        return get_soc("kirin990")

    def test_equal_plans_equal_fingerprints(self, kirin):
        a = build_plan(kirin, ["resnet50", "vit"])
        b = build_plan(kirin, ["resnet50", "vit"])
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_slice_change_changes_fingerprint(self, kirin):
        a = build_plan(kirin, ["resnet50"])
        before = plan_fingerprint(a)
        # Move one boundary layer; any slice delta must change the key.
        from repro.core.stealing import move_boundary_layer

        moved = False
        for s in range(a.depth - 1):
            for frm, to in ((s, s + 1), (s + 1, s)):
                if move_boundary_layer(
                    a.assignments[0], frm, to, a.processors
                ):
                    moved = True
                    break
            if moved:
                break
        assert moved
        assert plan_fingerprint(a) != before

    def test_order_changes_fingerprint(self, kirin):
        a = build_plan(kirin, ["resnet50", "vit"])
        b = build_plan(kirin, ["resnet50", "vit"])
        b.order = (1, 0)
        assert plan_fingerprint(a) != plan_fingerprint(b)


class TestObjectiveCache:
    @pytest.fixture(scope="class")
    def kirin(self):
        return get_soc("kirin990")

    def test_hit_returns_identical_value(self, kirin):
        plan = build_plan(kirin, ["resnet50", "squeezenet"])
        objective = ObjectiveCache()
        first = objective(plan)
        second = objective(plan)
        assert first == second
        assert first == async_makespan_ms(plan)
        assert objective.hits == 1
        assert objective.misses == 1

    def test_mutation_invalidates_naturally(self, kirin):
        plan = build_plan(kirin, ["resnet50"])
        objective = ObjectiveCache()
        objective(plan)
        from repro.core.stealing import move_boundary_layer

        for s in range(plan.depth - 1):
            if move_boundary_layer(
                plan.assignments[0], s, s + 1, plan.processors
            ):
                break
        # New configuration -> new fingerprint -> fresh simulation.
        assert objective(plan) == async_makespan_ms(plan)
        assert objective.misses == 2

    def test_counters_flow_through_obs(self, kirin):
        plan = build_plan(kirin, ["squeezenet"])
        objective = ObjectiveCache()
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            objective(plan)
            objective(plan)
            counters = rec.metrics.snapshot()["counters"]
        assert counters["objective_cache_misses"] == 1
        assert counters["objective_cache_hits"] == 1

    def test_bounded(self, kirin):
        objective = ObjectiveCache()
        assert objective._cache.maxsize == OBJECTIVE_CACHE_SIZE
        objective._cache.maxsize = 1  # the same LRU, shrunk to one entry
        plan = build_plan(kirin, ["squeezenet"])
        other = build_plan(kirin, ["resnet50"])
        objective(plan)
        objective(other)  # evicts the first key
        objective(plan)
        assert objective.evictions >= 1
        assert objective.misses == 3


MIX = ["yolov4", "bert", "squeezenet", "resnet50", "vit"]


class TestPlannerCacheCorrectness:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_cached_equals_uncached_over_full_zoo(self, soc_name):
        """Every zoo model on every SoC: caching must not change plans."""
        soc = get_soc(soc_name)
        models = [get_model(n) for n in MODEL_NAMES]
        cached = Hetero2PipePlanner(soc)  # all caches on by default
        uncached = Hetero2PipePlanner(soc, PlannerConfig.uncached())
        with_cache = cached.plan(models)
        without = uncached.plan(models)
        assert canonical(with_cache.plan) == canonical(without.plan)
        assert with_cache.stealing_moves == without.stealing_moves
        assert with_cache.tail_changed == without.tail_changed
        # Warm re-plan returns the identical plan again.
        warm = cached.plan(models)
        assert canonical(warm.plan) == canonical(without.plan)

    def test_objective_cache_lives_for_one_plan(self):
        planner = Hetero2PipePlanner(get_soc("kirin990"))
        planner.plan([get_model(n) for n in ("resnet50", "vit", "bert")])
        assert planner.objective.misses > 0
        assert len(planner.objective) == 0

    def test_cached_report_is_isolated_from_caller_mutation(self):
        soc = get_soc("kirin990")
        models = [get_model(n) for n in ("resnet50", "vit")]
        planner = Hetero2PipePlanner(soc)
        first = planner.plan(models)
        reference = canonical(first.plan)
        # Vandalize the returned plan; the cache must not see it.
        first.plan.order = tuple(reversed(first.plan.order))
        first.plan.assignments.reverse()
        second = planner.plan(models)
        assert canonical(second.plan) == reference

    def test_repeated_20_request_plan_skips_resimulation(self):
        """Acceptance: re-planning a 20-request mix re-runs zero
        event-driven simulations (the objective_evaluations counter is
        flat) and hits the plan cache."""
        soc = get_soc("kirin990")
        names = ("squeezenet", "mobilenetv2", "alexnet", "googlenet")
        models = [get_model(names[i % len(names)]) for i in range(20)]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            planner = Hetero2PipePlanner(soc)
            first = planner.plan(models)
            cold = rec.metrics.counter("objective_evaluations").value
            assert cold > 0
            second = planner.plan(models)
            warm = rec.metrics.counter("objective_evaluations").value
            counters = rec.metrics.snapshot()["counters"]
        assert warm == cold  # not one more simulation ran
        assert counters["plan_cache_hits"] == 1
        assert canonical(first.plan) == canonical(second.plan)

    def test_objective_cache_reduces_simulations_on_cold_plan(self):
        """Even a single cold plan dedupes re-probed configurations."""
        soc = get_soc("kirin990")
        models = [get_model(n) for n in MIX]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            Hetero2PipePlanner(soc).plan(models)
            with_cache = rec.metrics.counter("objective_evaluations").value
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            Hetero2PipePlanner(soc, PlannerConfig.uncached()).plan(models)
            without = rec.metrics.counter("objective_evaluations").value
        assert with_cache < without

    def test_partition_and_profile_caches_count_hits(self):
        soc = get_soc("kirin990")
        models = [get_model("resnet50"), get_model("resnet50")]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            planner = Hetero2PipePlanner(soc)
            planner.plan(models)
            counters = rec.metrics.snapshot()["counters"]
        # Second resnet50 in the mix reuses both profile and partition.
        assert counters["partition_cache_hits"] >= 1
        assert counters["profile_cache_hits"] >= 1

    def test_streaming_recurring_windows_hit_plan_cache(self):
        from repro.core.online import StreamingPlanner

        soc = get_soc("kirin990")
        stream = [
            get_model(n)
            for n in ("squeezenet", "mobilenetv2") * 3  # 3 identical windows
        ]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            streaming = StreamingPlanner(soc, window_size=2)
            result = streaming.run(stream)
            counters = rec.metrics.snapshot()["counters"]
        assert result.num_requests == 6
        assert counters["plan_cache_hits"] == 2  # windows 2 and 3


class TestProbeCost:
    """Objective probes and plain runs pay only for what they read."""

    def test_probe_runs_without_causality(self, monkeypatch):
        seen = []
        engine = executor.DiscreteEventEngine

        class Spy(engine):
            def __init__(self, *args, **kwargs):
                # The executor forwards options, so resolve the defaults.
                bound = inspect.signature(engine).bind(*args, **kwargs)
                bound.apply_defaults()
                seen.append(bound.arguments["track_causality"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor, "DiscreteEventEngine", Spy)
        plan = build_plan(get_soc("kirin990"), ["resnet50", "vit", "bert"])
        probe = async_makespan_ms(plan)
        assert seen == []  # a probe is a ProbeRun: it builds no engine
        # The three adapters build their engine with causality off, so
        # a blame reader that forgot to opt in fails loudly.
        runs = [
            executor.simulate_chains(
                plan.soc, executor.plan_to_chains(plan), enforce_memory=False
            ),
            executor.execute_plan(plan, enforce_memory=False),
            executor.execute_plan_perturbed(
                plan, {"gpu": 1.0}, enforce_memory=False
            ),
        ]
        assert seen == [False, False, False]
        for run in runs:
            assert run.makespan_ms == probe
            assert run.causality == [] and run.corun_inflation_ms == {}
            with pytest.raises(ValueError, match="causality"):
                blame_requests(run)
        # A reader opts in; the simulated times do not depend on it.
        full = executor.execute_plan(
            plan, enforce_memory=False, track_causality=True
        )
        assert seen[-1] is True
        assert full.makespan_ms == probe
        assert full.causality
        blames = blame_requests(full)
        assert len(blames) == plan.num_requests
        assert all(abs(b.residue_ms) <= 1e-9 for b in blames)

    def test_invalidate_caches_drops_the_slice_task_memo(self):
        planner = Hetero2PipePlanner(get_soc("kirin990"))
        models = [get_model(n) for n in ("resnet50", "vit")]
        planner.plan(models)
        profiles = [planner.profiler.profile(m) for m in models]
        assert all(p.slice_tasks for p in profiles)
        assert any(p.probe_tails for p in profiles)
        planner.invalidate_caches()
        assert not any(p.slice_tasks or p.probe_tails for p in profiles)

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_warm_memo_plans_match_a_fresh_profiler(self, soc_name):
        """Zoo x SoC grid: a planner whose memos hold another plan's
        probes emits the plan, and simulates the makespans, of a planner
        built from a fresh profiler, and its search does the same
        objective work (the objective cache lives for one plan)."""
        soc = get_soc(soc_name)
        models = [get_model(n) for n in MODEL_NAMES]
        warm = Hetero2PipePlanner(soc)
        warm.plan(models[::-1])
        cold = Hetero2PipePlanner(soc)
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            report = warm.plan(models)
            warm_counters = rec.metrics.snapshot()["counters"]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            fresh = cold.plan(models)
            fresh_counters = rec.metrics.snapshot()["counters"]
        search = (
            "objective_cache_hits",
            "objective_cache_misses",
            "objective_evaluations",
            "objective_probes_pruned",
            "objective_probes_resumed",
            "engine_steps",
            "slowdown_evaluations",
        )
        assert {k: warm_counters[k] for k in search} == {
            k: fresh_counters[k] for k in search
        }
        assert plan_fingerprint(report.plan) == plan_fingerprint(fresh.plan)
        assert async_makespan_ms(report.plan) == async_makespan_ms(fresh.plan)
        assert (
            executor.execute_plan(report.plan).makespan_ms
            == executor.execute_plan(fresh.plan).makespan_ms
        )


@pytest.fixture(scope="module")
def profilers():
    """One profiler per SoC, shared by this module's plans."""
    return {name: SocProfiler(get_soc(name)) for name in SOC_NAMES}


def shared_plan(profilers, soc_name, names):
    """Like :func:`build_plan`, with the module's profiler for the SoC."""
    soc = get_soc(soc_name)
    profiler = profilers[soc_name]
    assignments = []
    for name in names:
        profile = profiler.profile(get_model(name))
        part = partition_model(profile, soc.processors)
        assignments.append(
            StageAssignment(profile=profile, slices=list(part.slices))
        )
    return PipelinePlan(
        soc=soc, processors=tuple(soc.processors), assignments=assignments
    )


def fresh_makespan(plan):
    return executor.execute_plan(plan, enforce_memory=False).makespan_ms


def apply_move(plan, request, stage, rightward):
    """One boundary move, indices wrapped onto the plan; False if refused."""
    i = request % plan.num_requests
    s = stage % (plan.depth - 1)
    frm, to = (s, s + 1) if rightward else (s + 1, s)
    return move_boundary_layer(plan.assignments[i], frm, to, plan.processors)


def apply_placement(plan, request, stage):
    i = request % plan.num_requests
    candidate = single_processor_assignment(
        plan.assignments[i], stage % plan.depth, plan.processors
    )
    if candidate is None:
        return False
    plan.assignments[i] = candidate
    return True


def move_first_stage(plan, request, _stage, _rightward):
    """Move the request's first stage onto another processor: its first
    layer one stage left, or else its whole first stage rightward."""
    assignment = plan.assignments[request % plan.num_requests]
    first = next(k for k, slc in enumerate(assignment.slices) if slc is not None)
    if first > 0:
        return move_boundary_layer(assignment, first, first - 1, plan.processors)
    while assignment.slices[0] is not None:
        if not move_boundary_layer(assignment, 0, 1, plan.processors):
            return False
    return True


def neighbours(plan):
    """Every single boundary move and placement of ``plan``."""
    for i in range(plan.num_requests):
        for s in range(plan.depth - 1):
            for rightward in (True, False):
                trial = plan.copy()
                if apply_move(trial, i, s, rightward):
                    yield trial
        for stage in range(plan.depth):
            trial = plan.copy()
            if apply_placement(trial, i, stage):
                yield trial


moves = st.tuples(st.integers(0, 5), st.integers(0, 3), st.booleans())

#: A neighbour of a plan: a boundary move, a whole placement, or a move
#: of a first stage onto another processor.
neighbour_moves = st.one_of(
    st.tuples(st.just(apply_move), moves),
    st.tuples(
        st.just(apply_placement),
        st.tuples(st.integers(0, 5), st.integers(0, 4)),
    ),
    st.tuples(st.just(move_first_stage), moves),
)


#: Mixes whose plans exercise anchoring, resuming and pruning.
PROBE_MIXES = [
    ("yolov4", "bert", "squeezenet", "resnet50", "vit"),
    ("alexnet", "mobilenetv2", "googlenet"),
    ("vit", "vit", "bert", "resnet50"),
]


class TestIncrementalProbes:
    """Cutoffs and anchors change what a probe simulates, never its answer."""

    @pytest.fixture(scope="class")
    def kirin(self):
        return get_soc("kirin990")

    @settings(max_examples=60, deadline=None)
    @given(
        soc_name=st.sampled_from(SOC_NAMES),
        names=st.lists(st.sampled_from(MODEL_NAMES), min_size=2, max_size=5),
        anchor_moves=st.lists(moves, max_size=6),
        probe=st.one_of(
            st.tuples(st.just("move"), moves),
            st.tuples(
                st.just("place"),
                st.tuples(st.integers(0, 5), st.integers(0, 4), st.just(False)),
            ),
        ),
        cutoff_scale=st.one_of(st.none(), st.floats(0.8, 1.2)),
    )
    def test_probe_is_fresh_value_or_proven_loss(
        self, profilers, soc_name, names, anchor_moves, probe, cutoff_scale
    ):
        plan = shared_plan(profilers, soc_name, names)
        for move in anchor_moves:
            apply_move(plan, *move)
        cache = ObjectiveCache()
        cache.anchor(plan)
        neighbour = plan.copy()
        kind, (request, stage, rightward) = probe
        if kind == "move":
            apply_move(neighbour, request, stage, rightward)
        else:
            apply_placement(neighbour, request, stage)
        fresh = fresh_makespan(neighbour)
        cutoff = math.inf if cutoff_scale is None else fresh * cutoff_scale
        value = cache(neighbour, stop_at_ms=cutoff)
        if value == math.inf:
            assert fresh >= cutoff
        else:
            assert value == fresh  # bit for bit
        assert_first_reaching(cache._anchor)

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_neighbourhood_resumes_and_prunes_exactly(self, profilers, soc_name):
        plan = shared_plan(profilers, soc_name, MIX)
        cache = ObjectiveCache()
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            cache.anchor(plan)
            for trial in neighbours(plan):
                fresh = fresh_makespan(trial)
                value = cache(trial, stop_at_ms=0.9 * fresh)
                assert value == math.inf or value == fresh
                # An exact value or a bound at a higher cutoff answers
                # a repeat with this cutoff; a higher one is exact.
                assert cache(trial, stop_at_ms=0.9 * fresh) == value
                assert cache(trial, stop_at_ms=math.inf) == fresh
            counters = rec.metrics.snapshot()["counters"]
        # Every neighbour resumes, first positions moved to another
        # processor included.
        assert counters["objective_probes_resumed"] == cache.misses
        assert counters["objective_probes_pruned"] > 0
        assert counters["objective_evaluations"] == cache.misses + 1  # + anchor

    @settings(max_examples=60, deadline=None)
    @given(
        soc_name=st.sampled_from(SOC_NAMES),
        names=st.lists(st.sampled_from(MODEL_NAMES), min_size=2, max_size=5),
        anchor_moves=st.lists(moves, max_size=4),
        step=neighbour_moves,
        probes=st.lists(
            st.tuples(neighbour_moves, st.floats(0.8, 1.2)), min_size=1, max_size=4
        ),
    )
    def test_chained_anchor_probes_are_fresh_values_or_proven_losses(
        self, profilers, soc_name, names, anchor_moves, step, probes
    ):
        """Anchor A, then a neighbour B of A, which forks from A and so
        inherits A's checkpoints before its fork point; B's neighbours
        resume from those as well as from B's own."""
        plan = shared_plan(profilers, soc_name, names)
        for move in anchor_moves:
            apply_move(plan, *move)
        cache = ObjectiveCache()
        cache.anchor(plan)
        chained = plan.copy()
        apply, args = step
        apply(chained, *args)
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            cache.anchor(chained)
            for (apply, args), scale in probes:
                neighbour = chained.copy()
                apply(neighbour, *args)
                fresh = fresh_makespan(neighbour)
                cutoff = fresh * scale
                value = cache(neighbour, stop_at_ms=cutoff)
                if value == math.inf:
                    assert fresh >= cutoff
                else:
                    assert value == fresh  # bit for bit
            counters = rec.metrics.snapshot()["counters"]
        assert counters.get("objective_probes_resumed", 0) == cache.misses
        # The chained anchor's run, its inherited checkpoints included.
        assert_first_reaching(cache._anchor)

    @settings(max_examples=80, deadline=None)
    @given(
        soc_name=st.sampled_from(SOC_NAMES),
        names=st.lists(st.sampled_from(MODEL_NAMES), min_size=2, max_size=5),
        anchor_moves=st.lists(moves, max_size=6),
        request=st.integers(0, 4),
        kind=st.sampled_from([boundary_moves, placement_moves]),
        pick=st.integers(0, 7),
        cutoff_scale=st.floats(0.8, 1.2),
    )
    def test_move_probe_is_the_moved_plans_probe(
        self, profilers, soc_name, names, anchor_moves, request, kind, pick,
        cutoff_scale,
    ):
        """An anchor's move probe keys, values and leaves the plan as a
        probe of the moved plan would, without building that plan."""
        plan = shared_plan(profilers, soc_name, names)
        for move in anchor_moves:
            apply_move(plan, *move)
        request %= plan.num_requests
        candidates = [
            slices for slices, _ in kind(plan.assignments[request], plan.processors)
        ]
        assume(candidates)
        slices = candidates[pick % len(candidates)]
        moved = plan.copy()
        moved.assignments[request].slices = list(slices)
        fresh = async_makespan_ms(moved)
        cutoff = fresh * cutoff_scale
        assignments = list(plan.assignments)
        before = [(a.slices, list(a.slices)) for a in assignments]
        cache = ObjectiveCache()
        probe = cache.anchor(plan)
        value = probe(request, slices, cutoff)
        # Not a slice list of the plan was replaced, or written to.
        assert all(a is b for a, b in zip(plan.assignments, assignments))
        for a, (held, copied) in zip(assignments, before):
            assert a.slices is held and a.slices == copied
        # The probe's entry is the moved plan's: anchor plus probe, and a
        # whole-plan probe of the moved plan is answered from it.
        assert len(cache) == 2 and plan_fingerprint(moved) in cache._cache
        assert cache(moved, stop_at_ms=cutoff) == value
        assert (cache.hits, cache.misses) == (1, 1)
        if value == math.inf:
            assert fresh >= cutoff
        else:
            assert value == fresh  # bit for bit
        assert_first_reaching(cache._anchor)

    def test_pruned_entry_answers_only_lower_cutoffs(self, kirin):
        plan = build_plan(kirin, ["resnet50", "vit", "bert"])
        fresh = fresh_makespan(plan)
        cache = ObjectiveCache()
        assert cache(plan, stop_at_ms=fresh * 0.5) == math.inf
        assert cache.misses == 1
        assert cache(plan, stop_at_ms=fresh * 0.4) == math.inf
        assert (cache.hits, cache.misses) == (1, 1)
        # A higher cutoff is not answered by the bound: it re-simulates.
        assert cache(plan, stop_at_ms=fresh * 0.6) == math.inf
        assert cache.misses == 2
        assert cache(plan) == fresh
        assert cache.misses == 3
        assert cache(plan, stop_at_ms=fresh * 0.5) == fresh
        assert cache.hits == 2

    def test_pruned_spans_carry_no_makespan(self, kirin):
        plan = build_plan(kirin, ["resnet50", "vit", "bert"])
        fresh = fresh_makespan(plan)
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            ObjectiveCache()(plan, stop_at_ms=fresh * 0.5)
            spans = [s for s in rec.all_spans() if s.name == "plan.objective"]
        assert [s.attrs.get("pruned") for s in spans] == [True]
        assert "makespan_ms" not in spans[0].attrs

    def test_bare_objective_prunes(self, kirin):
        plan = build_plan(kirin, ["resnet50", "vit", "bert"])
        fresh = fresh_makespan(plan)
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            # The solo work alone reaches 1 ms: pruned before a step.
            assert async_makespan_ms(plan, stop_at_ms=1.0) == math.inf
            counters = rec.metrics.snapshot()["counters"]
        assert counters["objective_probes_pruned"] == 1
        assert counters["engine_steps"] == 0
        assert async_makespan_ms(plan, stop_at_ms=fresh * 1.01) == fresh
        assert async_makespan_ms(plan) == fresh

    def test_lower_bound_entry_is_the_cutoff(self, kirin):
        plan = build_plan(kirin, ["resnet50"])
        cache = ObjectiveCache()
        cache(plan, stop_at_ms=1.0)
        assert cache._cache.get(plan_fingerprint(plan)) == LowerBound(1.0)

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("names", PROBE_MIXES)
    def test_cache_on_and_off_plan_identically(self, soc_name, names):
        """The cached planner anchors, resumes and prunes; the uncached
        one prunes but never resumes; both emit the same plan."""
        soc = get_soc(soc_name)
        models = [get_model(n) for n in names]
        counters = {}
        reports = {}
        for label, config in (
            ("cached", PlannerConfig()),
            ("uncached", PlannerConfig.uncached()),
        ):
            with obs.use_recorder(obs.InMemoryRecorder()) as rec:
                reports[label] = Hetero2PipePlanner(soc, config).plan(models)
                counters[label] = rec.metrics.snapshot()["counters"]
        cached, uncached = reports["cached"], reports["uncached"]
        assert plan_fingerprint(cached.plan) == plan_fingerprint(uncached.plan)
        assert cached.stealing_moves == uncached.stealing_moves
        assert cached.tail_changed == uncached.tail_changed
        assert counters["cached"]["objective_probes_resumed"] > 0
        assert "objective_probes_resumed" not in counters["uncached"]
        assert counters["uncached"]["objective_probes_pruned"] > 0

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("names", PROBE_MIXES)
    def test_recorder_on_and_off_plan_identically(self, soc_name, names):
        """A probe opens spans and counts metrics only with the recorder
        on; either way the planner emits the same plan from the same
        cache hits and misses."""
        soc = get_soc(soc_name)
        models = [get_model(n) for n in names]
        seen = []
        for recorder in (obs.NullRecorder(), obs.InMemoryRecorder()):
            planner = Hetero2PipePlanner(soc)
            with obs.use_recorder(recorder):
                report = planner.plan(models)
            seen.append(
                (
                    plan_fingerprint(report.plan),
                    report.stealing_moves,
                    planner.objective.hits,
                    planner.objective.misses,
                )
            )
        assert seen[0] == seen[1]
        assert seen[0][3] > 0

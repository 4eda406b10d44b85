"""Tests for the horizontal DP partitioner (Algorithm 1)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    make_slice_cost,
    min_makespan_partition,
    min_makespan_partition_fast,
    partition_model,
)
from repro.hardware.soc import get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.profiling.profiler import ModelProfile


def brute_force_makespan(n, k, cost):
    """Enumerate all partitions with empty slices allowed."""
    best = math.inf
    # place k-1 dividers (with repetition) among positions 0..n
    for cuts in itertools.combinations_with_replacement(range(n + 1), k - 1):
        bounds = [0, *cuts, n]
        worst = 0.0
        for stage in range(k):
            lo, hi = bounds[stage], bounds[stage + 1]
            if lo < hi:
                worst = max(worst, cost(stage, lo, hi - 1))
        best = min(best, worst)
    return best


def additive_cost(per_stage_layer):
    def cost(k, i, j):
        return sum(per_stage_layer[k][i : j + 1])

    return cost


class TestReferenceDP:
    def test_single_stage(self):
        per = [[1.0, 2.0, 3.0]]
        makespan, slices = min_makespan_partition(3, 1, additive_cost(per))
        assert makespan == 6.0
        assert slices == [(0, 2)]

    def test_two_identical_stages_balance(self):
        per = [[1.0] * 4, [1.0] * 4]
        makespan, slices = min_makespan_partition(4, 2, additive_cost(per))
        assert makespan == 2.0
        assert slices == [(0, 1), (2, 3)]

    def test_empty_stage_allowed_when_one_dominates(self):
        # Stage 0 is 100x faster: everything should go there.
        per = [[0.01] * 4, [1.0] * 4]
        makespan, slices = min_makespan_partition(4, 2, additive_cost(per))
        assert slices == [(0, 3), None]
        assert makespan == pytest.approx(0.04)

    def test_infeasible_layer_forces_fallback(self):
        per = [[1.0] * 4, [1.0] * 4]

        def cost(k, i, j):
            if k == 0 and any(t == 2 for t in range(i, j + 1)):
                return math.inf
            return additive_cost(per)(k, i, j)

        makespan, slices = min_makespan_partition(4, 2, cost)
        # layer 2 must live on stage 1.
        assert slices[1] is not None
        start, end = slices[1]
        assert start <= 2 <= end

    def test_totally_infeasible_raises(self):
        def cost(k, i, j):
            return math.inf

        with pytest.raises(ValueError):
            min_makespan_partition(3, 2, cost)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            min_makespan_partition(0, 2, lambda k, i, j: 1.0)
        with pytest.raises(ValueError):
            min_makespan_partition(3, 0, lambda k, i, j: 1.0)

    @given(
        st.integers(1, 7),
        st.integers(1, 4),
        st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, n, k, seed):
        import random

        rng = random.Random(seed)
        per = [[rng.uniform(0.1, 5.0) for _ in range(n)] for _ in range(k)]
        cost = additive_cost(per)
        expected = brute_force_makespan(n, k, cost)
        got, slices = min_makespan_partition(n, k, cost)
        assert got == pytest.approx(expected)
        # Returned slices achieve the claimed makespan.
        achieved = max(
            (cost(s, lo, hi) for s, sl in enumerate(slices) if sl for lo, hi in [sl]),
            default=0.0,
        )
        assert achieved == pytest.approx(got)


class TestFastDP:
    @given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_fast_matches_reference_on_monotone_costs(self, n, k, seed):
        import random

        rng = random.Random(seed)
        per = [[rng.uniform(0.1, 5.0) for _ in range(n)] for _ in range(k)]
        cost = additive_cost(per)
        ref, _ = min_makespan_partition(n, k, cost)
        fast, _ = min_makespan_partition_fast(n, k, cost)
        assert fast == pytest.approx(ref)

    def test_fast_with_infeasible_suffix(self):
        per = [[1.0] * 5, [1.0] * 5]

        def cost(k, i, j):
            if k == 0 and j >= 3:
                return math.inf
            return additive_cost(per)(k, i, j)

        ref, _ = min_makespan_partition(5, 2, cost)
        fast, _ = min_makespan_partition_fast(5, 2, cost)
        assert fast == pytest.approx(ref)


class TestPartitionModel:
    @pytest.fixture(scope="class")
    def kirin(self):
        return get_soc("kirin990")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_makespan_never_exceeds_best_solo(self, kirin, name):
        profile = ModelProfile(get_model(name), kirin)
        result = partition_model(profile, kirin.processors)
        best_solo = min(
            profile.whole_model_ms(p)
            for p in kirin.processors
            if profile.feasible(p, 0, profile.model.num_layers - 1)
        )
        assert result.makespan_ms <= best_solo + 1e-9

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_slices_are_contiguous_cover(self, kirin, name):
        profile = ModelProfile(get_model(name), kirin)
        result = partition_model(profile, kirin.processors)
        expected = 0
        for slc in result.slices:
            if slc is None:
                continue
            start, end = slc
            assert start == expected
            expected = end + 1
        assert expected == profile.model.num_layers

    def test_bert_avoids_npu_entirely(self, kirin):
        profile = ModelProfile(get_model("bert"), kirin)
        result = partition_model(profile, kirin.processors)
        npu_stage = [
            k for k, p in enumerate(kirin.processors) if p.name == "npu"
        ][0]
        assert result.slices[npu_stage] is None

    def test_stage_times_consistent_with_makespan(self, kirin):
        profile = ModelProfile(get_model("vgg16"), kirin)
        result = partition_model(profile, kirin.processors)
        assert max(result.stage_times_ms) == pytest.approx(result.makespan_ms)
        assert result.total_time_ms() >= result.makespan_ms

    def test_occupied_stages(self, kirin):
        profile = ModelProfile(get_model("vit"), kirin)
        result = partition_model(profile, kirin.processors)
        for k in result.occupied_stages():
            assert result.slices[k] is not None

    def test_empty_processor_list_rejected(self, kirin):
        profile = ModelProfile(get_model("vit"), kirin)
        with pytest.raises(ValueError):
            partition_model(profile, [])

    def test_slice_cost_callback_excludes_copy_when_asked(self, kirin):
        profile = ModelProfile(get_model("resnet50"), kirin)
        with_copy = make_slice_cost(profile, kirin.processors, include_copy=True)
        without = make_slice_cost(profile, kirin.processors, include_copy=False)
        assert with_copy(0, 0, 5) >= without(0, 0, 5)


class TestFastDPWithInfeasibleLayers:
    """Fast solver exactness when some (stage, layer) pairs are
    INFEASIBLE — additive costs with per-stage unsupported layers stay
    monotone (a superset slice still contains the bad layer), so the
    binary-search DP must stay exact, including the all-infeasible
    ValueError path."""

    @given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_fast_matches_reference_with_unsupported_layers(
        self, n, k, seed
    ):
        import random

        rng = random.Random(seed)
        per = [[rng.uniform(0.1, 5.0) for _ in range(n)] for _ in range(k)]
        # Each stage refuses a random subset of layers (NPU-style).
        unsupported = [
            {ly for ly in range(n) if rng.random() < 0.25} for _ in range(k)
        ]
        base = additive_cost(per)

        def cost(stage, i, j):
            if any(ly in unsupported[stage] for ly in range(i, j + 1)):
                return math.inf
            return base(stage, i, j)

        try:
            ref, ref_slices = min_makespan_partition(n, k, cost)
        except ValueError:
            with pytest.raises(ValueError):
                min_makespan_partition_fast(n, k, cost)
            return
        fast, fast_slices = min_makespan_partition_fast(n, k, cost)
        assert fast == pytest.approx(ref)
        # Fast slices must be feasible and achieve the same makespan.
        achieved = max(
            (
                cost(s, lo, hi)
                for s, sl in enumerate(fast_slices)
                if sl
                for lo, hi in [sl]
            ),
            default=0.0,
        )
        assert achieved == pytest.approx(ref)

    @pytest.mark.parametrize("name", ["bert", "vit", "resnet50"])
    def test_fast_matches_exact_on_copyfree_zoo_costs(self, name):
        # bert carries NPU-unsupported layers on kirin990, so this
        # exercises the INFEASIBLE path on a real profile.
        soc = get_soc("kirin990")
        profile = ModelProfile(get_model(name), soc)
        cost = make_slice_cost(profile, soc.processors, include_copy=False)
        n = profile.model.num_layers
        k = len(soc.processors)
        ref, _ = min_makespan_partition(n, k, cost)
        fast, _ = min_makespan_partition_fast(n, k, cost)
        assert fast == pytest.approx(ref)


class TestDpCellAccounting:
    def test_counter_matches_solver_issued_calls_exactly(self):
        """``dp_cells_evaluated`` must count only slice costs the DP
        solver asked for — not the post-solve stage-time recompute (the
        old code inflated the counter by one per occupied stage)."""
        from repro import obs

        soc = get_soc("kirin990")
        profile = ModelProfile(get_model("resnet50"), soc)
        n = profile.model.num_layers
        k = len(soc.processors)
        calls = 0
        base = make_slice_cost(profile, soc.processors)

        def counting(stage, i, j):
            nonlocal calls
            calls += 1
            return base(stage, i, j)

        min_makespan_partition(n, k, counting)
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            result = partition_model(profile, soc.processors)
            counted = rec.metrics.counter("dp_cells_evaluated").value
        assert counted == calls
        # The recompute-free counter is still attached to a solved plan.
        assert len(result.occupied_stages()) >= 1

"""Deeper unit coverage of experiment-module internals and renders,
plus a fuzz of the boundary-move machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import partition_model
from repro.core.plan import StageAssignment
from repro.core.stealing import move_boundary_layer
from repro.experiments import (
    ext_energy,
    ext_scaling,
    fig1_processor_latency,
    fig2_motivation,
    fig7_overall,
    fig9_memory,
    fig10_intracluster,
    fig12_bubble_latency,
    fig13_batching,
    table2_slowdown,
)
from repro.hardware.soc import get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.profiling.profiler import SocProfiler
from repro.workloads.generator import WorkloadSpec


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


class TestFig7Internals:
    @pytest.fixture(scope="class")
    def summary(self, kirin):
        summaries = fig7_overall.run(
            soc_names=("kirin990",), num_combinations=4
        )
        return summaries[0]

    def test_mean_metrics(self, summary):
        for scheme in fig7_overall.SCHEMES:
            assert summary.mean_latency_ms(scheme) > 0
            assert summary.mean_throughput(scheme) > 0

    def test_speedup_tuple_ordering(self, summary):
        gm, hi, lo = summary.speedup_over("mnn")
        assert lo <= gm <= hi

    def test_band_scatter_fraction(self, summary):
        scatter_all = summary.band_scatter(fraction=1.0)
        scatter_third = summary.band_scatter(fraction=0.34)
        assert len(scatter_all) == summary.matrix.num_workloads
        assert len(scatter_third) <= len(scatter_all)

    def test_render_contains_all_schemes(self, summary):
        text = fig7_overall.render([summary])
        for scheme in fig7_overall.SCHEMES:
            assert scheme in text

    def test_render_charts(self, summary):
        text = fig7_overall.render_charts([summary])
        assert "kirin990" in text


class TestRenders:
    def test_fig1_render_chart(self):
        rows = fig1_processor_latency.run()
        chart = fig1_processor_latency.render_chart(rows)
        assert "alexnet" in chart and "#" in chart

    def test_fig2_renders(self):
        comparison = fig2_motivation.run_queueing()
        text = fig2_motivation.render_queueing(comparison)
        assert "serial_delay" in text
        rows = fig2_motivation.run_demands()
        assert "intensity" in fig2_motivation.render_demands(rows)

    def test_table2_render(self):
        text = table2_slowdown.render(table2_slowdown.run())
        assert "slowdown_%" in text

    def test_fig9_render_traces(self):
        traces = fig9_memory.run()
        text = fig9_memory.render_traces(traces)
        assert "memory freq" in text

    def test_fig10_render(self):
        text = fig10_intracluster.render(fig10_intracluster.run())
        assert "BB-BB" in text

    def test_fig12_render_scatter(self):
        results = fig12_bubble_latency.run(num_plans=10)
        text = fig12_bubble_latency.render_scatter(results)
        assert "slope" in text

    def test_fig13_render(self):
        text = fig13_batching.render(fig13_batching.run())
        assert "marginal_ms" in text

    def test_ext_energy_render_sorted(self):
        rows = ext_energy.run(num_combinations=2)
        text = ext_energy.render(rows)
        lines = [line for line in text.splitlines()[2:] if line.strip()]
        assert len(lines) == 4

    def test_ext_scaling_renders(self, kirin):
        counts = ext_scaling.run_request_scaling()
        assert "throughput" in ext_scaling.render_counts(counts)
        sizes = ext_scaling.run_size_scaling()
        assert "speedup" in ext_scaling.render_sizes(sizes)


class TestWorkloadSpec:
    def test_len_and_models(self):
        spec = WorkloadSpec(index=0, model_names=("vit", "bert"))
        assert len(spec) == 2
        assert [m.name for m in spec.models()] == ["vit", "bert"]


class TestBoundaryMoveFuzz:
    @given(
        st.sampled_from(MODEL_NAMES),
        st.lists(
            st.tuples(st.integers(0, 3), st.booleans()),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_move_sequences_keep_assignments_valid(
        self, model_name, moves
    ):
        kirin = get_soc("kirin990")
        profiler = SocProfiler(kirin)
        profile = profiler.profile(get_model(model_name))
        partition = partition_model(profile, kirin.processors)
        assignment = StageAssignment(
            profile=profile, slices=list(partition.slices)
        )
        n = profile.model.num_layers
        for stage, rightward in moves:
            if stage >= len(kirin.processors) - 1:
                continue
            frm, to = (stage, stage + 1) if rightward else (stage + 1, stage)
            move_boundary_layer(assignment, frm, to, kirin.processors)
            # The invariant: every applied (or rejected) move leaves a
            # contiguous, complete, feasible cover.
            assignment.validate()
            assert assignment.is_feasible(kirin.processors)
            covered = sum(
                s[1] - s[0] + 1 for s in assignment.slices if s is not None
            )
            assert covered == n

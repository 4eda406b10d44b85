"""Tests of the experiment harness: shapes the paper's figures must show."""

import pytest

from repro.experiments import (
    fig1_processor_latency,
    fig2_motivation,
    fig9_memory,
    fig10_intracluster,
    fig12_bubble_latency,
    fig13_batching,
    searchspace,
    table1_comparison,
    table2_slowdown,
)
from repro.experiments.common import format_table, geomean
from repro.hardware.soc import get_soc


class TestCommon:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_invalid(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])


class TestFig1:
    def test_npu_errors_exactly_for_yolo_and_bert(self):
        rows = fig1_processor_latency.run()
        errored = {
            r.model for r in rows if r.latency_ms.get("npu") is None
        }
        assert errored == {"yolov4", "bert"}

    def test_npu_fastest_when_supported(self):
        for row in fig1_processor_latency.run():
            npu = row.latency_ms.get("npu")
            if npu is None:
                continue
            others = [
                v
                for k, v in row.latency_ms.items()
                if k != "npu" and v is not None
            ]
            assert npu < min(others)

    def test_small_cluster_slowest(self):
        for row in fig1_processor_latency.run():
            small = row.latency_ms["cpu_small"]
            big = row.latency_ms["cpu_big"]
            assert small > 2 * big

    def test_render_marks_errors(self):
        text = fig1_processor_latency.main()
        assert "ERR" in text
        assert "yolov4" in text


class TestFig2:
    def test_serial_queueing_accumulates(self):
        comparison = fig2_motivation.run_queueing()
        serial = comparison.serial.queueing_delay_ms
        # The serial backlog grows; the tail request waits much longer
        # than the head.
        assert serial[-1] > serial[0] + 100.0
        assert (
            comparison.heterogeneous.mean_queueing_delay_ms
            < comparison.serial.mean_queueing_delay_ms
        )

    def test_demand_ranking_has_lightweight_outlier(self):
        rows = fig2_motivation.run_demands()
        order = [r.model for r in rows]
        # Observation 3: squeezenet ranks above the big vit.
        assert order.index("squeezenet") < order.index("vit")

    def test_demand_rows_sorted(self):
        rows = fig2_motivation.run_demands()
        intensities = [r.intensity for r in rows]
        assert intensities == sorted(intensities, reverse=True)


class TestTable2:
    def test_slowdowns_in_published_band(self):
        rows = table2_slowdown.run()
        for row in rows:
            assert 0.0 < row.slowdown_pct < 40.0
            assert row.co_ms > row.solo_ms

    def test_squeezenet_pair_hurts_bert_more_than_vit_pair(self):
        rows = table2_slowdown.run()
        by_pair = {}
        for i in range(0, len(rows), 2):
            by_pair[rows[i].model] = rows[i + 1].slowdown_pct
        assert by_pair["squeezenet"] > by_pair["vit"]


class TestFig9:
    def test_traces_reproduce_paper_shape(self):
        traces = fig9_memory.run()
        by_label = {t.label: t for t in traces}
        npu_only = by_label["npu_only_lightweight"]
        large = by_label["three_stage_large"]
        soc = get_soc("kirin990")
        # NPU-only run never needs the max memory state...
        assert npu_only.max_freq_mhz < soc.memory_freq_mhz[-1]
        # ...while CPU/GPU pipelines pin it there.
        assert large.max_freq_mhz == soc.memory_freq_mhz[-1]
        # Larger pipelines drain more of the ~2.5 GB headroom.
        assert large.min_available_bytes < npu_only.min_available_bytes
        assert large.min_available_bytes < 1.6e9

    def test_series_accessors(self):
        trace = fig9_memory.run()[0]
        freq = trace.frequency_series()
        avail = trace.available_series()
        assert len(freq) == len(avail) == len(trace.trace)


class TestFig10:
    def test_intra_cluster_high_on_big_cores(self):
        rows = fig10_intracluster.run()
        big_even = [r for r in rows if r.label == "BB-BB"][0]
        assert big_even.victim_slowdown_pct > 40.0

    def test_minority_side_suffers_more(self):
        rows = fig10_intracluster.run()
        even = [r for r in rows if r.label == "BB-BB"][0]
        skew = [r for r in rows if r.label == "BBB-B"][0]
        # In BBB-B the single-core partner (vgg16) is hit harder than in
        # the even split.
        assert skew.partner_slowdown_pct > even.partner_slowdown_pct


class TestFig12:
    def test_bubble_latency_linear(self):
        results = fig12_bubble_latency.run(num_plans=40)
        assert len(results) == 2
        for result in results:
            assert result.fit.slope > 0
            assert result.fit.r_squared > 0.5, (
                f"{result.label}: r^2={result.fit.r_squared:.2f}"
            )


class TestFig13:
    def test_growth_rate_flat_per_processor(self):
        rows = fig13_batching.run()
        assert rows, "no batching rows produced"
        for row in rows:
            spread = max(row.growth_rates) - min(row.growth_rates)
            assert spread <= 0.4 * max(row.growth_rates)

    def test_npu_cheapest_marginal(self):
        rows = fig13_batching.run()
        by_proc = {
            (r.model, r.processor): r.marginal_ms for r in rows
        }
        assert by_proc[("mobilenetv2", "npu")] < by_proc[
            ("mobilenetv2", "cpu_big")
        ]


class TestTable1:
    def test_only_h2p_has_all_capabilities(self):
        rows = table1_comparison.run()
        full = [
            r
            for r in rows
            if r.multi_dnn and r.dnn_heterogeneity and r.pipeline and r.contention
        ]
        assert [r.name for r in full] == ["Hetero2Pipe"]

    def test_implemented_schemes(self):
        implemented = {r.name for r in table1_comparison.run() if r.implemented}
        assert implemented == {"Pipe-it", "Band", "uLayer", "Hetero2Pipe"}


class TestSearchSpace:
    def test_compositions(self):
        assert searchspace.compositions(4, 2) == 3
        assert searchspace.compositions(4, 1) == 1
        assert searchspace.compositions(4, 5) == 0
        assert searchspace.compositions(0, 0) == 1

    def test_pipeline_count_bounds(self):
        counts = searchspace.pipeline_count()
        assert min(counts) >= 2
        assert max(counts) <= 10
        total = sum(counts.values())
        # Same order of magnitude as the paper's 449.
        assert 250 <= total <= 600

    def test_eq12_near_paper_count(self):
        # The printed formula evaluates within ~2 % of the paper's 449.
        assert abs(searchspace.pipeline_count_eq12() - 449) <= 20

    def test_split_count_grows_with_layers(self):
        small = searchspace.split_point_count(10)
        large = searchspace.split_point_count(28)
        assert large > small > 0

    def test_split_count_requires_two_layers(self):
        with pytest.raises(ValueError):
            searchspace.split_point_count(1)

    def test_mobilenet_splits_combinatorially_large(self):
        summary = searchspace.run()
        assert summary.mobilenet_splits > 1e7

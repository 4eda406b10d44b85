"""Integration tests: instrumented planner, merged trace export, CLI.

Covers the observability acceptance criteria end to end: every event in
the merged Chrome trace obeys the schema (``ph`` in {X, M, C, s, f},
monotone per-track timestamps, non-negative durations), the provenance
log replays byte-for-byte into the committed plan, and the ``trace`` /
``stats`` CLI verbs produce loadable artifacts.
"""

import json
from collections import defaultdict

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.obs import reconstruct_plan, render_explanation
from repro.runtime.executor import execute_plan
from repro.runtime.tracing import ascii_gantt, to_chrome_trace

#: A mix whose mitigated order wins: bert (High) and mobilenetv2 (High)
#: arrive adjacent and a Low request is relocated between them.
RELOCATING_MODELS = "bert,mobilenetv2,squeezenet,vit,resnet50,googlenet"

VALID_PHASES = {"X", "M", "C", "s", "f"}


def _models(spec):
    return [get_model(n) for n in spec.split(",")]


def _plan_and_run(model_spec, config=None, trace=True):
    soc = get_soc("kirin990")
    rec = obs.InMemoryRecorder()
    with obs.use_recorder(rec):
        planner = Hetero2PipePlanner(soc, config)
        report = planner.plan(_models(model_spec))
        result = execute_plan(report.plan, trace=trace)
    return soc, rec, report, result


@pytest.fixture(scope="module")
def planned():
    return _plan_and_run("resnet50,yolov4,bert,squeezenet,vit")


@pytest.fixture(scope="module")
def relocated():
    return _plan_and_run(RELOCATING_MODELS)


# ------------------------------------------------------- instrumentation


class TestPlannerInstrumentation:
    def test_span_tree_covers_all_planner_stages(self, planned):
        _, rec, _, _ = planned
        names = {s.name for s in rec.all_spans()}
        assert {
            "plan", "plan.partition", "plan.classify", "plan.mitigate",
            "plan.candidate", "plan.vertical", "plan.steal",
            "plan.refine_global", "plan.placements", "execute",
        } <= names
        roots = [s.name for s in rec.spans]
        assert roots == ["plan", "execute"]

    def test_work_metrics_recorded(self, planned):
        _, rec, report, result = planned
        counters = rec.metrics.snapshot()["counters"]
        assert counters["dp_cells_evaluated"] > 0
        assert counters["requests_scored"] == len(report.scores)
        assert counters["steal_moves"] > 0
        assert counters["objective_evaluations"] > 0
        # Only the real execution counts, not the planner's objective
        # re-simulations.
        assert counters["tasks_executed"] == len(result.records)
        gauges = rec.metrics.snapshot()["gauges"]
        assert gauges["last_plan_makespan_ms"] > 0

    def test_every_span_is_closed(self, planned):
        _, rec, _, _ = planned
        assert all(s.end_s is not None for s in rec.all_spans())

    def test_disabled_recorder_produces_identical_plan(self, planned):
        _, _, instrumented, _ = planned
        soc = get_soc("kirin990")
        planner = Hetero2PipePlanner(soc)
        bare = planner.plan(_models("resnet50,yolov4,bert,squeezenet,vit"))
        assert bare.plan.order == instrumented.plan.order
        assert [a.slices for a in bare.plan.assignments] == [
            a.slices for a in instrumented.plan.assignments
        ]


# ------------------------------------------------------------ round trip


class TestProvenanceRoundTrip:
    def test_reconstructs_unmitigated_plan(self, planned):
        _, rec, report, _ = planned
        order, slices = reconstruct_plan(rec.events)
        assert order == report.plan.order
        assert list(slices) == [
            tuple(a.slices) for a in report.plan.assignments
        ]

    def test_reconstructs_mitigated_plan_with_relocation(self, relocated):
        _, rec, report, _ = relocated
        relocations = [
            e for e in rec.events if e.kind == "request_relocated"
        ]
        assert relocations, "fixture must commit at least one relocation"
        order, slices = reconstruct_plan(rec.events)
        assert order == report.plan.order
        assert order != tuple(range(len(order)))  # mitigation reordered
        assert list(slices) == [
            tuple(a.slices) for a in report.plan.assignments
        ]

    def test_round_trip_for_ablation_configs(self):
        for config in (
            PlannerConfig.no_contention_or_tail(),
            PlannerConfig(enable_work_stealing=False),
        ):
            _, rec, report, _ = _plan_and_run(
                "resnet50,bert,squeezenet", config=config, trace=False
            )
            order, slices = reconstruct_plan(rec.events)
            assert order == report.plan.order
            assert list(slices) == [
                tuple(a.slices) for a in report.plan.assignments
            ]

    def test_incomplete_log_raises(self, planned):
        _, rec, _, _ = planned
        committed = [e for e in rec.events if e.kind == "order_committed"]
        steals = [e for e in rec.events if e.kind == "layer_stolen"]
        with pytest.raises(ValueError):
            reconstruct_plan([])  # no order_committed at all
        with pytest.raises(ValueError):
            reconstruct_plan(steals[:1])  # steal before order
        with pytest.raises(ValueError):
            reconstruct_plan(committed)  # order without slice_chosen

    def test_explanation_narrates_each_stage(self, relocated):
        soc, rec, _, _ = relocated
        text = render_explanation(
            rec.events, processor_names=[p.name for p in soc.processors]
        )
        assert "horizontal partitions" in text
        assert "relocated position" in text
        assert "mitigated order" in text
        assert "boundary move" in text
        assert render_explanation([]).startswith("(no provenance")


# ---------------------------------------------------------- trace schema


class TestChromeTraceSchema:
    @pytest.fixture(scope="class")
    def trace_doc(self, planned):
        _, rec, report, result = planned
        names = [
            _models("resnet50,yolov4,bert,squeezenet,vit")[i].name
            for i in report.plan.order
        ]
        return json.loads(to_chrome_trace(result, names, recorder=rec))

    def test_only_allowed_phases(self, trace_doc):
        phases = {e["ph"] for e in trace_doc["traceEvents"]}
        assert phases <= VALID_PHASES
        assert "X" in phases and "M" in phases and "C" in phases

    def test_x_events_monotone_per_track_nonnegative_dur(self, trace_doc):
        by_track = defaultdict(list)
        for e in trace_doc["traceEvents"]:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
                assert e["ts"] >= 0.0
                by_track[(e["pid"], e["tid"])].append(e["ts"])
        assert by_track, "trace must contain X slices"
        for track, stamps in by_track.items():
            assert stamps == sorted(stamps), f"ts not monotone on {track}"

    def test_process_and_thread_metadata(self, trace_doc):
        meta = [e for e in trace_doc["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        assert process_names[0] == "execution (simulated time)"
        assert process_names[1] == "planner (wall time)"
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert "planner" in thread_names
        assert any(n in thread_names for n in ("cpu_big", "gpu", "npu"))

    def test_counter_tracks_include_queue_depth(self, trace_doc):
        counters = [e for e in trace_doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "queue_depth" in names
        assert "dp_cells_evaluated" in names  # metrics registry track
        depth_samples = [
            e for e in counters if e["name"] == "queue_depth"
        ]
        assert len(depth_samples) >= 2
        for e in depth_samples:
            assert e["args"]["requests"] >= 0

    def test_flow_arrows_pair_up(self, trace_doc):
        flows = [
            e for e in trace_doc["traceEvents"] if e["ph"] in ("s", "f")
        ]
        assert flows, "steal decisions must draw flow arrows"
        by_id = defaultdict(list)
        for e in flows:
            by_id[e["id"]].append(e)
        for flow_id, pair in by_id.items():
            phases = sorted(e["ph"] for e in pair)
            assert phases == ["f", "s"], f"unpaired flow {flow_id}"
            s = next(e for e in pair if e["ph"] == "s")
            f = next(e for e in pair if e["ph"] == "f")
            assert f["bp"] == "e"
            if s["pid"] == f["pid"]:
                # Cross-process arrows span two clock domains, so their
                # timestamps are only comparable within one process.
                assert s["ts"] <= f["ts"]

    def test_relocation_flow_crosses_processes(self):
        soc, rec, report, result = _plan_and_run(RELOCATING_MODELS)
        names = [
            _models(RELOCATING_MODELS)[i].name for i in report.plan.order
        ]
        doc = json.loads(to_chrome_trace(result, names, recorder=rec))
        rel = [
            e
            for e in doc["traceEvents"]
            if e.get("name") == "request_relocated" and e["ph"] in ("s", "f")
        ]
        assert rel, "relocation fixture must draw a flow arrow"
        starts = [e for e in rel if e["ph"] == "s"]
        finishes = [e for e in rel if e["ph"] == "f"]
        assert all(e["pid"] == 1 for e in starts)  # planner process
        assert all(e["pid"] == 0 for e in finishes)  # execution process

    def test_without_recorder_trace_stays_single_process(self, planned):
        _, _, _, result = planned
        doc = json.loads(to_chrome_trace(result))
        assert {e["pid"] for e in doc["traceEvents"]} == {0}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"X", "M", "C"}


# ------------------------------------------------------------ ascii gantt


class TestAsciiGantt:
    def test_minimum_width_renders_clean_ruler(self, planned):
        _, _, _, result = planned
        text = ascii_gantt(result, width=10)
        ruler = next(line for line in text.splitlines() if "0 ms" in line)
        assert "-" in ruler  # dashes clamp to >= 1 instead of vanishing
        assert "ms" in ruler

    def test_width_below_minimum_rejected(self, planned):
        _, _, _, result = planned
        with pytest.raises(ValueError):
            ascii_gantt(result, width=9)

    def test_rows_match_requested_width(self, planned):
        _, _, _, result = planned
        lines = ascii_gantt(result, width=24).splitlines()
        body = [line for line in lines if "|" in line]
        assert body
        for line in body:
            start = line.index("|")
            assert line.rindex("|") - start - 1 == 24


# ------------------------------------------------------------------- CLI


class TestObservabilityCli:
    def test_trace_verb_writes_loadable_perfetto_json(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = cli_main(
            [
                "trace", "--soc", "kirin990",
                "--models", "resnet50,yolov4", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= VALID_PHASES
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert any(
            e["ph"] == "C" and e["name"] == "queue_depth"
            for e in doc["traceEvents"]
        )
        assert "chrome trace written" in capsys.readouterr().out

    def test_stats_verb_prints_metrics_and_explanation(self, capsys):
        code = cli_main(
            ["stats", "--soc", "kirin990", "--models", RELOCATING_MODELS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "dp_cells_evaluated" in out
        assert "plan provenance:" in out
        assert "relocated position" in out  # >= 1 relocated request

    def test_stats_json_mode(self, capsys):
        code = cli_main(
            ["stats", "--models", "resnet50,squeezenet", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "counters" in doc and "gauges" in doc

    def test_stats_json_stable_schema(self, capsys):
        code = cli_main(
            ["stats", "--models", "resnet50,squeezenet", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hetero2pipe.stats.v1"
        assert {
            "soc",
            "models",
            "repeat",
            "makespan_ms",
            "throughput_per_s",
            "latency",
            "counters",
            "gauges",
            "histograms",
            "provenance_events",
        } <= set(doc)
        latency = doc["latency"]
        assert {"mean_ms", "p50_ms", "p95_ms", "p99_ms"} <= set(latency)
        assert (
            latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        )

    def test_stats_text_mode_reports_latency_line(self, capsys):
        code = cli_main(["stats", "--models", "resnet50,squeezenet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p95" in out and "p99" in out

    def test_trace_json_stable_schema(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = cli_main(
            [
                "trace",
                "--models",
                "resnet50,squeezenet",
                "--out",
                str(out),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hetero2pipe.trace.v1"
        assert doc["out"] == str(out)
        assert out.exists()
        assert {
            "soc",
            "models",
            "makespan_ms",
            "planner_spans",
            "executed_slices",
            "provenance_events",
            "flow_arrows",
        } <= set(doc)
        assert doc["executed_slices"] > 0

    def test_recorder_is_restored_after_cli(self):
        assert not obs.enabled()

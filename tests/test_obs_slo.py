"""SLO evaluator tests: burn-rate semantics, alerts, CLI schema.

Covers the full alerting stack bottom-up: spec validation and the CLI
``--classes`` grammar, hand-fed window streams with burn rates known in
closed form (edge-trigger fire / clear / re-fire), alert transport
through the provenance registry, the ``hetero2pipe slo`` JSON schema
(``hetero2pipe.slo.v1``), the JSONL artifact row types, and the
all-dropped regression sweep (satellite b/c: every
``latency_percentile_ms`` caller must survive a deadline that drops
every request, and ``mean_queueing_delay_ms`` must surface as None).
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import get_model
from repro.obs.accuracy import join_execution
from repro.obs.bench import simulation_latency_block
from repro.obs.events import EVENT_KINDS, SloBurnAlert, event_from_dict
from repro.obs.slo import (
    SloEvaluator,
    SloSpec,
    parse_class_specs,
    resolve_request_specs,
)
from repro.runtime.engine import Event
from repro.runtime.executor import execute_plan

KIRIN = get_soc("kirin990")
#: An overload must fire its first alert within this many windows.
MAX_DETECTION_WINDOWS = 8


def ev(time_ms, kind, request=None, processor=None, detail=""):
    return Event(
        time_ms=time_ms,
        kind=kind,
        request=request,
        processor=processor,
        detail=detail,
    )


class TestSpecsAndGrammar:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="a", deadline_ms=0.0)
        with pytest.raises(ValueError):
            SloSpec(name="a", deadline_ms=10.0, objective_frac=1.0)
        with pytest.raises(ValueError):
            SloSpec(name="a", deadline_ms=10.0, objective_frac=0.0)

    def test_parse_explicit_and_wildcard(self):
        specs = parse_class_specs("resnet50=80:0.99, *=120")
        assert specs["resnet50"] == SloSpec("resnet50", 80.0, 0.99)
        assert specs["*"] == SloSpec("*", 120.0, 0.95)

    @pytest.mark.parametrize(
        "text",
        ["", "resnet50", "=80", "a=fast", "a=80:many", "a=80,a=90"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_class_specs(text)

    def test_resolve_wildcard_keeps_model_as_class_name(self):
        specs = parse_class_specs("resnet50=80:0.99,*=120:0.9")
        resolved = resolve_request_specs(["resnet50", "vit"], specs)
        assert resolved[0] == SloSpec("resnet50", 80.0, 0.99)
        assert resolved[1] == SloSpec("vit", 120.0, 0.9)

    def test_resolve_without_wildcard_raises(self):
        specs = parse_class_specs("resnet50=80")
        with pytest.raises(KeyError):
            resolve_request_specs(["resnet50", "vit"], specs)


class TestEvaluatorValidation:
    def test_constructor_rejects_misconfiguration(self):
        spec = SloSpec("a", 10.0)
        with pytest.raises(ValueError):
            SloEvaluator([], [], 10.0)
        with pytest.raises(ValueError):
            SloEvaluator([spec], [1, 1], 10.0)
        with pytest.raises(ValueError):
            SloEvaluator([spec], [1], 0.0)
        with pytest.raises(ValueError):
            SloEvaluator([spec], [1], 10.0, fast_windows=3, slow_windows=2)
        with pytest.raises(ValueError):
            SloEvaluator([spec], [1], 10.0, burn_threshold=0.0)

    def test_time_backwards_raises(self):
        # The timeline fold's rule: an event more than 1e-9 ms before
        # the clock is rejected (this pair used to count as a good
        # request with a -22 ms latency).
        evaluator = SloEvaluator([SloSpec("a", 10.0)], [1], 10.0)
        evaluator.observe(ev(25.0, "arrival", request=0))
        with pytest.raises(ValueError, match="before the fold clock"):
            evaluator.observe(ev(3.0, "departure", request=0, processor="cpu"))

    def test_conflicting_specs_for_one_class_raise(self):
        with pytest.raises(ValueError):
            SloEvaluator(
                [SloSpec("a", 10.0), SloSpec("a", 20.0)], [1, 1], 10.0
            )


def burn_evaluator():
    """Six one-stage requests, all class "a": deadline 5 ms, 10% budget,
    fast=1/slow=2 windows of 10 ms, threshold 2x."""
    specs = [SloSpec("a", 5.0, objective_frac=0.9)] * 6
    return SloEvaluator(
        specs, [1] * 6, 10.0, fast_windows=1, slow_windows=2,
        burn_threshold=2.0,
    )


#: Window 0: one good.  Window 1: one good + one cancelled (bad_frac
#: 0.5 -> fast burn 5, slow burn 10/3) — fires.  Window 2: one good —
#: clears.  Window 3: one late departure (latency 7 > 5) — re-fires.
BURN_STREAM = [
    ev(0.0, "arrival", request=0),
    ev(1.0, "departure", request=0),
    ev(10.0, "arrival", request=1),
    ev(11.0, "departure", request=1),
    ev(12.0, "arrival", request=2),
    ev(13.0, "cancellation", request=2, detail="deadline"),
    ev(22.0, "arrival", request=3),
    ev(23.0, "departure", request=3),
    ev(31.0, "arrival", request=4),
    ev(38.0, "departure", request=4),
]


class TestBurnRates:
    def fold(self):
        evaluator = burn_evaluator()
        evaluator.observe_many(BURN_STREAM)
        evaluator.finish(40.0)
        return evaluator

    def test_burn_rates_match_closed_form(self):
        evaluator = self.fold()
        by_window = {r.window: r for r in evaluator.window_reports}
        assert set(by_window) == {0, 1, 2, 3}
        assert by_window[0].fast_burn == pytest.approx(0.0)
        # Window 1: 1 good + 1 bad in the fast view, 2 good + 1 bad in
        # the slow view; budget is 0.1.
        assert by_window[1].fast_burn == pytest.approx(5.0)
        assert by_window[1].slow_burn == pytest.approx(10.0 / 3.0)
        assert by_window[2].fast_burn == pytest.approx(0.0)
        assert by_window[3].fast_burn == pytest.approx(10.0)
        assert by_window[3].slow_burn == pytest.approx(5.0)

    def test_edge_triggered_fire_clear_refire(self):
        evaluator = self.fold()
        alerts = evaluator.alerts
        assert [a.window for a in alerts] == [1, 3]
        by_window = {r.window: r for r in evaluator.window_reports}
        assert by_window[1].alert_fired
        assert not by_window[2].alert_fired  # cleared, re-armed
        assert by_window[3].alert_fired

    def test_alert_payload(self):
        alert = self.fold().alerts[0]
        assert alert.class_name == "a"
        assert alert.fast_burn == pytest.approx(5.0)
        assert alert.threshold == pytest.approx(2.0)
        assert alert.objective_frac == pytest.approx(0.9)
        assert alert.deadline_ms == pytest.approx(5.0)

    def test_alerts_flow_through_provenance(self):
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            evaluator = burn_evaluator()
            evaluator.observe_many(BURN_STREAM)
            evaluator.finish(40.0)
        recorded = [e for e in rec.events if e.kind == "slo_burn_alert"]
        assert recorded == evaluator.alerts
        for alert in recorded:
            assert event_from_dict(alert.to_dict()) == alert

    def test_summary_attainment_and_budget(self):
        summary = self.fold().summary()["a"]
        assert summary["requests"] == 5
        assert summary["good"] == 3 and summary["bad"] == 2
        assert summary["attainment_frac"] == pytest.approx(0.6)
        # budget 0.1, spent 0.4 -> (0.1 - 0.4) / 0.1 = -3.
        assert summary["budget_remaining_frac"] == pytest.approx(-3.0)
        assert summary["alerts"] == 2

    def test_finish_counts_in_flight_as_bad(self):
        evaluator = burn_evaluator()
        evaluator.observe(ev(0.0, "arrival", request=0))
        evaluator.finish(3.0)
        summary = evaluator.summary()["a"]
        assert summary["bad"] == 1 and summary["good"] == 0

    def test_empty_windows_burn_zero(self):
        evaluator = burn_evaluator()
        evaluator.finish(35.0)  # three empty windows + partial
        assert all(
            r.fast_burn == 0.0 and not r.alert_fired
            for r in evaluator.window_reports
        )

    def test_event_kinds_registration(self):
        assert EVENT_KINDS["slo_burn_alert"] is SloBurnAlert
        assert "timeline_diagnostic" in EVENT_KINDS


class TestSloCli:
    SLO_ARGS = [
        "slo",
        "--soc", "kirin990",
        "--models", "squeezenet,mobilenetv2",
        "--repeat", "3",
        "--arrivals", "poisson",
        "--interval-ms", "40",
        "--arrival-seed", "2",
        "--window-ms", "30",
        "--classes", "*=200:0.9",
        "--burn-windows", "1,4",
    ]

    def run_json(self, capsys, extra=()):
        assert main(self.SLO_ARGS + list(extra) + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_json_schema_v1(self, capsys):
        doc = self.run_json(capsys)
        assert doc["schema"] == "hetero2pipe.slo.v1"
        assert sorted(doc) == [
            "alerts",
            "arrival_process",
            "burn",
            "classes",
            "interval_ms",
            "latency",
            "latency_sketch",
            "littles_law",
            "makespan_ms",
            "models",
            "queueing",
            "repeat",
            "requests",
            "schema",
            "soc",
            "throughput_per_s",
            "window_ms",
            "windows",
        ]
        assert doc["burn"] == {
            "fast_windows": 1, "slow_windows": 4, "threshold": 2.0,
        }
        assert doc["requests"] == 6
        assert doc["littles_law"]["ok"] is True
        assert set(doc["classes"]) == {"squeezenet", "mobilenetv2"}
        for row in doc["windows"]:
            assert row["end_ms"] > row["start_ms"]
        assert doc["latency_sketch"]["count"] == doc["latency"]["count"]

    def test_json_document_round_trips(self, capsys):
        doc = self.run_json(capsys)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_jsonl_artifact_row_types(self, capsys, tmp_path):
        path = tmp_path / "slo.jsonl"
        self.run_json(capsys, extra=["--jsonl", str(path)])
        rows = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        types = {row["type"] for row in rows}
        assert types >= {"window_stats", "slo_window"}

    def test_trace_keeps_phase_whitelist(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        self.run_json(capsys, extra=["--trace", str(path)])
        trace = json.loads(path.read_text())
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases <= {"X", "M", "C", "s", "f"}
        counters = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "C"
        }
        assert {"utilization_frac", "queue_depth", "throughput_per_s"} <= (
            counters
        )

    def test_human_output_mentions_classes(self, capsys):
        assert main(self.SLO_ARGS) == 0
        out = capsys.readouterr().out
        assert "class squeezenet:" in out
        assert "littles-law self-check: ok" in out

    def test_bad_classes_grammar_exits_2(self, capsys):
        assert main(["slo", "--models", "vit", "--classes", "vit"]) == 2
        assert "bad --classes entry" in capsys.readouterr().err

    def test_missing_class_without_wildcard_exits_2(self, capsys):
        assert (
            main(["slo", "--models", "vit", "--classes", "resnet50=80"])
            == 2
        )
        assert "no SLO class" in capsys.readouterr().err

    def test_bad_burn_windows_exits_2(self, capsys):
        assert (
            main(["slo", "--models", "vit", "--burn-windows", "fast"]) == 2
        )
        assert "bad --burn-windows" in capsys.readouterr().err

    def test_overloaded_run_alerts_and_replays(self, capsys):
        doc = self.run_json(
            capsys,
            extra=["--interval-ms", "0.5", "--classes", "*=3:0.9"],
        )
        assert doc["alerts"], "overload must burn the 3 ms budget"
        first = min(raw["window"] for raw in doc["alerts"])
        assert first <= MAX_DETECTION_WINDOWS
        for raw in doc["alerts"]:
            alert = event_from_dict(raw)
            assert isinstance(alert, SloBurnAlert)
            assert alert.to_dict() == raw


    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_calibrated_clean_run_is_silent(self, capsys, soc_name):
        # Healthy load calibrated from a closed-loop run of the same
        # plan: arrivals 3x slower than back-to-back service, an SLO
        # deadline of 4 closed-loop makespans, one makespan per window.
        mix = ("squeezenet", "mobilenetv2", "resnet50")
        plan = Hetero2PipePlanner(get_soc(soc_name)).plan(
            [get_model(n) for n in mix]
        ).plan
        closed = execute_plan(plan, record=False)
        interval_ms = closed.makespan_ms / closed.num_requests * 3.0
        args = [
            "slo",
            "--soc", soc_name,
            "--models", ",".join(mix),
            "--repeat", "8",
            "--interval-ms", repr(interval_ms),
            "--arrival-seed", "7",
            "--window-ms", repr(closed.makespan_ms),
            "--classes", f"*={closed.makespan_ms * 4.0!r}:0.9",
            "--burn-windows", "1,6",
            "--json",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alerts"] == []
        assert doc["littles_law"]["ok"] is True
        assert doc["queueing"]["completed_requests"] == doc["requests"] == 24


class TestAllDroppedRegression:
    """Satellites b/c: a deadline that drops everything must not crash
    any latency/queueing consumer, and the tri-state None must surface
    end to end."""

    @pytest.fixture(scope="class")
    def plan(self):
        models = [get_model(n) for n in ("squeezenet", "mobilenetv2")]
        return Hetero2PipePlanner(KIRIN).plan(models).plan

    def test_engine_mean_queueing_delay_is_none(self, plan):
        result = execute_plan(plan, record=False, deadline_ms=0.0)
        assert result.num_completed == 0
        assert result.deadline_drops == result.num_requests
        assert result.mean_queueing_delay_ms is None

    def test_simulation_latency_block_all_dropped(self, plan):
        result = execute_plan(plan, record=False, deadline_ms=0.0)
        block = simulation_latency_block(result)
        assert block["completed_requests"] == 0
        assert block["mean_latency_ms"] is None
        assert block["p50_latency_ms"] is None
        assert block["p95_latency_ms"] is None

    def test_accuracy_join_tolerates_all_dropped_actual(self, plan):
        predicted = execute_plan(plan, record=False)
        actual = execute_plan(plan, record=False, deadline_ms=0.0)
        report = join_execution(predicted, actual)
        assert report.requests == ()
        assert report.slices == ()

    def test_stats_cli_pins_tri_state_null(self, capsys):
        code = main(
            [
                "stats",
                "--models", "squeezenet,mobilenetv2",
                "--deadline-ms", "0",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["queueing"]["mean_queueing_delay_ms"] is None
        assert doc["queueing"]["completed_requests"] == 0
        assert doc["latency"]["mean_ms"] is None

    def test_stats_cli_human_text_says_undefined(self, capsys):
        code = main(
            [
                "stats",
                "--models", "squeezenet",
                "--deadline-ms", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "undefined (no request ever started)" in out

    def test_slo_cli_all_dropped_run(self, capsys):
        code = main(
            [
                "slo",
                "--models", "squeezenet",
                "--deadline-ms", "0",
                "--classes", "*=50",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latency"]["count"] == 0
        assert doc["latency"]["p95_ms"] is None
        assert doc["queueing"]["mean_queueing_delay_ms"] is None
        summary = doc["classes"]["squeezenet"]
        assert summary["good"] == 0
        assert summary["attainment_frac"] == 0.0

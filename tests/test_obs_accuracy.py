"""Tests for prediction-accuracy telemetry, drift detection and replans.

Covers the full predict -> execute -> compare loop: the residual join is
total (every executed slice maps 1:1 onto a predicted slice), clean runs
produce identically-zero residuals and keep every detector silent, an
injected +30% slowdown on the GPU fires the detectors, and the streaming
planner responds to a fired detector with a cache-invalidating replan
that changes the committed plan fingerprint.  Serialization round-trips
(telemetry JSONL, run archives, provenance events) and the Perfetto
residual counter track ride along.
"""

import json
from functools import partial

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.online import StreamingPlanner
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import get_model
from repro.obs import (
    CusumDetector,
    DriftDetected,
    DriftMonitor,
    EwmaDetector,
    ResidualReport,
    SliceResidual,
    event_from_dict,
    join_execution,
    report_from_dict,
)
from repro.obs.drift import (
    CUSUM_SLACK,
    CUSUM_THRESHOLD,
    EWMA_ALPHA,
    EWMA_THRESHOLD,
    MIN_SAMPLES,
)
from repro.obs.export import (
    read_telemetry_jsonl,
    residual_counter_events,
    telemetry_rows,
    write_jsonl,
)
from repro.runtime.engine import DiscreteEventEngine
from repro.runtime.executor import execute_plan, execute_plan_perturbed, plan_to_chains
from repro.runtime.replay import (
    RUN_SCHEMA,
    load_run,
    run_from_dict,
    run_to_dict,
    save_run,
)
from repro.runtime.tracing import to_chrome_trace

#: Stream whose GPU lane carries enough slices for the detectors to
#: clear ``min_samples`` within two windows at window_size=4.
STREAM_MODELS = ["resnet50", "yolov4", "bert", "squeezenet"]
PERTURB = {"gpu": 1.3}


def _models(names):
    return [get_model(n) for n in names]


def _planned(names=("resnet50", "yolov4", "bert", "squeezenet")):
    soc = get_soc("kirin990")
    planner = Hetero2PipePlanner(soc)
    report = planner.plan(_models(names))
    return soc, report


@pytest.fixture(scope="module")
def plan_report():
    _, report = _planned()
    return report


# ------------------------------------------------------- residual join


class TestJoinExecution:
    def test_clean_join_residuals_identically_zero(self, plan_report):
        predicted = execute_plan(plan_report.plan, record=False)
        actual = execute_plan(plan_report.plan, record=False)
        report = join_execution(predicted, actual)
        assert report.num_slices == len(actual.records)
        for s in report.slices:
            assert s.residual_ms == pytest.approx(0.0, abs=1e-9)
            assert s.relative_error == pytest.approx(0.0, abs=1e-9)
        assert report.makespan_residual_ms == pytest.approx(0.0, abs=1e-9)
        assert report.makespan_relative_error_frac == pytest.approx(
            0.0, abs=1e-9
        )

    def test_join_covers_every_executed_slice_exactly_once(
        self, plan_report
    ):
        predicted = execute_plan(plan_report.plan, record=False)
        actual = execute_plan(plan_report.plan, record=False)
        report = join_execution(predicted, actual)
        executed_keys = {(r.request, r.stage) for r in actual.records}
        joined_keys = [(s.request, s.stage) for s in report.slices]
        # 1:1 and total: no duplicates, no drops, nothing invented.
        assert len(joined_keys) == len(actual.records)
        assert set(joined_keys) == executed_keys
        assert len(set(joined_keys)) == len(joined_keys)
        predicted_keys = {(r.request, r.stage) for r in predicted.records}
        assert set(joined_keys) == predicted_keys

    def test_perturbed_join_shows_injected_error(self, plan_report):
        predicted = execute_plan(plan_report.plan, record=False)
        actual = execute_plan_perturbed(
            plan_report.plan, PERTURB, record=False
        )
        report = join_execution(predicted, actual)
        gpu = [s for s in report.slices if s.processor == "gpu"]
        assert gpu, "expected GPU slices in this plan"
        for s in gpu:
            assert s.relative_error > 0.0
        assert report.by_processor()["gpu"].mean_relative_error > 0.05
        assert report.actual_makespan_ms > report.predicted_makespan_ms

    def test_model_names_attach_per_request(self, plan_report):
        predicted = execute_plan(plan_report.plan, record=False)
        actual = execute_plan(plan_report.plan, record=False)
        names = ["a", "b", "c", "d"][: actual.num_requests]
        report = join_execution(predicted, actual, model_names=names)
        for s in report.slices:
            assert s.model == names[s.request]
        assert set(report.by_model()) == set(names)

    def test_mismatched_plans_raise(self):
        _, big = _planned(("resnet50", "yolov4", "bert", "squeezenet"))
        _, small = _planned(("resnet50", "yolov4"))
        predicted = execute_plan(big.plan, record=False)
        actual = execute_plan(small.plan, record=False)
        with pytest.raises(ValueError, match="mismatch|counterpart"):
            join_execution(predicted, actual)

    def test_join_emits_metrics_when_enabled(self, plan_report):
        rec = obs.InMemoryRecorder()
        with obs.use_recorder(rec):
            predicted = execute_plan(plan_report.plan, record=False)
            actual = execute_plan(plan_report.plan, record=False)
            report = join_execution(predicted, actual)
        counters = rec.metrics.snapshot()["counters"]
        assert counters["residual_joins"] == 1
        assert counters["residual_slices_joined"] == report.num_slices


# ------------------------------------------------------- perturbation


class TestPerturbation:
    def test_scale_chain_tasks_rejects_nonpositive_factor(
        self, plan_report
    ):
        with pytest.raises(ValueError):
            execute_plan_perturbed(plan_report.plan, {"gpu": 0.0})

    def test_unknown_processor_is_a_noop(self, plan_report):
        base = execute_plan(plan_report.plan, record=False)
        same = execute_plan_perturbed(
            plan_report.plan, {"no_such_proc": 2.0}, record=False
        )
        assert same.makespan_ms == pytest.approx(base.makespan_ms)

    def test_scaling_is_multiplicative(self, plan_report):
        scaled = execute_plan_perturbed(
            plan_report.plan, PERTURB, record=False
        )
        base = execute_plan(plan_report.plan, record=False)
        report = join_execution(base, scaled)
        gpu = [s for s in report.slices if s.processor == "gpu"]
        # Solo time scales by exactly 1.3; contention adds on top, so the
        # observed ratio is at least the injected factor - epsilon.
        assert all(s.actual_ms >= s.predicted_ms for s in gpu)


# ------------------------------------------------------- detectors


class TestEwmaDetector:
    def test_fires_on_sustained_shift_after_min_samples(self):
        det = EwmaDetector(alpha=0.5, threshold=0.1, min_samples=3)
        assert det.observe(0.3) is False  # sample 1 < min_samples
        assert det.observe(0.3) is False  # sample 2 < min_samples
        assert det.observe(0.3) is True

    def test_first_sample_seeds_value(self):
        det = EwmaDetector(alpha=0.3, threshold=0.15, min_samples=3)
        det.observe(0.4)
        assert det.value == pytest.approx(0.4)
        det.observe(0.0)
        assert det.value == pytest.approx(0.7 * 0.4)

    def test_silent_on_zero_stream(self):
        det = EwmaDetector(EWMA_ALPHA, EWMA_THRESHOLD, MIN_SAMPLES)
        assert not any(det.observe(0.0) for _ in range(100))

    def test_two_sided(self):
        det = EwmaDetector(alpha=1.0, threshold=0.1, min_samples=1)
        assert det.observe(-0.2) is True

    def test_reset_clears_state(self):
        det = EwmaDetector(alpha=1.0, threshold=0.1, min_samples=2)
        det.observe(0.5)
        det.reset()
        assert det.value == 0.0 and det.samples == 0
        assert det.observe(0.5) is False  # min_samples gating restarts

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0.0, threshold=0.15, min_samples=3)
        with pytest.raises(ValueError):
            EwmaDetector(alpha=1.5, threshold=0.15, min_samples=3)
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0.3, threshold=0.0, min_samples=3)
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0.3, threshold=0.15, min_samples=0)


class TestCusumDetector:
    def test_accumulates_slow_ramp(self):
        det = CusumDetector(slack=0.05, threshold=0.5, min_samples=3)
        # 0.15/sample, 0.10 net after slack: trips after 5 samples.
        fired_at = None
        for i in range(1, 20):
            if det.observe(0.15):
                fired_at = i
                break
        assert fired_at == 6

    def test_slack_absorbs_jitter(self):
        det = CusumDetector(CUSUM_SLACK, CUSUM_THRESHOLD, MIN_SAMPLES)
        assert not any(det.observe(0.04) for _ in range(200))
        assert det.statistic == 0.0

    def test_negative_drift_fires_too(self):
        det = CusumDetector(slack=0.0, threshold=0.3, min_samples=1)
        assert det.observe(-0.2) is False
        assert det.observe(-0.2) is True
        assert det.negative > det.threshold

    def test_reset_clears_state(self):
        det = CusumDetector(slack=0.0, threshold=0.1, min_samples=1)
        det.observe(0.5)
        det.reset()
        assert det.positive == 0.0 and det.negative == 0.0
        assert det.samples == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CusumDetector(slack=-0.1, threshold=0.5, min_samples=3)
        with pytest.raises(ValueError):
            CusumDetector(slack=0.05, threshold=0.0, min_samples=3)
        with pytest.raises(ValueError):
            CusumDetector(slack=0.05, threshold=0.5, min_samples=0)


def _residual(processor="gpu", model="resnet50", rel=0.3, request=0):
    predicted = 10.0
    return SliceResidual(
        request=request,
        stage=0,
        processor=processor,
        model=model,
        predicted_ms=predicted,
        actual_ms=predicted * (1.0 + rel),
        predicted_slowdown=0.0,
        observed_slowdown=rel,
        start_ms=0.0,
        finish_ms=predicted * (1.0 + rel),
    )


class TestDriftMonitor:
    def test_keys_created_per_processor_and_model(self):
        mon = DriftMonitor()
        mon.observe_residual(_residual(processor="gpu", model="bert"))
        assert mon.keys() == [("model", "bert"), ("processor", "gpu")]

    def test_fires_per_key_with_event_fields(self):
        mon = DriftMonitor()
        fired = []
        for _ in range(MIN_SAMPLES):
            fired.extend(mon.observe_residual(_residual(rel=0.3), window=7))
        assert len(fired) == 2  # processor key + model key
        scopes = {(e.scope, e.key) for e in fired}
        assert scopes == {("processor", "gpu"), ("model", "resnet50")}
        for event in fired:
            assert event.kind == "drift_detected"
            assert event.detector in ("ewma", "cusum")
            assert abs(event.statistic) > event.threshold
            assert event.samples >= MIN_SAMPLES
            assert event.window == 7
        assert mon.events == fired

    def test_silent_on_clean_stream(self):
        mon = DriftMonitor()
        for i in range(50):
            assert mon.observe_residual(_residual(rel=0.0, request=i)) == []

    def test_cooldown_after_firing(self):
        mon = DriftMonitor()
        fired = []
        for _ in range(MIN_SAMPLES + 1):
            fired.extend(mon.observe_residual(_residual(rel=0.5)))
        # Fires at sample MIN_SAMPLES (3), then both keys reset: sample
        # 4 is sample 1 of the next accumulation and cannot re-fire.
        assert len(fired) == 2
        pair = mon.detectors_for("processor", "gpu")
        assert pair.ewma.samples == 1

    def test_one_event_per_fired_key(self):
        # The residual feeds its processor's and its model's detectors.
        mon = DriftMonitor()
        for _ in range(MIN_SAMPLES - 1):
            assert mon.observe_residual(_residual(rel=0.9)) == []
        fired = mon.observe_residual(_residual(rel=0.9))
        assert [(e.scope, e.key) for e in fired] == [
            ("processor", "gpu"),
            ("model", "resnet50"),
        ]
        assert all(isinstance(e, DriftDetected) for e in fired)
        assert mon.events == fired

    def test_observe_report_feeds_window_index(self):
        slices = tuple(_residual(rel=0.4, request=i) for i in range(3))
        report = ResidualReport(
            slices=slices,
            requests=(),
            predicted_makespan_ms=10.0,
            actual_makespan_ms=14.0,
            window=5,
        )
        mon = DriftMonitor()
        fired = mon.observe_report(report)
        assert fired and all(e.window == 5 for e in fired)

    def test_reset_drops_detectors_keeps_events(self):
        mon = DriftMonitor()
        for _ in range(MIN_SAMPLES):
            mon.observe_residual(_residual(rel=0.9))
        assert mon.events
        mon.reset()
        assert mon.keys() == []
        assert mon.events  # history preserved


# ------------------------------------------------------- streaming replan


def _engine_execute(plan, arrivals=None, record=True, **kwargs):
    """Execute a plan through a directly constructed event engine rather
    than the ``execute_plan`` adapter over it."""
    return DiscreteEventEngine(
        plan.soc, plan_to_chains(plan), arrivals=arrivals, record=record, **kwargs
    ).run()


class TestStreamingDrift:
    def _stream(self):
        return _models(STREAM_MODELS) * 3

    def test_clean_stream_never_fires(self):
        # On every SoC, through the executor adapter and through the
        # engine API proper: residuals are identically zero, so no
        # detector may fire and nothing replans.
        for soc_name in SOC_NAMES:
            for execute in (None, _engine_execute):
                label = (soc_name, execute)
                planner = StreamingPlanner(
                    get_soc(soc_name),
                    window_size=4,
                    track_accuracy=True,
                    execute=execute,
                )
                result = planner.run(self._stream())
                assert result.drift_events == [], label
                assert result.replans == 0, label
                assert len(result.residuals) == 3, label
                assert len(result.plan_fingerprints) == 3, label
                # Identical windows hit the plan cache: one fingerprint.
                assert len(set(result.plan_fingerprints)) == 1, label
                for report in result.residuals:
                    assert report.overall().mean_abs_residual_ms < 1e-6, label

    def test_perturbed_stream_fires_and_replans(self):
        planner = StreamingPlanner(
            get_soc("kirin990"),
            window_size=4,
            track_accuracy=True,
            execute=partial(execute_plan_perturbed, factors=PERTURB),
        )
        result = planner.run(self._stream())
        assert result.drift_events, "detector must fire on +30% GPU drift"
        assert any(
            e.scope == "processor" and e.key == "gpu"
            for e in result.drift_events
        )
        assert result.replans >= 1
        # The replan re-plans against a recalibrated SoC: the committed
        # plan changes, so its fingerprint does too.
        assert len(set(result.plan_fingerprints)) >= 2
        fired_window = min(e.window for e in result.drift_events)
        pre = result.plan_fingerprints[fired_window]
        post = result.plan_fingerprints[fired_window + 1]
        assert pre != post
        # Recalibration slowed the modelled GPU down (scale < 1).
        assert planner.recalibration_scales["gpu"] < 1.0
        assert all(
            s == 1.0
            for name, s in planner.recalibration_scales.items()
            if name != "gpu"
        )

    def test_windows_map_onto_residual_reports(self):
        planner = StreamingPlanner(
            get_soc("kirin990"), window_size=4, track_accuracy=True
        )
        result = planner.run(self._stream())
        assert [r.window for r in result.residuals] == [0, 1, 2]
        # Residual join is total within every window.
        for report in result.residuals:
            keys = [(s.request, s.stage) for s in report.slices]
            assert len(keys) == len(set(keys))

    def test_accuracy_off_by_default(self):
        planner = StreamingPlanner(get_soc("kirin990"), window_size=4)
        result = planner.run(self._stream())
        assert result.residuals == []
        assert result.drift_events == []
        assert planner.drift_monitor is None

    def test_tracking_accuracy_builds_a_monitor(self):
        planner = StreamingPlanner(
            get_soc("kirin990"), window_size=4, track_accuracy=True
        )
        assert isinstance(planner.drift_monitor, DriftMonitor)

    def test_invalidate_caches_clears_planner_memoization(self):
        soc = get_soc("kirin990")
        planner = Hetero2PipePlanner(soc)
        planner.plan(_models(STREAM_MODELS))
        assert planner._partition_cache
        planner.invalidate_caches()
        assert not planner._partition_cache


# ------------------------------------------------------- serialization


class TestSerialization:
    def _report(self, perturb=False):
        _, report = _planned()
        predicted = execute_plan(report.plan, record=False)
        actual = (
            execute_plan_perturbed(report.plan, PERTURB, record=False)
            if perturb
            else execute_plan(report.plan, record=False)
        )
        names = [
            STREAM_MODELS[i] if i < len(STREAM_MODELS) else ""
            for i in range(actual.num_requests)
        ]
        return report, join_execution(predicted, actual, model_names=names)

    def test_report_round_trips_through_dict(self):
        _, residual = self._report(perturb=True)
        clone = report_from_dict(json.loads(json.dumps(residual.to_dict())))
        assert clone == residual

    def test_drift_event_round_trips(self):
        event = DriftDetected(
            scope="processor",
            key="gpu",
            detector="ewma",
            statistic=0.27,
            threshold=0.15,
            samples=4,
            window=1,
        )
        clone = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event

    def test_telemetry_rows_typed(self):
        _, residual = self._report()
        event = DriftDetected(
            scope="model",
            key="bert",
            detector="cusum",
            statistic=0.6,
            threshold=0.5,
            samples=5,
            window=0,
        )
        rows = telemetry_rows([residual], [event])
        types = {r["type"] for r in rows}
        assert types == {
            "window_summary",
            "slice_residual",
            "request_residual",
            "drift_detected",
        }
        summary = next(r for r in rows if r["type"] == "window_summary")
        assert "makespan_relative_error_frac" in summary

    def test_jsonl_write_read_round_trip(self, tmp_path):
        _, residual = self._report(perturb=True)
        path = tmp_path / "telemetry.jsonl"
        count = write_jsonl(str(path), telemetry_rows([residual]))
        rows = read_telemetry_jsonl(str(path))
        assert len(rows) == count == len(residual.to_rows())

    def test_run_archive_round_trip(self, tmp_path):
        report, residual = self._report(perturb=True)
        actual = execute_plan_perturbed(report.plan, PERTURB, record=False)
        event = DriftDetected(
            scope="processor",
            key="gpu",
            detector="ewma",
            statistic=0.3,
            threshold=0.15,
            samples=3,
            window=0,
        )
        path = tmp_path / "run.json"
        save_run(str(path), actual, residuals=[residual], drift_events=[event])
        loaded, residuals, events = load_run(str(path))
        assert loaded.makespan_ms == pytest.approx(actual.makespan_ms)
        assert len(loaded.records) == len(actual.records)
        assert residuals == [residual]
        assert events == [event]

    def test_run_schema_guard(self):
        doc = run_to_dict(execute_plan(_planned()[1].plan, record=False))
        assert doc["schema"] == RUN_SCHEMA
        bad = dict(doc)
        bad["schema"] = "hetero2pipe.run.v999"
        with pytest.raises(ValueError, match="schema"):
            run_from_dict(bad)

    def test_residual_counter_track_in_chrome_trace(self):
        _, residual = self._report(perturb=True)
        _, report = _planned()
        result = execute_plan(report.plan, trace=True)
        rec = obs.InMemoryRecorder()
        events = json.loads(
            to_chrome_trace(result, recorder=rec, residuals=[residual])
        )["traceEvents"]
        counters = [
            e
            for e in events
            if e.get("ph") == "C"
            and e.get("name") == "prediction_residual_ms"
        ]
        assert len(counters) == residual.num_slices
        assert all("residual_ms" in e["args"] for e in counters)
        ts = [e["ts"] for e in counters]
        assert ts == sorted(ts)

    def test_residual_counter_events_standalone(self):
        _, residual = self._report(perturb=True)
        events = residual_counter_events([residual])
        assert len(events) == residual.num_slices
        assert all(e["cat"] == "accuracy" for e in events)


# ------------------------------------------------------- CLI verbs


class TestAccuracyCli:
    def test_accuracy_human_output(self, capsys):
        assert (
            cli_main(
                ["accuracy", "--models", "resnet50,yolov4,bert,squeezenet"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_accuracy_json_schema(self, capsys):
        assert (
            cli_main(
                [
                    "accuracy",
                    "--models",
                    "resnet50,yolov4,bert,squeezenet",
                    "--perturb",
                    "1.3",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hetero2pipe.accuracy.v1"
        assert doc["perturbation"] == {"gpu": 1.3}
        assert doc["report"]["slices"]
        assert isinstance(doc["drift_events"], list)

    def test_accuracy_jsonl_artifact(self, tmp_path, capsys):
        path = tmp_path / "acc.jsonl"
        assert (
            cli_main(
                [
                    "accuracy",
                    "--models",
                    "resnet50,yolov4",
                    "--jsonl",
                    str(path),
                ]
            )
            == 0
        )
        rows = read_telemetry_jsonl(str(path))
        assert any(r["type"] == "window_summary" for r in rows)

    def test_drift_json_schema(self, capsys):
        assert (
            cli_main(
                [
                    "drift",
                    "--models",
                    "resnet50,yolov4,bert,squeezenet",
                    "--repeat",
                    "3",
                    "--window",
                    "4",
                    "--perturb",
                    "1.3",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hetero2pipe.drift.v1"
        assert doc["drift_events"], "perturbed drift run must detect"
        assert doc["replans"] >= 1
        assert len(set(doc["plan_fingerprints"])) >= 2
        summaries = doc["window_summaries"]
        assert len(summaries) == len(doc["plan_fingerprints"])
        assert all(
            "makespan_relative_error_frac" in w for w in summaries
        )

    def test_drift_clean_run_silent(self, capsys):
        assert (
            cli_main(
                [
                    "drift",
                    "--models",
                    "resnet50,yolov4,bert,squeezenet",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["drift_events"] == []
        assert doc["replans"] == 0

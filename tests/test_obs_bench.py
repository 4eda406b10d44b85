"""Tests for the unified bench harness (``repro.obs.bench``)."""

import json
from pathlib import Path

import pytest

from repro.hardware.soc import SOC_NAMES
from repro.obs import bench

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_planner.json"


class TestTimers:
    def test_time_call_s(self):
        calls = []
        elapsed = bench.time_call_s(lambda: calls.append(1))
        assert calls == [1]
        assert elapsed >= 0.0

    def test_best_of_s_runs_n_times(self):
        calls = []
        best = bench.best_of_s(4, lambda: calls.append(1))
        assert len(calls) == 4
        assert best >= 0.0

    def test_best_of_s_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            bench.best_of_s(0, lambda: None)

    def test_collect_samples_ms(self):
        calls = {"timed": 0, "setup": 0}

        def fn():
            calls["timed"] += 1

        samples = bench.collect_samples_ms(
            fn, rounds=3, setup=lambda: calls.__setitem__(
                "setup", calls["setup"] + 1
            )
        )
        assert len(samples) == 3
        # Every round runs its setup, untimed, before the timed call.
        assert calls["timed"] == 3
        assert calls["setup"] == 3

    def test_collect_samples_ms_repeat_reports_per_call_mean(self):
        calls = []
        samples = bench.collect_samples_ms(
            lambda: calls.append(1), rounds=2, repeat=5
        )
        assert len(samples) == 2
        assert len(calls) == 10
        with pytest.raises(ValueError):
            bench.collect_samples_ms(lambda: None, rounds=1, repeat=0)

    def test_reference_loop_is_deterministic(self):
        assert bench.reference_loop() == bench.reference_loop()
        assert bench.reference_loop_ms() > 0.0

    def test_percentile_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert bench.percentile_ms(samples, 0) == 10.0
        assert bench.percentile_ms(samples, 50) == 20.0
        assert bench.percentile_ms(samples, 100) == 40.0
        with pytest.raises(ValueError):
            bench.percentile_ms([], 50)


class TestSchema:
    def test_bench_row_shape(self):
        row = bench.bench_row(
            "cold_plan",
            "kirin990",
            [12.0, 10.0, 14.0],
            phases={"objective": 8.0},
            counters={"plan_cache_hits": 1.0},
            attributed_frac=0.97,
        )
        assert row["rounds"] == 3
        assert row["min_ms"] == 10.0
        assert row["p50_ms"] == 12.0
        assert row["max_ms"] == 14.0
        assert row["mean_ms"] == pytest.approx(12.0)
        assert row["tolerance_frac"] == bench.DEFAULT_TOLERANCE_FRAC
        assert row["abs_slack_ms"] == bench.DEFAULT_ABS_SLACK_MS
        assert row["phases_exclusive_ms"] == {"objective": 8.0}
        assert row["attributed_frac"] == 0.97
        assert row["counters"] == {"plan_cache_hits": 1.0}
        assert "reference_ms" not in row
        timed = bench.bench_row("cold_plan", "kirin990", [1.0], reference_ms=2.5)
        assert timed["reference_ms"] == 2.5

    def test_bench_row_needs_samples(self):
        with pytest.raises(ValueError):
            bench.bench_row("x", "kirin990", [])

    def test_bench_doc_shape_and_order(self):
        doc = bench.bench_doc(
            [
                bench.bench_row("b", "soc2", [1.0]),
                bench.bench_row("a", "soc1", [2.0]),
            ]
        )
        assert doc["schema"] == bench.BENCH_SCHEMA
        assert {"python", "platform", "machine", "cpu_count"} <= set(
            doc["environment"]
        )
        keys = [(r["scenario"], r["soc"]) for r in doc["results"]]
        assert keys == sorted(keys)
        json.dumps(doc)  # JSON-ready

    def test_read_write_round_trip(self, tmp_path):
        doc = bench.bench_doc([bench.bench_row("a", "s", [1.0])])
        path = str(tmp_path / "bench.json")
        bench.write_bench_json(path, doc)
        assert bench.read_bench_json(path) == doc

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something.else"}))
        with pytest.raises(ValueError):
            bench.read_bench_json(str(path))


class TestBaselineGate:
    def _docs(self, current_min, baseline_min, **baseline_extra):
        current = bench.bench_doc(
            [bench.bench_row("cold_plan", "kirin990", [current_min])]
        )
        row = bench.bench_row("cold_plan", "kirin990", [baseline_min])
        row.update(baseline_extra)
        return current, bench.bench_doc([row])

    def test_within_band_passes(self):
        current, baseline = self._docs(100.0, 90.0)
        (comp,) = bench.compare_to_baseline(current, baseline)
        assert not comp.regressed
        assert comp.ratio_x == pytest.approx(100.0 / 90.0)

    def test_beyond_band_regresses(self):
        current, baseline = self._docs(
            100.0, 10.0, tolerance_frac=0.5, abs_slack_ms=1.0
        )
        (comp,) = bench.compare_to_baseline(current, baseline)
        assert comp.regressed
        assert comp.limit_ms == pytest.approx(10.0 * 1.5 + 1.0)
        assert bench.regressions([comp]) == [comp]

    def test_tolerance_override(self):
        current, baseline = self._docs(
            100.0, 10.0, tolerance_frac=100.0, abs_slack_ms=0.0
        )
        (comp,) = bench.compare_to_baseline(
            current, baseline, tolerance_frac=0.1
        )
        assert comp.regressed

    def _ratio_docs(self, current_min, current_ref):
        current = bench.bench_doc(
            [bench.bench_row("cold_plan", "kirin990", [current_min],
                             reference_ms=current_ref)]
        )
        baseline = bench.bench_doc(
            [bench.bench_row("cold_plan", "kirin990", [100.0],
                             reference_ms=2.0)]
        )
        return current, baseline

    def test_ratio_gate_flags_a_1_5x_slower_row(self):
        # Same machine speed (same reference), 1.5x the time.
        (comp,) = bench.compare_to_baseline(*self._ratio_docs(150.0, 2.0))
        assert comp.regressed
        assert comp.ratio_x == pytest.approx(1.5)
        assert comp.limit_ms == pytest.approx(130.0)

    def test_ratio_gate_passes_a_row_at_the_same_ratio(self):
        # Twice the time on a machine whose reference loop is twice as
        # slow: the same ratio, so no regression.
        (comp,) = bench.compare_to_baseline(*self._ratio_docs(200.0, 4.0))
        assert not comp.regressed
        assert comp.ratio_x == pytest.approx(1.0)
        assert comp.limit_ms == pytest.approx(260.0)

    def _counter_docs(self, current_counters, baseline_counters):
        current = bench.bench_doc(
            [bench.bench_row("cold_plan", "kirin990", [10.0],
                             counters=current_counters)]
        )
        baseline = bench.bench_doc(
            [bench.bench_row("cold_plan", "kirin990", [10.0],
                             counters=baseline_counters)]
        )
        return current, baseline

    def test_equal_counters_pass(self):
        counters = {"objective_evaluations": 438.0, "engine_steps": 6164.0}
        (comp,) = bench.compare_to_baseline(
            *self._counter_docs(counters, dict(counters))
        )
        assert not comp.regressed
        assert comp.counter_diffs == ()

    @pytest.mark.parametrize(
        "current",
        [
            {"objective_evaluations": 439.0, "engine_steps": 6164.0},
            {"objective_evaluations": 437.0, "engine_steps": 6164.0},
            {"objective_evaluations": 438.0},
            {"objective_evaluations": 438.0, "engine_steps": 6164.0,
             "brand_new": 1.0},
        ],
    )
    def test_any_counter_difference_regresses(self, current):
        baseline = {"objective_evaluations": 438.0, "engine_steps": 6164.0}
        (comp,) = bench.compare_to_baseline(
            *self._counter_docs(current, baseline)
        )
        assert comp.regressed
        assert not comp.time_regressed
        assert len(comp.counter_diffs) == 1
        assert "COUNTERS CHANGED" in bench.render_comparison([comp])

    def test_tolerance_override_leaves_counters_exact(self):
        current, baseline = self._counter_docs(
            {"engine_steps": 1.0}, {"engine_steps": 2.0}
        )
        (comp,) = bench.compare_to_baseline(
            current, baseline, tolerance_frac=100.0
        )
        assert comp.regressed

    def test_new_row_is_ungated(self):
        current = bench.bench_doc([bench.bench_row("brand_new", "s", [9.9])])
        baseline = bench.bench_doc([])
        (comp,) = bench.compare_to_baseline(current, baseline)
        assert not comp.regressed
        assert comp.baseline_min_ms is None
        assert "new" in bench.render_comparison([comp])

    def test_baseline_subset_is_usable(self):
        # Baseline rows not re-run are ignored (scenario subsets).
        current = bench.bench_doc([bench.bench_row("a", "s", [1.0])])
        baseline = bench.bench_doc(
            [
                bench.bench_row("a", "s", [1.0]),
                bench.bench_row("b", "s", [1.0]),
            ]
        )
        comparisons = bench.compare_to_baseline(current, baseline)
        assert len(comparisons) == 1

    def test_render_comparison_flags_regression(self):
        current, baseline = self._docs(
            100.0, 10.0, tolerance_frac=0.5, abs_slack_ms=1.0
        )
        text = bench.render_comparison(
            bench.compare_to_baseline(current, baseline)
        )
        assert "REGRESSED" in text


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            bench.run_bench(scenarios=["nope"], rounds=1)

    def test_single_cell_run_shape(self):
        doc = bench.run_bench(
            scenarios=["executor_sim"], socs=["kirin990"], rounds=1
        )
        (row,) = doc["results"]
        assert row["scenario"] == "executor_sim"
        assert row["soc"] == "kirin990"
        assert row["rounds"] == 1
        assert row["min_ms"] > 0.0
        assert "phases_exclusive_ms" in row
        json.dumps(doc)

    def test_rows_carry_reference_and_engine_counters(self):
        doc = bench.run_bench(
            scenarios=["cold_plan"], socs=["kirin990"], rounds=1
        )
        (row,) = doc["results"]
        assert row["reference_ms"] > 0.0
        counters = row["counters"]
        for name in ("engine_steps", "slowdown_evaluations",
                     "chain_task_memo_hits", "chain_task_memo_misses"):
            assert counters[name] > 0
        # Every probe's simulation takes at least one step.
        assert counters["engine_steps"] >= counters["objective_evaluations"]

    def test_warm_replan_hits_the_plan_cache(self):
        doc = bench.run_bench(
            scenarios=["warm_replan"], socs=["kirin990"], rounds=1
        )
        (row,) = doc["results"]
        counters = row["counters"]
        assert counters["plan_cache_hits"] >= 1
        # A warm re-plan never re-runs the event-driven simulation.
        assert counters.get("objective_evaluations", 0) == 0

    def test_cold_plan_attribution_recorded(self):
        doc = bench.run_bench(
            scenarios=["cold_plan"], socs=["kirin990"], rounds=1
        )
        (row,) = doc["results"]
        assert row["attributed_frac"] >= 0.90

    def test_progress_callback(self):
        seen = []
        bench.run_bench(
            scenarios=["executor_sim"], socs=["kirin990"], rounds=1,
            progress=seen.append,
        )
        assert seen == ["executor_sim on kirin990"]

    def test_default_matrix_covers_all(self):
        # Names only — don't run the full matrix in unit tests.
        assert set(bench.SCENARIO_NAMES) == {
            "cold_plan", "warm_replan", "streaming_window",
            "drift_replan", "executor_sim",
        }



def _committed_rows():
    doc = bench.read_bench_json(str(BASELINE))
    return {(row["scenario"], row["soc"]): row for row in doc["results"]}


class TestCommittedCounters:
    """Every bench cell's counters equal the committed baseline, exactly.

    Counters come from one instrumented pass after the timed rounds, so
    one round reproduces them; CI's bench job gates the timings.
    """

    def test_baseline_covers_the_matrix(self):
        assert set(_committed_rows()) == {
            (scenario, soc)
            for scenario in bench.SCENARIO_NAMES
            for soc in SOC_NAMES
        }

    @pytest.mark.parametrize("soc", SOC_NAMES)
    @pytest.mark.parametrize("scenario", bench.SCENARIO_NAMES)
    def test_counters_match_the_baseline(self, scenario, soc):
        committed = _committed_rows()[(scenario, soc)]
        row = bench.SCENARIOS[scenario](soc, 1).to_row()
        assert row.get("counters", {}) == committed.get("counters", {})

    def test_every_planning_miss_resumes_from_an_anchor(self):
        """In every cell that plans, each objective-cache miss is a probe
        resumed from an anchor's run: none re-simulates from scratch."""
        planning = {
            cell: row["counters"]
            for cell, row in _committed_rows().items()
            if row.get("counters", {}).get("objective_cache_misses")
        }
        assert {scenario for scenario, _ in planning} == {"cold_plan", "drift_replan"}
        for cell, counters in planning.items():
            assert (
                counters["objective_probes_resumed"]
                == counters["objective_cache_misses"]
            ), cell


class TestCliVerbs:
    def test_bench_json_verb(self, capsys):
        from repro.cli import main

        code = main(
            ["bench", "--scenarios", "executor_sim", "--socs", "kirin990",
             "--rounds", "1", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == bench.BENCH_SCHEMA

    def test_bench_gate_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        baseline = str(tmp_path / "BENCH_test.json")
        args = ["bench", "--scenarios", "executor_sim", "--socs",
                "kirin990", "--rounds", "1", "--baseline", baseline]
        assert main(args + ["--update-baseline"]) == 0
        assert bench.read_bench_json(baseline)["schema"] == bench.BENCH_SCHEMA
        capsys.readouterr()
        # The plumbing under test is the round trip and the exact
        # counter gate; a wide time band keeps host noise out of it
        # (the time gate itself is pinned by TestBaselineGate).
        assert main(args + ["--tolerance", "1.5"]) == 0
        assert "ok (" in capsys.readouterr().out

    def _stub_runs(self, monkeypatch, ratios, counters=None):
        """Stub ``run_bench`` to return one cell per run, with the given
        ``min_ms / reference_ms`` ratios and per-run counters."""
        docs = [
            bench.bench_doc(
                [
                    bench.bench_row(
                        "executor_sim",
                        "kirin990",
                        [ratio * 2.0],
                        counters=(counters or {}).get(i, {"engine_steps": 7}),
                        reference_ms=2.0,
                    )
                ]
            )
            for i, ratio in enumerate(ratios)
        ]
        calls = iter(docs)
        monkeypatch.setattr(bench, "run_bench", lambda **_: next(calls))
        return ["bench", "--scenarios", "executor_sim", "--socs", "kirin990",
                "--rounds", "1", "--json", "--update-baseline", "--baseline"]

    def test_update_baseline_writes_each_cells_median_run(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        assert bench.BASELINE_RUNS == 3
        target = tmp_path / "BENCH_median.json"
        args = self._stub_runs(monkeypatch, [1.9, 1.0, 1.2])
        assert main(args + [str(target)]) == 0
        (row,) = bench.read_bench_json(str(target))["results"]
        assert row["min_ms"] / row["reference_ms"] == 1.2

    def test_update_baseline_refuses_runs_whose_counters_differ(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        target = tmp_path / "BENCH_median.json"
        args = self._stub_runs(
            monkeypatch, [1.0, 1.0, 1.0], counters={2: {"engine_steps": 8}}
        )
        assert main(args + [str(target)]) == 1
        assert "counters differ" in capsys.readouterr().err
        assert not target.exists()

    def test_bench_missing_baseline_errors(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["bench", "--scenarios", "executor_sim", "--socs", "kirin990",
             "--rounds", "1", "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2

    def test_profile_json_verb(self, capsys):
        from repro.cli import main
        from repro.obs import prof

        code = main(
            ["profile", "--soc", "kirin990", "--models",
             "squeezenet,resnet50", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == prof.PROFILE_SCHEMA
        assert doc["attributed_frac"] >= 0.90
        assert "objective" in doc["phases"]

    def test_profile_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        speedscope = tmp_path / "p.speedscope.json"
        collapsed = tmp_path / "p.collapsed.txt"
        trace = tmp_path / "p.trace.json"
        code = main(
            ["profile", "--soc", "kirin990", "--models", "squeezenet",
             "--speedscope", str(speedscope),
             "--collapsed", str(collapsed), "--trace", str(trace)]
        )
        assert code == 0
        ss = json.loads(speedscope.read_text())
        assert ss["$schema"].startswith("https://www.speedscope.app")
        assert collapsed.read_text().strip()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(
            str(e.get("name", "")).startswith("phase:") for e in events
        )

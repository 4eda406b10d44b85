"""Self-test of the end-to-end benchmark at smoke scale.

    python -m pytest benchmarks/e2e
"""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run
import worker

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SECONDS = 1.0


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Per workload: one untraced and two traced smoke runs."""
    trace_dir = tmp_path_factory.mktemp("traces")
    out = {}
    for name in run.WORKLOAD_NAMES:
        out[name] = [
            run.run_workload(name, 3, SMOKE_SECONDS, False, smoke=True),
            run.run_workload(name, 3, SMOKE_SECONDS, True, smoke=True, trace_dir=trace_dir),
            run.run_workload(name, 3, SMOKE_SECONDS, True, smoke=True),
        ]
    return out, trace_dir


def test_every_metric_is_emitted_with_its_unit(smoke_runs):
    runs, _ = smoke_runs
    for name, (untraced, traced, _) in runs.items():
        for doc, group in ((untraced, "end_to_end"), (traced, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == expected, (name, group)
            assert doc["failed"] == 0, doc["failures"]
            assert doc["attempted"] >= 1
        for metric in untraced["metrics"].values():
            assert metric["value"] > 0


def test_traced_runs_repeat_their_counts_exactly(smoke_runs):
    runs, _ = smoke_runs
    for name, (_, first, second) in runs.items():
        counts = [
            {k: v["value"] for k, v in doc["metrics"].items() if compare.is_exact(k)}
            for doc in (first, second)
        ]
        assert counts[0] == counts[1], name


def test_layers_isolate_the_workloads(smoke_runs):
    runs, _ = smoke_runs

    def value(name, metric):
        return runs[name][1]["metrics"][metric]["value"]

    assert value("warm_stream", "core.objective.misses") == 0
    assert value("open_loop_slo", "core.objective.probes") == 0
    assert value("cold_mix", "core.objective.misses") > 0
    for name in ("cold_mix", "warm_stream", "open_loop_slo"):
        assert value(name, "core.online.invalidations") == 0
    assert value("drift_stream", "core.online.invalidations") > 0
    assert value("open_loop_slo", "obs.blame.max_residue_frac") <= 1e-9


def test_trace_files_are_chrome_traces_with_nonnegative_self_times(smoke_runs):
    _, trace_dir = smoke_runs
    for name in run.WORKLOAD_NAMES:
        doc = json.loads((trace_dir / f"{name}.trace.json").read_text(encoding="utf-8"))
        events = doc["traceEvents"]
        assert events, name
        assert all(ev["ph"] == "X" and ev["dur"] >= 0 for ev in events)
        assert min(layers.self_times_us(doc).values()) >= -1e-3, name


def test_a_corrupted_result_counts_as_failed(monkeypatch):
    from repro.runtime.engine import DiscreteEventEngine

    honest = DiscreteEventEngine.result

    def corrupted(self):
        result = honest(self)
        result.request_finish_ms[0] += 1.0
        return result

    monkeypatch.setattr(DiscreteEventEngine, "result", corrupted)
    doc = worker.run_workload("open_loop_slo", 3, SMOKE_SECONDS, False, smoke=True)
    assert 0 < doc["failed"] <= doc["attempted"]


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 100.2] * 2
    faster = [v * 0.5 for v in base]
    assert compare.verdict(base, base, 0.1, False)[0] == "unchanged"
    assert compare.verdict(base, [v * 1.5 for v in base], 0.1, False)[0] == "worse"
    assert compare.verdict(base, faster, 0.1, False)[0] == "better"
    assert compare.verdict(base[:5], faster[:5], 0.1, False)[0] == "unchanged"
    assert compare.verdict(base, faster, 0.1, True)[0] == "worse"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0] * 2
    assert compare.verdict(base, noisy, 0.1, False)[0] == "unresolved"


def test_compare_flags_a_regression(smoke_runs):
    runs, _ = smoke_runs
    base = [runs["cold_mix"][0]]
    slower = json.loads(json.dumps(base[0]))
    slower["metrics"]["step_ms_p50"]["value"] *= 2
    lines, regressed = compare.compare(base, [slower], SPEC)
    assert regressed
    assert any("step_ms_p50" in line and "worse" in line for line in lines)
    failing = json.loads(json.dumps(base[0]))
    failing["failed"] = 1
    assert compare.compare(base, [failing], SPEC)[1]
    assert not compare.compare(base, base, SPEC)[1]


def test_compare_holds_simulated_metrics_exact_per_seed(smoke_runs):
    runs, _ = smoke_runs
    base = [runs["open_loop_slo"][0]]

    def edited(edit):
        doc = json.loads(json.dumps(base[0]))
        edit(doc)
        return compare.compare(base, [doc], SPEC)

    # 1% is well inside the relative bound, but the seed is the same.
    lines, regressed = edited(
        lambda d: d["metrics"]["sim_makespan_ms"].update(
            value=d["metrics"]["sim_makespan_ms"]["value"] * 1.01
        )
    )
    assert regressed
    assert any("sim_makespan_ms" in line and "worse" in line for line in lines)
    lines, regressed = edited(
        lambda d: d["detail"]["max_rate_per_s"].update(
            {soc: rate - 2 for soc, rate in d["detail"]["max_rate_per_s"].items()}
        )
    )
    assert regressed
    assert any("max_rate_per_s" in line and "worse" in line for line in lines)
    other_seed = json.loads(json.dumps(base[0]))
    other_seed["seed"] += 1
    other_seed["metrics"]["slo_met_frac"]["value"] *= 0.999
    assert not compare.compare(base, [other_seed], SPEC)[1]


def test_compare_flags_a_lower_traced_max_rate(smoke_runs):
    runs, _ = smoke_runs
    base = [runs["open_loop_slo"][1]]
    lower = json.loads(json.dumps(base[0]))
    lower["metrics"]["obs.slo.max_rate_per_s"]["value"] -= 2
    lines, regressed = compare.compare(base, [lower], SPEC)
    assert regressed
    assert any("obs.slo.max_rate_per_s" in line and "worse" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Tests for the causal-attribution layer: wait-state accounting,
exact critical paths, what-if counterfactuals, the ``blame`` CLI verb
(``hetero2pipe.blame.v1``) and the v2 run archive."""

import json

import pytest

from repro.cli import main
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import get_model
from repro.obs.blame import (
    BLAME_COMPONENTS,
    aggregate_blame,
    blame_requests,
    compute_slack,
    extract_critical_path,
)
from repro.obs.causality import (
    CAUSE_ARRIVAL,
    CAUSE_FORCED,
    CAUSE_KINDS,
    CAUSE_PREDECESSOR,
    CAUSE_PROCESSOR_FREED,
    CAUSE_RESIDENCY_DRAIN,
)
from repro.obs.export import blame_telemetry_rows, write_jsonl
from repro.obs.timeline import TimelineAggregator
from repro.obs.whatif import (
    WhatIf,
    parse_whatif,
    parse_whatifs,
    run_counterfactual,
    run_whatifs,
)
from repro.runtime.arrivals import PoissonArrivals
from repro.runtime.engine import ChainTask, DiscreteEventEngine
from repro.runtime.executor import (
    plan_to_chains,
    replicate_chains,
    simulate_chains,
)
from repro.runtime.replay import (
    RUN_SCHEMA,
    RUN_SCHEMA_V1,
    load_run,
    run_from_dict,
    run_to_dict,
    save_run,
)
from repro.runtime.tracing import to_chrome_trace

RESIDUE = 1e-9
MIX = ("squeezenet", "mobilenetv2", "resnet50")
#: The per-SoC identity runs: the mix closed-loop, and REPEAT rounds of
#: it under seeded Poisson arrivals whose mean gap and admission
#: deadline scale with the closed-loop makespan, so requests queue and
#: some are dropped on every SoC.
REPEAT = 4
ARRIVAL_SEED = 11
ARRIVAL_FRACTION = 0.15
DEADLINE_FACTOR = 1.5


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def small_plan(kirin):
    models = [get_model(n) for n in MIX]
    return Hetero2PipePlanner(kirin).plan(models).plan


@pytest.fixture(scope="module")
def soc_plans():
    models = [get_model(n) for n in MIX]
    return {
        name: Hetero2PipePlanner(get_soc(name)).plan(models).plan
        for name in SOC_NAMES
    }


@pytest.fixture(scope="module")
def soc_runs(soc_plans):
    """Per SoC: the closed-loop run and the queued, dropping open run."""
    runs = {}
    for name, plan in soc_plans.items():
        closed = simulate_chains(
            plan.soc, plan_to_chains(plan), record=False, track_causality=True
        )
        queued = simulate_chains(
            plan.soc,
            replicate_chains(plan_to_chains(plan), REPEAT),
            arrivals=PoissonArrivals(
                interval_ms=closed.makespan_ms * ARRIVAL_FRACTION,
                seed=ARRIVAL_SEED,
            ),
            deadline_ms=closed.makespan_ms * DEADLINE_FACTOR,
            record=False,
            track_causality=True,
        )
        runs[name] = (closed, queued)
    return runs


def _task(soc, request, solo_ms, proc_idx=0, working_set=0.0):
    return ChainTask(
        request=request,
        proc=soc.processors[proc_idx],
        solo_ms=solo_ms,
        workload=None,
        working_set=working_set,
    )


def _assert_identities(result, label=""):
    """Every request residue-free; critical path tiles [0, makespan]."""
    requests = blame_requests(result)
    for r in requests:
        assert abs(r.residue_ms) <= RESIDUE, (label, r.request, r.residue_ms)
    path = extract_critical_path(result)
    assert abs(path.residue_ms) <= RESIDUE, label
    if result.records:
        assert path.segments, label
    return requests, path


class TestWaitAccountingIdentity:
    def test_closed_loop_plan(self, soc_runs):
        for soc_name, (closed, _) in soc_runs.items():
            requests, _ = _assert_identities(closed, soc_name)
            assert {r.status for r in requests} == {"completed"}, soc_name
            # Closed loop: a never-queued request has zero first-stage wait.
            assert any(r.first_stage_wait_ms == 0.0 for r in requests), soc_name

    def test_open_loop_poisson_with_drops(self, soc_runs):
        for soc_name, (_, queued) in soc_runs.items():
            requests, _ = _assert_identities(queued, soc_name)
            dropped = [r for r in requests if r.status == "dropped"]
            assert dropped, f"{soc_name}: deadline too loose to exercise drops"
            # A dropped request is blamed up to its drop time: pure wait.
            for r in dropped:
                assert r.solo_ms == 0.0
                assert r.latency_ms == pytest.approx(
                    r.processor_busy_wait_ms
                    + r.residency_wait_ms
                    + r.scheduler_wait_ms
                )

    def test_queued_request_blames_processor(self, kirin):
        chains = [[_task(kirin, 0, 10.0)], [_task(kirin, 1, 5.0)]]
        result = simulate_chains(
            kirin, chains, record=False, track_causality=True
        )
        requests, _ = _assert_identities(result)
        assert requests[1].processor_busy_wait_ms == pytest.approx(10.0)
        assert requests[1].latency_ms == pytest.approx(15.0)
        [row] = [c for c in result.causality if c.request == 1]
        assert row.cause == CAUSE_PROCESSOR_FREED
        assert row.enabled_by == (0, 0)

    def test_residency_wait_cause(self, kirin):
        cap = kirin.memory_capacity_bytes
        chains = [
            [_task(kirin, 0, 10.0, proc_idx=0, working_set=0.7 * cap)],
            [_task(kirin, 1, 10.0, proc_idx=1, working_set=0.6 * cap)],
        ]
        result = simulate_chains(
            kirin, chains, record=False, track_causality=True
        )
        requests, _ = _assert_identities(result)
        assert requests[1].residency_wait_ms == pytest.approx(10.0)
        [row] = [c for c in result.causality if c.request == 1]
        assert row.cause == CAUSE_RESIDENCY_DRAIN
        assert row.enabled_by == (0, 0)

    def test_forced_overcommit_wedge(self, kirin):
        # The engine's overcommit escape hatch (_force_start_blocked)
        # must surface as a `forced` cause and keep the identity exact.
        cap = kirin.memory_capacity_bytes
        chains = [
            [
                _task(kirin, 0, 10.0, proc_idx=0, working_set=0.7 * cap),
                _task(kirin, 0, 10.0, proc_idx=1, working_set=0.4 * cap),
            ]
        ]
        result = simulate_chains(
            kirin, chains, record=False, track_causality=True
        )
        assert result.memory_pressure_events == 1
        requests, _ = _assert_identities(result)
        second = [c for c in result.causality if c.index == 1]
        assert [c.cause for c in second] == [CAUSE_FORCED]
        # The overcommit fires in the same scheduling pass that detects
        # the wedge, so no wall time is lost to the block.
        assert requests[0].latency_ms == pytest.approx(20.0)
        assert requests[0].solo_ms == pytest.approx(20.0)

    def test_cancellation_identity(self, kirin):
        chains = [[_task(kirin, 0, 50.0)], [_task(kirin, 1, 10.0)]]
        engine = DiscreteEventEngine(kirin, chains, record=False)
        engine.schedule_cancellation(0, 20.0)
        result = engine.run()
        requests, _ = _assert_identities(result)
        by_req = {r.request: r for r in requests}
        assert by_req[0].status == "cancelled"
        # The truncated slice counts only its executed progress.
        assert by_req[0].solo_ms == pytest.approx(20.0)
        # Request 1 was enabled by the cancellation freeing the cpu.
        [row] = [c for c in result.causality if c.request == 1]
        assert row.cause == CAUSE_PROCESSOR_FREED
        assert row.enabled_by == (0, 0)

    def test_preemption_identity(self, kirin):
        # Request 1 is running when it is preempted; request 0 (lower
        # id, queued since t=5) steals the freed processor, so request 1
        # accrues genuine preempted time before resuming.
        chains = [[_task(kirin, 0, 5.0)], [_task(kirin, 1, 50.0)]]
        engine = DiscreteEventEngine(
            kirin, chains, arrivals=[5.0, 0.0], record=False
        )
        engine.schedule_preemption(1, 10.0)
        result = engine.run()
        requests, _ = _assert_identities(result)
        by_req = {r.request: r for r in requests}
        assert by_req[1].preempted_ms == pytest.approx(5.0)
        assert by_req[1].solo_ms == pytest.approx(50.0)
        assert by_req[1].latency_ms == pytest.approx(55.0)

    def test_causality_off_is_empty_and_blame_raises(self, kirin, small_plan):
        result = simulate_chains(
            kirin,
            plan_to_chains(small_plan),
            record=False,
            track_causality=False,
        )
        assert result.causality == []
        with pytest.raises(ValueError, match="causality"):
            blame_requests(result)
        # The blame trace view is a reader too: no silent plain trace.
        with pytest.raises(ValueError, match="causality"):
            to_chrome_trace(result, blame=True)
        assert json.loads(to_chrome_trace(result))["traceEvents"]

    def test_causality_does_not_perturb_simulation(self, kirin, small_plan):
        with_rows = simulate_chains(
            kirin, plan_to_chains(small_plan), record=False, track_causality=True
        )
        assert with_rows.causality
        without = simulate_chains(
            kirin,
            plan_to_chains(small_plan),
            record=False,
            track_causality=False,
        )
        assert [
            (r.request, r.stage, r.start_ms, r.finish_ms)
            for r in with_rows.records
        ] == [
            (r.request, r.stage, r.start_ms, r.finish_ms)
            for r in without.records
        ]
        assert with_rows.makespan_ms == without.makespan_ms

    def test_cause_kinds_are_closed(self, kirin, small_plan):
        result = simulate_chains(
            kirin, plan_to_chains(small_plan), record=False, track_causality=True
        )
        assert result.causality
        assert {c.cause for c in result.causality} <= set(CAUSE_KINDS)
        roots = [c for c in result.causality if c.index == 0]
        assert all(
            c.cause in (CAUSE_ARRIVAL, CAUSE_PROCESSOR_FREED, CAUSE_FORCED)
            for c in roots
        )
        later = [c for c in result.causality if c.index > 0]
        assert any(c.cause == CAUSE_PREDECESSOR for c in later) or not later


class TestCriticalPathAndSlack:
    def test_path_tiles_makespan(self, soc_runs):
        for soc_name, runs in soc_runs.items():
            for result in runs:
                path = extract_critical_path(result)
                assert path.makespan_ms == result.makespan_ms, soc_name
                assert abs(path.residue_ms) <= RESIDUE, soc_name
                total = path.total_gap_ms + path.total_duration_ms
                assert total == pytest.approx(result.makespan_ms, abs=RESIDUE)
                # Segments are contiguous: each starts where the previous
                # ended.
                cursor = 0.0
                for seg in path.segments:
                    start = (
                        seg.start_ms if seg.start_ms is not None else seg.finish_ms
                    )
                    assert start == pytest.approx(
                        cursor + seg.gap_ms, abs=RESIDUE
                    ), soc_name
                    cursor = seg.finish_ms

    def test_path_tasks_have_zero_slack(self, kirin, small_plan):
        chains = replicate_chains(plan_to_chains(small_plan), 2)
        result = simulate_chains(
            kirin,
            chains,
            arrivals=PoissonArrivals(interval_ms=5.0, seed=1),
            record=False,
            track_causality=True,
        )
        path = extract_critical_path(result)
        slack = compute_slack(result)
        assert path.segments
        for seg in path.segments:
            assert slack[(seg.request, seg.index)] == pytest.approx(
                0.0, abs=1e-6
            )
        # Slack is never negative and some off-path task has room.
        assert all(s >= -1e-9 for s in slack.values())


class TestAggregateAndTimelineAgreement:
    def test_aggregate_blame_tables(self, kirin, small_plan):
        result = simulate_chains(
            kirin, plan_to_chains(small_plan), record=False, track_causality=True
        )
        agg = aggregate_blame(result, request_models=["a", "b", "c"])
        assert agg["by_processor"]
        assert set(agg) == {
            "by_processor",
            "by_model",
            "by_stage",
            "corun_pairs",
        }
        assert set(agg["by_model"]) <= {"a", "b", "c"}
        for row in agg["by_processor"].values():
            assert set(row) == set(BLAME_COMPONENTS)
        # The directional inflation matrix matches the engine's totals.
        pair_total = sum(p["inflation_ms"] for p in agg["corun_pairs"])
        assert pair_total == pytest.approx(
            sum(result.corun_inflation_ms.values())
        )

    def test_blame_totals_agree_with_timeline(self, kirin, small_plan):
        # The busy time the timeline fold integrates per processor must
        # equal the blame layer's executed solo + inflation (they are
        # two independent accountings of the same engine run).
        chains = replicate_chains(plan_to_chains(small_plan), 2)
        engine = DiscreteEventEngine(
            kirin,
            chains,
            arrivals=PoissonArrivals(interval_ms=10.0, seed=2),
            keep_events=True,
            record=False,
        )
        result = engine.run()
        stages = [len(chain) for chain in chains]
        timeline = TimelineAggregator(
            [p.name for p in kirin.processors], stages, 25.0
        )
        windows = []
        for event in result.events:
            windows.extend(timeline.observe(event))
        windows.extend(timeline.finish(result.makespan_ms))

        timeline_busy = {}
        for w in windows:
            span = w.end_ms - w.start_ms
            for proc, frac in w.utilization_frac.items():
                timeline_busy[proc] = timeline_busy.get(proc, 0.0) + frac * span

        agg = aggregate_blame(result)
        for proc, row in agg["by_processor"].items():
            blame_busy = (
                row["solo_ms"] + row["contention_ms"]
            )
            assert timeline_busy.get(proc, 0.0) == pytest.approx(
                blame_busy, abs=1e-6
            ), proc
            assert result.processor_busy_ms[proc] == pytest.approx(
                blame_busy, abs=1e-6
            )


class TestWhatIf:
    def test_parse_specs(self):
        specs = parse_whatifs("scale:gpu:1.5,no-contention,drop:2")
        assert [w.kind for w in specs] == [
            "scale_processor",
            "no_contention",
            "drop_request",
        ]
        assert specs[0].processor == "gpu"
        assert specs[0].factor == 1.5
        assert specs[2].request == 2
        assert parse_whatif("unlimited-memory").label == "unlimited-memory"

    @pytest.mark.parametrize(
        "bad",
        ["scale:gpu", "scale:gpu:0", "scale:gpu:x", "drop:x", "bogus", ""],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_whatif(bad)

    def test_scale_processor_speeds_up(self, kirin):
        chains = [[_task(kirin, 0, 10.0)], [_task(kirin, 1, 10.0)]]
        baseline, reports = run_whatifs(
            kirin, chains, [parse_whatif("scale:npu:2")]
        )
        [report] = reports
        assert report.intervention == "scale:npu:2"
        assert report.makespan_ms < baseline.makespan_ms
        assert report.delta_makespan_ms < 0.0

    def test_drop_request_renumbers(self, kirin, small_plan):
        chains = plan_to_chains(small_plan)
        variant, request_map = run_counterfactual(
            kirin, chains, parse_whatif("drop:0")
        )
        assert 0 not in request_map
        assert sorted(request_map.values()) == list(
            range(len(chains) - 1)
        )
        assert variant.num_requests == len(chains) - 1

    def test_no_contention_removes_inflation(self, kirin, small_plan):
        chains = plan_to_chains(small_plan)
        variant, _ = run_counterfactual(
            kirin, chains, parse_whatif("no-contention")
        )
        assert sum(variant.corun_inflation_ms.values()) == 0.0

    def test_scale_requires_valid_factor(self, kirin, small_plan):
        with pytest.raises(ValueError):
            run_counterfactual(
                kirin,
                plan_to_chains(small_plan),
                WhatIf(kind="scale_processor", processor="gpu", factor=0.0),
            )


class TestExportAndArchive:
    def _run(self, kirin, small_plan):
        return simulate_chains(
            kirin, plan_to_chains(small_plan), record=False, track_causality=True
        )

    def test_blame_jsonl_rows(self, kirin, small_plan, tmp_path):
        result = self._run(kirin, small_plan)
        requests = blame_requests(result)
        path = extract_critical_path(result)
        _, reports = run_whatifs(
            kirin,
            plan_to_chains(small_plan),
            [parse_whatif("no-contention")],
        )
        rows = blame_telemetry_rows(requests, path, reports)
        kinds = {row["type"] for row in rows}
        assert kinds == {
            "request_blame",
            "critical_path_segment",
            "whatif_delta",
        }
        out = tmp_path / "blame.jsonl"
        count = write_jsonl(str(out), rows)
        lines = out.read_text().splitlines()
        assert len(lines) == count == len(rows)
        assert all(json.loads(line)["type"] in kinds for line in lines)

    def test_run_archive_v2_roundtrip(self, kirin, small_plan, tmp_path):
        result = self._run(kirin, small_plan)
        blame = blame_requests(result)
        target = tmp_path / "run.json"
        save_run(str(target), result, blame=blame)
        archive = load_run(str(target))
        loaded, residuals, drift = archive  # historical 3-tuple unpack
        assert residuals == [] and drift == []
        assert loaded.makespan_ms == result.makespan_ms
        assert len(loaded.causality) == len(result.causality)
        assert loaded.causality[0].cause == result.causality[0].cause
        assert loaded.corun_inflation_ms == result.corun_inflation_ms
        assert [b.to_dict() for b in archive.blame] == [
            b.to_dict() for b in blame
        ]
        with open(target, encoding="utf-8") as fh:
            assert json.load(fh)["schema"] == RUN_SCHEMA

    def test_run_archive_accepts_v1(self, kirin, small_plan):
        result = self._run(kirin, small_plan)
        doc = run_to_dict(result)
        doc["schema"] = RUN_SCHEMA_V1
        # v1 documents had none of the v2 sections.
        for key in ("windows", "blame", "causality", "corun_inflation_ms"):
            doc.pop(key, None)
        archive = run_from_dict(doc)
        assert archive.result.makespan_ms == result.makespan_ms
        assert archive.result.causality == []
        assert archive.windows == [] and archive.blame == []

    def test_run_archive_rejects_unknown_schema(self, kirin, small_plan):
        doc = run_to_dict(self._run(kirin, small_plan))
        doc["schema"] = "hetero2pipe.run.v99"
        with pytest.raises(ValueError, match="schema"):
            run_from_dict(doc)

    def test_blame_trace_view(self, kirin, small_plan):
        result = self._run(kirin, small_plan)
        doc = json.loads(to_chrome_trace(result, blame=True))
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "M", "C", "s", "f"}
        crit = [
            e for e in events if e.get("args", {}).get("critical_path")
        ]
        assert crit and all(e["cname"] == "terrible" for e in crit)
        waits = [e for e in events if e.get("cat") == "blame"]
        assert waits
        assert {e["cname"] for e in waits} <= {
            "thread_state_runnable",
            "thread_state_iowait",
            "grey",
            "yellow",
        }
        # Default stays untouched: no blame events, no colors.
        plain = json.loads(to_chrome_trace(result))["traceEvents"]
        assert not any(e.get("cat") == "blame" for e in plain)
        assert not any("cname" in e for e in plain)


class TestBlameCli:
    BLAME_ARGS = [
        "blame",
        "--soc", "kirin990",
        "--models", "squeezenet,mobilenetv2",
        "--repeat", "2",
        "--arrivals", "poisson",
        "--interval-ms", "15",
        "--arrival-seed", "2",
        "--whatif", "scale:gpu:2,no-contention",
    ]

    def test_json_schema_v1(self, capsys):
        assert main(self.BLAME_ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hetero2pipe.blame.v1"
        assert sorted(doc) == [
            "aggregates",
            "arrival_process",
            "blame",
            "critical_path",
            "identity",
            "makespan_ms",
            "models",
            "repeat",
            "requests",
            "schema",
            "soc",
            "whatifs",
        ]
        assert doc["identity"]["worst_request_residue_ms"] <= RESIDUE
        assert abs(doc["identity"]["critical_path_residue_ms"]) <= RESIDUE
        assert len(doc["blame"]) == doc["requests"] == 4
        assert doc["critical_path"]["segments"]
        assert [w["intervention"] for w in doc["whatifs"]] == [
            "scale:gpu:2",
            "no-contention",
        ]

    def test_text_and_artifacts(self, capsys, tmp_path):
        jsonl = tmp_path / "blame.jsonl"
        trace = tmp_path / "trace.json"
        assert (
            main(
                self.BLAME_ARGS
                + ["--jsonl", str(jsonl), "--trace", str(trace)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worst accounting residue" in out
        assert "critical path:" in out
        assert "what-if scale:gpu:2" in out
        assert jsonl.read_text().strip()
        assert json.loads(trace.read_text())["traceEvents"]

    def test_bad_whatif_spec_is_usage_error(self, capsys):
        assert main(self.BLAME_ARGS[:-1] + ["scale:gpu:nope"]) == 2
        assert "scale" in capsys.readouterr().err

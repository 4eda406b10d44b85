"""The unified benchmark harness behind ``hetero2pipe bench``.

One place owns *how this repo measures itself*: the timer utilities the
CI guards share (:func:`time_call_s`, :func:`best_of_s`,
:func:`collect_samples_ms`), the named end-to-end scenarios swept across
the registered SoCs, the stable ``hetero2pipe.bench.v1`` JSON document
(per-scenario p50/min/mean, phase breakdown from
:mod:`repro.obs.prof`, cache-effectiveness counters, an environment
block), and the baseline comparison that turns a committed
``BENCH_planner.json`` into a regression gate with per-row tolerance
bands; ``hetero2pipe bench --update-baseline`` re-anchors it.

Scenarios (see :data:`SCENARIOS`):

* ``cold_plan`` — a five-model plan with every planner cache freshly
  invalidated: the full Algorithm 1-3 pass plus its ~400 objective
  re-simulations.  This is the number the ROADMAP's 10x cold-plan
  speedup item is judged against.
* ``warm_replan`` — the identical mix re-planned on warm caches (the
  plan-cache fingerprint hit path PR 3 built).
* ``streaming_window`` — a windowed :class:`StreamingPlanner` pass over
  a 10-request arrival schedule on a warmed planner: the windowing and
  dispatch machinery itself.
* ``drift_replan`` — a streamed run under an injected +30% GPU slowdown
  with accuracy tracking on: detector updates, cache invalidation and
  the replan trigger (planner construction is per-round *setup*, not
  timed).
* ``executor_sim`` — one event-driven execution of a planned pipeline:
  the simulation substrate every objective probe pays for.

Gating rules, per ``(scenario, soc)`` row:

* **Counters, exactly.**  Every row's ``counters`` (objective
  evaluations, pruned and resumed objective probes, cache hits and
  misses, engine steps, slowdown evaluations, slice-task memo hits and
  misses) are deterministic
  counts of one instrumented pass, identical on any machine.  Any
  difference from the baseline row — a changed value, a counter that
  appeared or vanished — is a regression.
* **Time, as a ratio to a reference loop.**  Next to every row the
  harness times :func:`reference_loop`, a fixed pure-Python loop that
  runs no code of the program, and records its fastest run as
  ``reference_ms``.  A row regresses when its ``min_ms / reference_ms``
  exceeds the baseline row's ratio by more than ``tolerance_frac``
  (default 0.3, i.e. 1.3x), plus ``abs_slack_ms`` (default 0).  Dividing
  by the loop cancels the machine's speed, so one baseline serves
  machines of different speeds and the band can be tight enough to
  catch a 1.5x regression.  Rows without a reference on both sides
  compare raw minima.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from . import prof
from .recorder import InMemoryRecorder, use_recorder
from ..core.online import StreamingPlanner
from ..core.planner import Hetero2PipePlanner
from ..hardware.soc import SOC_NAMES, get_soc
from ..models.zoo import get_model
from ..runtime.executor import execute_plan, execute_plan_perturbed
from ..util import percentile
from ..workloads.generator import arrival_times_ms

#: Stable schema marker of every bench document this repo emits.
BENCH_SCHEMA = "hetero2pipe.bench.v1"

#: The committed baseline the CI bench job gates against.
DEFAULT_BASELINE_PATH = "BENCH_planner.json"

#: Default time gate: fail beyond 1.3x the baseline's reference ratio.
DEFAULT_TOLERANCE_FRAC = 0.3
DEFAULT_ABS_SLACK_MS = 0.0

#: Iterations and timed runs of the reference loop (~3 ms a run).
REFERENCE_LOOP_ITERATIONS = 20_000
REFERENCE_ROUNDS = 5

#: Calls per timed round of the sub-millisecond scenarios, so each round
#: spans ~10-20 ms (see :func:`collect_samples_ms`).
WARM_REPLAN_REPEAT = 1000
STREAMING_WINDOW_REPEAT = 40
EXECUTOR_SIM_REPEAT = 100

#: The Fig. 7-style mix every scenario plans.
MODEL_MIX = ("yolov4", "bert", "squeezenet", "resnet50", "vit")

#: Cache-effectiveness counters copied into bench rows when present.
COUNTER_NAMES = (
    "objective_cache_hits",
    "objective_cache_misses",
    "objective_evaluations",
    "objective_probes_pruned",
    "objective_probes_resumed",
    "plan_cache_hits",
    "plan_cache_misses",
    "partition_cache_hits",
    "partition_cache_misses",
    "profile_cache_hits",
    "profile_cache_misses",
    "engine_steps",
    "slowdown_evaluations",
    "chain_task_memo_hits",
    "chain_task_memo_misses",
)


# ------------------------------------------------------- timer utilities


def time_call_s(fn: Callable[[], object]) -> float:
    """Wall time of one call, in seconds (the guards' shared timer)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of_s(rounds: int, fn: Callable[[], object]) -> float:
    """Best-of-N wall time of ``fn`` in seconds (N >= 1)."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    return min(time_call_s(fn) for _ in range(rounds))


def collect_samples_ms(
    fn: Callable[[], object],
    rounds: int,
    setup: Optional[Callable[[], object]] = None,
    repeat: int = 1,
) -> List[float]:
    """Per-round wall times (ms) with an optional untimed setup.

    A round times ``repeat`` back-to-back calls and records their mean,
    so a sub-millisecond call is measured over a span long enough for
    one timer tick or cache hiccup not to dominate it.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")

    def batch() -> None:
        for _ in range(repeat):
            fn()

    samples: List[float] = []
    for _ in range(rounds):
        if setup is not None:
            setup()
        samples.append(time_call_s(batch) * 1e3 / repeat)
    return samples


def reference_loop() -> int:
    """A fixed pure-Python workload: the machine-speed yardstick.

    Dict stores, integer and float arithmetic in an interpreted loop —
    the operations planning is made of — and no code of the program, so
    a change to the program cannot move it.
    """
    table: Dict[int, float] = {}
    total = 0
    acc = 0.0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        total += i * i
        acc = acc * 0.5 + i
        table[i & 255] = acc
    return total + len(table)


def reference_loop_ms() -> float:
    """Fastest of :data:`REFERENCE_ROUNDS` timed reference-loop runs."""
    return min(collect_samples_ms(reference_loop, REFERENCE_ROUNDS))


def percentile_ms(samples_ms: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (q in [0, 100]).

    Delegates to the shared :func:`repro.util.percentile` under the
    ``nearest_rank`` method: the result is always an observed sample
    (no interpolation), which is the definition the published
    ``hetero2pipe.bench.v1`` ``p50_ms`` column has always used.  The
    simulation-latency blocks (``stats``/``accuracy``) use the same
    shared function with the ``linear`` method instead — the two
    definitions intentionally differ and are pinned by tests.
    """
    if not samples_ms:
        raise ValueError("need at least one sample")
    return percentile(samples_ms, q, method="nearest_rank")


# ----------------------------------------------------------- bench rows


def environment_block() -> Dict[str, object]:
    """Host facts a reader needs to judge absolute numbers."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def bench_row(
    scenario: str,
    soc: str,
    samples_ms: Sequence[float],
    phases: Optional[Dict[str, float]] = None,
    counters: Optional[Dict[str, float]] = None,
    attributed_frac: Optional[float] = None,
    reference_ms: Optional[float] = None,
) -> Dict[str, object]:
    """One ``hetero2pipe.bench.v1`` result row.

    ``reference_ms`` is the :func:`reference_loop` time taken next to
    the samples; the baseline gate divides ``min_ms`` by it.  The row's
    band is :data:`DEFAULT_TOLERANCE_FRAC` plus
    :data:`DEFAULT_ABS_SLACK_MS`.
    """
    if not samples_ms:
        raise ValueError(f"scenario {scenario!r}: need at least one sample")
    row: Dict[str, object] = {
        "scenario": scenario,
        "soc": soc,
        "rounds": len(samples_ms),
        "min_ms": min(samples_ms),
        "mean_ms": sum(samples_ms) / len(samples_ms),
        "p50_ms": percentile_ms(samples_ms, 50.0),
        "max_ms": max(samples_ms),
        "tolerance_frac": DEFAULT_TOLERANCE_FRAC,
        "abs_slack_ms": DEFAULT_ABS_SLACK_MS,
    }
    if reference_ms is not None:
        row["reference_ms"] = reference_ms
    if phases is not None:
        row["phases_exclusive_ms"] = {
            k: round(v, 4) for k, v in sorted(phases.items())
        }
    if attributed_frac is not None:
        row["attributed_frac"] = round(attributed_frac, 4)
    if counters is not None:
        row["counters"] = {k: counters[k] for k in sorted(counters)}
    return row


def bench_doc(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Wrap result rows in the versioned bench document."""
    return {
        "schema": BENCH_SCHEMA,
        "environment": environment_block(),
        "results": sorted(
            rows, key=lambda r: (str(r["scenario"]), str(r["soc"]))
        ),
    }


def render_bench_json(doc: Dict[str, object]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_bench_json(path: str, doc: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_bench_json(doc))


def read_bench_json(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, got {schema!r}"
        )
    return doc


# ------------------------------------------------------------- scenarios


@dataclass
class ScenarioResult:
    """One scenario's measurements on one SoC."""

    scenario: str
    soc: str
    samples_ms: List[float]
    phases_exclusive_ms: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    attributed_frac: Optional[float] = None
    simulation: Optional[Dict[str, object]] = None
    reference_ms: Optional[float] = None

    def to_row(self) -> Dict[str, object]:
        row = bench_row(
            self.scenario,
            self.soc,
            self.samples_ms,
            phases=self.phases_exclusive_ms or None,
            counters=self.counters or None,
            attributed_frac=self.attributed_frac,
            reference_ms=self.reference_ms,
        )
        if self.simulation is not None:
            row["simulation"] = self.simulation
        return row


def simulation_latency_block(result: object) -> Dict[str, object]:
    """Simulated-latency summary of an execution, all-dropped-safe.

    ``ExecutionResult.latency_percentile_ms`` raises on a run with no
    completed requests (the percentile is undefined); every bench/guard
    consumer goes through this helper instead, which emits ``None``
    latency fields for such runs — the JSON-facing tri-state the
    ``stats`` CLI already uses.
    """
    completed = result.num_completed  # type: ignore[attr-defined]
    block: Dict[str, object] = {
        "completed_requests": completed,
        "deadline_drops": len(
            getattr(result, "dropped_requests", ()) or ()
        ),
        "makespan_ms": result.makespan_ms,  # type: ignore[attr-defined]
    }
    if completed > 0:
        block["mean_latency_ms"] = result.mean_latency_ms()  # type: ignore[attr-defined]
        block["p50_latency_ms"] = result.p50_latency_ms  # type: ignore[attr-defined]
        block["p95_latency_ms"] = result.p95_latency_ms  # type: ignore[attr-defined]
    else:  # no completion latency exists; emit the tri-state nulls
        block["mean_latency_ms"] = None
        block["p50_latency_ms"] = None
        block["p95_latency_ms"] = None
    return block


def _models() -> List[object]:
    return [get_model(name) for name in MODEL_MIX]


def _phase_snapshot(
    rec: InMemoryRecorder,
) -> tuple[Dict[str, float], Optional[float]]:
    profile = prof.profile_spans(rec.spans)
    phases = {
        name: stat.exclusive_ms for name, stat in profile.phases.items()
    }
    return phases, profile.attributed_frac


def _counter_snapshot(rec: InMemoryRecorder) -> Dict[str, float]:
    snap = rec.metrics.snapshot()["counters"]
    assert isinstance(snap, dict)
    return {k: v for k, v in snap.items() if k in COUNTER_NAMES}


def _run_cold_plan(soc_name: str, rounds: int) -> ScenarioResult:
    soc = get_soc(soc_name)
    models = _models()
    planner = Hetero2PipePlanner(soc)
    samples = collect_samples_ms(
        lambda: planner.plan(models),
        rounds,
        setup=planner.invalidate_caches,
    )
    planner.invalidate_caches()
    with use_recorder(InMemoryRecorder()) as rec:
        planner.plan(models)
    phases, frac = _phase_snapshot(rec)
    return ScenarioResult(
        "cold_plan", soc_name, samples, phases, _counter_snapshot(rec), frac
    )


def _run_warm_replan(soc_name: str, rounds: int) -> ScenarioResult:
    soc = get_soc(soc_name)
    models = _models()
    planner = Hetero2PipePlanner(soc)
    planner.plan(models)  # warm every cache
    samples = collect_samples_ms(
        lambda: planner.plan(models), rounds, repeat=WARM_REPLAN_REPEAT
    )
    with use_recorder(InMemoryRecorder()) as rec:
        planner.plan(models)
    phases, frac = _phase_snapshot(rec)
    return ScenarioResult(
        "warm_replan", soc_name, samples, phases, _counter_snapshot(rec), frac
    )


def _run_streaming_window(soc_name: str, rounds: int) -> ScenarioResult:
    soc = get_soc(soc_name)
    stream = _models() * 2
    arrivals = arrival_times_ms(len(stream), 30.0)
    planner = StreamingPlanner(soc, window_size=4)
    planner.run(stream, arrivals)  # warm the shared plan caches
    samples = collect_samples_ms(
        lambda: planner.run(stream, arrivals),
        rounds,
        repeat=STREAMING_WINDOW_REPEAT,
    )
    with use_recorder(InMemoryRecorder()) as rec:
        planner.run(stream, arrivals)
    phases, frac = _phase_snapshot(rec)
    return ScenarioResult(
        "streaming_window",
        soc_name,
        samples,
        phases,
        _counter_snapshot(rec),
        frac,
    )


def _run_drift_replan(soc_name: str, rounds: int) -> ScenarioResult:
    soc = get_soc(soc_name)
    stream = _models() * 3

    def perturbed(plan: object) -> object:
        return execute_plan_perturbed(plan, factors={"gpu": 1.3})

    holder: Dict[str, StreamingPlanner] = {}

    def setup() -> None:
        holder["planner"] = StreamingPlanner(
            soc, window_size=4, track_accuracy=True, execute=perturbed
        )

    samples = collect_samples_ms(
        lambda: holder["planner"].run(stream), rounds, setup=setup
    )
    setup()
    with use_recorder(InMemoryRecorder()) as rec:
        holder["planner"].run(stream)
    phases, frac = _phase_snapshot(rec)
    return ScenarioResult(
        "drift_replan", soc_name, samples, phases, _counter_snapshot(rec), frac
    )


def _run_executor_sim(soc_name: str, rounds: int) -> ScenarioResult:
    soc = get_soc(soc_name)
    planner = Hetero2PipePlanner(soc)
    report = planner.plan(_models())
    samples = collect_samples_ms(
        lambda: execute_plan(report.plan), rounds, repeat=EXECUTOR_SIM_REPEAT
    )
    with use_recorder(InMemoryRecorder()) as rec:
        result = execute_plan(report.plan)
    phases, frac = _phase_snapshot(rec)
    return ScenarioResult(
        "executor_sim",
        soc_name,
        samples,
        phases,
        _counter_snapshot(rec),
        frac,
        simulation=simulation_latency_block(result),
    )


#: Scenario name -> runner(soc_name, rounds).
SCENARIOS: Dict[str, Callable[[str, int], ScenarioResult]] = {
    "cold_plan": _run_cold_plan,
    "warm_replan": _run_warm_replan,
    "streaming_window": _run_streaming_window,
    "drift_replan": _run_drift_replan,
    "executor_sim": _run_executor_sim,
}

SCENARIO_NAMES = tuple(SCENARIOS)


def check_cells(
    scenarios: Optional[Sequence[str]], socs: Optional[Sequence[str]]
) -> None:
    """Reject an unknown scenario or SoC name before any cell runs.

    Raises:
        KeyError: on an unknown scenario or SoC name.
    """
    for name in scenarios or ():
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; options: {sorted(SCENARIOS)}"
            )
    for name in socs or ():
        get_soc(name)


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    socs: Optional[Sequence[str]] = None,
    rounds: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the selected scenarios across the selected SoCs.

    Args:
        scenarios: Scenario names (default: all of :data:`SCENARIO_NAMES`).
        socs: SoC names (default: every registered SoC).
        rounds: Timed rounds per (scenario, soc) cell.
        progress: Optional per-cell callback (the CLI's status line).

    Returns:
        A ``hetero2pipe.bench.v1`` document.

    Raises:
        KeyError: on an unknown scenario or SoC name.
    """
    check_cells(scenarios, socs)
    chosen = list(scenarios) if scenarios else list(SCENARIO_NAMES)
    targets = list(socs) if socs else list(SOC_NAMES)
    rows: List[Dict[str, object]] = []
    for scenario in chosen:
        for soc_name in targets:
            if progress is not None:
                progress(f"{scenario} on {soc_name}")
            # The reference is timed on both sides of the cell, so a
            # speed change of the machine during the cell is seen.
            before_ms = reference_loop_ms()
            result = SCENARIOS[scenario](soc_name, rounds)
            result.reference_ms = min(before_ms, reference_loop_ms())
            rows.append(result.to_row())
    return bench_doc(rows)


#: Matrix runs whose per-cell median ``--update-baseline`` commits.
BASELINE_RUNS = 3


def median_baseline(docs: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The baseline of several runs of one matrix: each cell's row whose
    ``min_ms / reference_ms`` is the median (the lower middle of an even
    count), so one noisy run cannot loosen the cell's gate.

    Raises:
        ValueError: when a cell's counters differ between runs, or a
            cell is missing from some run.
    """
    cells: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for doc in docs:
        for row in cast(List[Dict[str, Any]], doc["results"]):
            cells.setdefault((row["scenario"], row["soc"]), []).append(row)
    rows = []
    for (scenario, soc), runs in sorted(cells.items()):
        if len(runs) != len(docs):
            raise ValueError(f"{scenario} on {soc}: in {len(runs)} of {len(docs)} runs")
        if any(run.get("counters") != runs[0].get("counters") for run in runs):
            raise ValueError(f"{scenario} on {soc}: counters differ between runs")
        runs.sort(key=lambda row: row["min_ms"] / row.get("reference_ms", 1.0))
        rows.append(runs[(len(runs) - 1) // 2])
    return bench_doc(rows)


# ------------------------------------------------------ baseline gating


@dataclass(frozen=True)
class Comparison:
    """One (scenario, soc) cell compared against the baseline.

    ``limit_ms`` is the baseline's time gate expressed on this run's
    machine: the baseline minimum rescaled by the two rows' reference
    loops, times ``1 + tolerance_frac``, plus ``abs_slack_ms``.
    ``counter_diffs`` names every counter whose value differs (``None``
    for a counter one side lacks).
    """

    scenario: str
    soc: str
    current_min_ms: float
    baseline_min_ms: Optional[float]
    limit_ms: Optional[float]
    speed_scale: float = 1.0
    counter_diffs: Tuple[Tuple[str, Optional[float], Optional[float]], ...] = ()

    @property
    def ratio_x(self) -> float:
        """Current time over the baseline's, at the baseline's speed."""
        if not self.baseline_min_ms:
            return 1.0
        return self.current_min_ms / (self.baseline_min_ms * self.speed_scale)

    @property
    def time_regressed(self) -> bool:
        return self.limit_ms is not None and self.current_min_ms > self.limit_ms

    @property
    def regressed(self) -> bool:
        return self.time_regressed or bool(self.counter_diffs)


def _counter_diffs(
    current: Dict[str, float], baseline: Dict[str, float]
) -> Tuple[Tuple[str, Optional[float], Optional[float]], ...]:
    return tuple(
        (name, baseline.get(name), current.get(name))
        for name in sorted(set(current) | set(baseline))
        if current.get(name) != baseline.get(name)
    )


def _speed_scale(row: Dict[str, object], base: Dict[str, object]) -> float:
    """How much slower this run's machine is than the baseline's."""
    current_ref = row.get("reference_ms")
    base_ref = base.get("reference_ms")
    if not current_ref or not base_ref:
        return 1.0
    return float(current_ref) / float(base_ref)  # type: ignore[arg-type]


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance_frac: Optional[float] = None,
) -> List[Comparison]:
    """Gate current results against a baseline document.

    Each current row is matched to the baseline row with the same
    ``(scenario, soc)`` key.  The row regresses when any counter differs
    from the baseline's, or when its reference-scaled minimum exceeds
    the baseline's by more than the band (``tolerance_frac`` /
    ``abs_slack_ms`` of the baseline row unless ``tolerance_frac`` is
    overridden).  Rows with no baseline counterpart are reported
    un-gated (they are *new* — commit them with ``--update-baseline``);
    baseline rows not re-run are ignored, so ``--scenarios`` subsets
    stay usable.
    """
    by_key: Dict[tuple, Dict[str, object]] = {}
    for row in baseline.get("results", []):  # type: ignore[union-attr]
        by_key[(row["scenario"], row["soc"])] = row
    comparisons: List[Comparison] = []
    for row in current.get("results", []):  # type: ignore[union-attr]
        key = (row["scenario"], row["soc"])
        current_min = float(row["min_ms"])  # type: ignore[arg-type]
        base = by_key.get(key)
        if base is None:
            comparisons.append(
                Comparison(
                    scenario=str(row["scenario"]),
                    soc=str(row["soc"]),
                    current_min_ms=current_min,
                    baseline_min_ms=None,
                    limit_ms=None,
                )
            )
            continue
        base_min = float(base["min_ms"])  # type: ignore[arg-type]
        tol = (
            tolerance_frac
            if tolerance_frac is not None
            else float(base.get("tolerance_frac", DEFAULT_TOLERANCE_FRAC))  # type: ignore[arg-type]
        )
        slack = float(base.get("abs_slack_ms", DEFAULT_ABS_SLACK_MS))  # type: ignore[arg-type]
        scale = _speed_scale(row, base)
        limit = base_min * scale * (1.0 + tol) + slack
        diffs = _counter_diffs(
            row.get("counters", {}),  # type: ignore[arg-type]
            base.get("counters", {}),  # type: ignore[arg-type]
        )
        comparisons.append(
            Comparison(
                scenario=str(row["scenario"]),
                soc=str(row["soc"]),
                current_min_ms=current_min,
                baseline_min_ms=base_min,
                limit_ms=limit,
                speed_scale=scale,
                counter_diffs=diffs,
            )
        )
    return comparisons


def regressions(comparisons: Sequence[Comparison]) -> List[Comparison]:
    return [c for c in comparisons if c.regressed]


def _render_counter_diffs(comparison: Comparison) -> str:
    return ", ".join(
        f"{name} {'-' if old is None else f'{old:g}'}"
        f"->{'-' if new is None else f'{new:g}'}"
        for name, old, new in comparison.counter_diffs
    )


def render_comparison(comparisons: Sequence[Comparison]) -> str:
    """Terminal table of the baseline gate, worst offenders flagged.

    ``baseline`` and ``limit`` are shown at this run's machine speed.
    """
    lines = [
        f"{'scenario':<18s} {'soc':<15s} {'current':>10s} {'baseline':>10s} "
        f"{'limit':>10s}  verdict"
    ]
    for c in comparisons:
        if c.baseline_min_ms is None:
            verdict = "new (no baseline)"
            base = limit = "-"
        else:
            verdict = (
                f"REGRESSED ({c.ratio_x:.2f}x)" if c.time_regressed
                else f"ok ({c.ratio_x:.2f}x)"
            )
            if c.counter_diffs:
                verdict += f"; COUNTERS CHANGED: {_render_counter_diffs(c)}"
            base = f"{c.baseline_min_ms * c.speed_scale:.2f}"
            limit = f"{c.limit_ms:.2f}" if c.limit_ms is not None else "-"
        lines.append(
            f"{c.scenario:<18s} {c.soc:<15s} {c.current_min_ms:>10.2f} "
            f"{base:>10s} {limit:>10s}  {verdict}"
        )
    return "\n".join(lines)


def render_bench_table(doc: Dict[str, object]) -> str:
    """Terminal table of one bench document."""
    lines = [
        f"{'scenario':<18s} {'soc':<15s} {'rounds':>6s} {'min ms':>10s} "
        f"{'p50 ms':>10s} {'mean ms':>10s}"
    ]
    for row in doc.get("results", []):  # type: ignore[union-attr]
        lines.append(
            f"{row['scenario']:<18s} {row['soc']:<15s} "
            f"{row['rounds']:>6d} {row['min_ms']:>10.2f} "
            f"{row['p50_ms']:>10.2f} {row['mean_ms']:>10.2f}"
        )
    env = doc.get("environment", {})
    if isinstance(env, dict) and env:
        lines.append(
            f"environment: python {env.get('python')} on "
            f"{env.get('platform')} ({env.get('cpu_count')} cpus)"
        )
    return "\n".join(lines)


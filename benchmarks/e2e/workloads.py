"""The four end-to-end workloads and the checks on their outputs.

Every workload runs on all three SoCs and builds its inputs from the
``--seed`` it is given.  Its timed phase is a list of *jobs* (one
pass), repeated until the run's time is up; the first pass is checked
and yields the simulated metrics, and every later pass must reproduce
the first pass's simulated output exactly.

* ``cold_mix`` -- a closed loop of cold plans: every plan starts from
  empty planner caches, so ~90% of its time is objective
  re-simulation.  Exercises the objective, engine probes, stealing and
  search pruning.
* ``warm_stream`` -- the five application episodes cycled through a
  windowed :class:`StreamingPlanner` after a warm pass, so every window
  is a plan-cache hit: the objective is bypassed and the per-window
  clone / chain-build / engine path is what runs.
* ``open_loop_slo`` -- one planned mix replicated to long open-loop
  Poisson runs at fixed rates, stepped through the engine while the
  timeline and SLO folds consume its events, then blamed.  The planner
  does no work; the engine's causality output is read.
* ``drift_stream`` -- the episode stream, starting cold, executed with
  a +30% GPU slowdown and accuracy tracking on, so drift fires and
  every firing invalidates the caches ``warm_stream`` only reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import makespan_lower_bounds
from repro.core.objective import plan_fingerprint
from repro.core.online import StreamingPlanner
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.obs import blame as blame_mod
from repro.obs.slo import SloEvaluator, SloSpec
from repro.obs.timeline import TimelineAggregator
from repro.profiling.profiler import SocProfiler
from repro.runtime import executor
from repro.runtime.arrivals import PoissonArrivals
from repro.runtime.engine import DiscreteEventEngine
from repro.workloads.generator import sample_combinations
from repro.workloads.scenarios import get_scenario

from hosttime import SpeedProbe, Steps

#: A request meets the SLO when it completes within this of arrival.
SLO_LIMIT_MS = 1500.0
#: Open-loop requests whose first slice has not started this long after
#: arrival are dropped (and count as SLO misses).
FIRST_START_DEADLINE_MS = 1000.0
#: Share of requests that must meet the SLO for a rate to hold.
SLO_OBJECTIVE = 0.99
#: Fixed open-loop rates and the one the headline metrics are read at.
RATES_PER_S = (6, 8, 10, 12, 14)
REFERENCE_RATE_PER_S = 8
TELEMETRY_WINDOW_MS = 1000.0
OPEN_LOOP_MIX = "scene_understanding"
#: The streams cycle these episodes in this order (33 requests a cycle).
EPISODES = (
    "scene_understanding",
    "smart_camera",
    "ar_assistant",
    "video_conference",
    "photo_batch",
)
STREAM_WINDOW = 4
ARRIVAL_JITTER = 0.2
#: Episode inter-arrival gaps are stretched by this factor so the clean
#: stream's backlog does not grow (the unstretched episodes arrive
#: faster than the pipeline serves them on every SoC).
ARRIVAL_STRETCH = 1.5
GPU_SLOWDOWN = {"gpu": 1.3}
#: The mixes ``cold_mix`` plans are drawn once from this fixed seed.
#: Cold-plan time differs tenfold between mixes: across seeds, draws of
#: 20 mixes put the p90 anywhere from 334 to 1,045 ms.  So ``--seed``
#: only orders the jobs; the other workloads draw arrivals from it.
MIX_CATALOGUE_SEED = 2025
#: ``cold_mix`` executes each plan with its requests arriving as a
#: Poisson burst of this mean gap, drawn from ``--seed``.
COLD_ARRIVAL_GAP_MS = 10.0
RESIDUE_LIMIT_MS = 1e-9
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: ``step_ms_tail`` is the mean of this many slowest distinct steps.
TAIL_STEPS = 10
#: Tolerance of the makespan >= lower-bound check (float noise).
BOUND_SLACK_MS = 1e-6


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``SMOKE`` keeps each workload to a few seconds."""

    mixes: int
    stream_cycles: int
    drift_cycles: int
    open_loop_copies: int
    rates_per_s: Tuple[int, ...]
    #: Independent arrival draws per SoC at the reference rate, which
    #: the headline latency tail is pooled over.
    reference_runs: int


#: A pass of each workload fits in a 20 s run on a machine at half the
#: reference speed (see README.md).  A ``warm_stream`` pass is one
#: cycle because every distinct window costs a cold plan in each of
#: its three set-ups.
FULL = Scale(
    mixes=12,
    stream_cycles=1,
    drift_cycles=2,
    open_loop_copies=80,
    rates_per_s=RATES_PER_S,
    reference_runs=6,
)
SMOKE = Scale(
    mixes=2,
    stream_cycles=1,
    drift_cycles=1,
    open_loop_copies=8,
    rates_per_s=(REFERENCE_RATE_PER_S, 14),
    reference_runs=1,
)


@dataclass
class JobOutcome:
    """One job's host step times, its simulated output and its failures.

    ``steps`` pairs each step's host time with the machine speed sampled
    around it (see ``hosttime.Steps``); ``units`` are what the job attempted (plans or requests);
    ``signature`` is compared exactly across passes; ``data`` is what
    the first pass keeps for the checks and the simulated metrics.
    """

    units: int
    steps: List[Tuple[float, float]]
    signature: object
    data: object = None
    failed_units: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, units: int, message: str) -> None:
        self.failed_units = min(self.units, self.failed_units + units)
        self.failures.append(message)


@dataclass
class Summary:
    """What the checks of the first pass found."""

    sim: Dict[str, float]
    extra: Dict[str, float]
    failures: List[Tuple[int, str]]
    detail: Dict[str, object] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (an observed value)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sub_seed(*key: int) -> int:
    """A seed derived from the run seed and a job key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def episode_stream(seed: int, soc_index: int, cycles: int):
    """Models and arrival times (ms) of ``cycles`` episode cycles."""
    models, arrivals = [], []
    offset_ms = 0.0
    for cycle in range(cycles):
        for e, name in enumerate(EPISODES):
            scenario = get_scenario(name)
            times = scenario.arrivals(
                jitter=ARRIVAL_JITTER, seed=sub_seed(seed, soc_index, cycle, e)
            )
            models.extend(scenario.models())
            arrivals.extend(offset_ms + t * ARRIVAL_STRETCH for t in times)
            offset_ms += scenario.num_requests * scenario.interval_ms * ARRIVAL_STRETCH
    return models, arrivals


def _sim_metrics(makespans, latencies, met, requests, tail: int) -> Dict[str, float]:
    return {
        "sim_makespan_ms": geomean(makespans),
        "sim_latency_p50_ms": percentile(latencies, 50),
        "sim_latency_tail_ms": percentile(latencies, tail),
        "slo_met_frac": met / requests,
    }


def split_lower_bound_ms(soc, models, profiler: SocProfiler) -> float:
    """A makespan lower bound that also holds for plans that split models.

    ``core/bounds.py`` charges each model its best *whole-model* time,
    but a plan may split a model across processors, and a split can
    beat every whole placement: on Snapdragon 778G recalibrated by
    drift, bert ran 417 ms split against 430 ms whole.  Here each layer
    costs its fastest processor's solo time; contention, copies, launch
    overheads and slowdown perturbations only add to that.
    """
    chains = []
    for model in models:
        profile = profiler.profile(model)
        chains.append(
            sum(
                min(profile.layer_ms(proc, i) for proc in soc.processors)
                for i in range(model.num_layers)
            )
        )
    return max(max(chains), sum(chains) / soc.num_processors)


class _BoundChecker:
    """Plan validation plus a makespan lower bound.

    The check uses :func:`split_lower_bound_ms`.  ``gaps`` measure each
    makespan against the ``core/bounds.py`` bound, and ``under_whole``
    counts the makespans that beat it.
    """

    def __init__(self) -> None:
        self._profilers: Dict[int, SocProfiler] = {}
        self.gaps: List[float] = []
        self.under_whole = 0

    def check(self, plan, makespan_ms: float) -> Optional[str]:
        plan.validate()
        profiler = self._profilers.get(id(plan.soc))
        if profiler is None:
            profiler = self._profilers[id(plan.soc)] = SocProfiler(plan.soc)
        models = [a.profile.model for a in plan.assignments]
        bound = split_lower_bound_ms(plan.soc, models, profiler)
        if makespan_ms < bound - BOUND_SLACK_MS:
            return (
                f"{plan.soc.name}: makespan {makespan_ms:.6f} ms beats the "
                f"lower bound {bound:.6f} ms"
            )
        whole = makespan_lower_bounds(plan.soc, models, profiler).lower_bound_ms
        self.under_whole += makespan_ms < whole - BOUND_SLACK_MS
        self.gaps.append(makespan_ms / whole)
        return None


class Workload:
    """Interface of a workload; subclasses fill in the four steps."""

    name = ""
    #: Percentile ``sim_latency_tail_ms`` reports: the highest with at
    #: least ten latencies beyond it in every run.
    tail_percentile = 99

    def __init__(self, seed: int, scale: Scale, speed: SpeedProbe) -> None:
        self.seed = seed
        self.scale = scale
        self.speed = speed

    def setup(self) -> None:
        raise NotImplementedError

    def jobs(self) -> List[object]:
        raise NotImplementedError

    def run_job(self, job: object, keep: bool) -> JobOutcome:
        raise NotImplementedError

    def summarize(self, jobs: List[object], first: List[JobOutcome]) -> Summary:
        raise NotImplementedError


class ColdMix(Workload):
    name = "cold_mix"
    # The 36 plans hold 156 requests: p93 has 10 beyond it.
    tail_percentile = 93

    def setup(self) -> None:
        self.planners = {soc: Hetero2PipePlanner(get_soc(soc)) for soc in SOC_NAMES}
        catalogue = sample_combinations(
            count=self.scale.mixes, min_size=3, max_size=6, seed=MIX_CATALOGUE_SEED
        )
        self.mixes = [spec.models() for spec in catalogue]
        # Profiles are measurements the planner keeps across cache
        # invalidation, so a long-running planner has them all.
        for planner in self.planners.values():
            for models in self.mixes:
                for model in models:
                    planner.profiler.profile(model)
        self._jobs = [(i, soc) for i in range(len(self.mixes)) for soc in SOC_NAMES]
        np.random.default_rng(self.seed).shuffle(self._jobs)

    def jobs(self) -> List[object]:
        return list(self._jobs)

    def run_job(self, job, keep: bool) -> JobOutcome:
        index, soc = job
        planner = self.planners[soc]
        planner.invalidate_caches()
        steps = Steps(self.speed)
        steps.start()
        report = planner.plan(self.mixes[index])
        steps.mark()
        return JobOutcome(
            units=1,
            steps=steps.measured,
            signature=(plan_fingerprint(report.plan), report.stealing_moves),
            data=report if keep else None,
        )

    def summarize(self, jobs, first) -> Summary:
        bounds = _BoundChecker()
        makespans, latencies, failures = [], [], []
        met = requests = 0
        for (index, soc), outcome in zip(jobs, first):
            if outcome.data is None:
                continue
            plan = outcome.data.plan
            burst = PoissonArrivals(
                COLD_ARRIVAL_GAP_MS, seed=sub_seed(self.seed, index, SOC_NAMES.index(soc))
            ).times_ms(plan.num_requests)
            arrivals = [t - burst[0] for t in burst]
            try:
                result = executor.execute_plan(plan, arrivals=arrivals, record=False)
                problem = bounds.check(plan, result.makespan_ms)
            except (ValueError, MemoryError, RuntimeError) as exc:
                problem = f"{soc} mix {index}: {exc!r}"
            if problem:
                failures.append((1, problem))
                continue
            makespans.append(result.makespan_ms)
            lat = [
                f - a
                for f, a in zip(result.request_finish_ms, result.request_arrival_ms)
            ]
            latencies.extend(lat)
            met += sum(1 for x in lat if x <= SLO_LIMIT_MS)
            requests += len(lat)
        return Summary(
            sim=_sim_metrics(makespans, latencies, met, requests, self.tail_percentile),
            extra={
                "optimality_gap": geomean(bounds.gaps),
                "max_residue_frac": 0.0,
                "max_rate_per_s": 0.0,
            },
            failures=failures,
            detail={
                "plans_checked": len(makespans),
                "requests": requests,
                "under_whole_model_bound": bounds.under_whole,
            },
        )


class _WindowClock:
    """``execute=`` for a :class:`StreamingPlanner`: runs each window's
    plan and marks the window boundaries (host time between two
    consecutive dispatches is one window's step)."""

    def __init__(self, speed: SpeedProbe, perturb: bool) -> None:
        self.speed = speed
        self.perturb = perturb
        self.keep = False
        self.steps = Steps(speed)
        self.plans: List[object] = []
        self.makespans: List[float] = []

    def __call__(self, plan):
        if self.perturb:
            result = executor.execute_plan_perturbed(plan, GPU_SLOWDOWN)
        else:
            result = executor.execute_plan(plan)
        self.steps.mark()
        if self.keep:
            self.plans.append(plan)
            self.makespans.append(result.makespan_ms)
        return result

    def start(self, keep: bool) -> None:
        self.keep = keep
        self.plans, self.makespans = [], []
        self.steps = Steps(self.speed)
        self.steps.start()

    def finish(self) -> List[Tuple[float, float]]:
        """The window steps; the last one runs to the end of the stream."""
        self.steps.extend_last()
        return self.steps.measured


def _summarize_streams(jobs, first, tail: int, extra_detail=None) -> Summary:
    bounds = _BoundChecker()
    makespans, latencies, failures = [], [], []
    met = requests = 0
    for soc, outcome in zip(jobs, first):
        if outcome.data is None:
            continue
        result, plans, window_makespans = outcome.data
        for plan, makespan in zip(plans, window_makespans):
            try:
                problem = bounds.check(plan, makespan)
            except ValueError as exc:
                problem = f"{soc}: {exc!r}"
            if problem:
                failures.append((plan.num_requests, problem))
        # A window's makespan counts from its first request's arrival, so
        # it holds the wait to dispatch as well as the execution.
        makespans.extend(
            w.finish_ms - result.request_arrival_ms[w.first_request]
            for w in result.windows
        )
        lat = [
            result.request_latency_ms(i) for i in range(result.num_requests)
        ]
        latencies.extend(lat)
        met += sum(1 for x in lat if x <= SLO_LIMIT_MS)
        requests += len(lat)
    return Summary(
        sim=_sim_metrics(makespans, latencies, met, requests, tail),
        extra={
            "optimality_gap": geomean(bounds.gaps),
            "max_residue_frac": 0.0,
            "max_rate_per_s": 0.0,
        },
        failures=failures,
        detail=dict(
            extra_detail or {},
            requests=requests,
            windows=len(makespans),
            under_whole_model_bound=bounds.under_whole,
        ),
    )


class WarmStream(Workload):
    name = "warm_stream"
    # 99 requests a pass.
    tail_percentile = 89

    def setup(self) -> None:
        self.streams = {}
        for k, soc in enumerate(SOC_NAMES):
            models, arrivals = episode_stream(self.seed, k, self.scale.stream_cycles)
            clock = _WindowClock(self.speed, perturb=False)
            planner = StreamingPlanner(get_soc(soc), window_size=STREAM_WINDOW, execute=clock)
            clock.start(keep=False)
            planner.run(models, arrivals)  # the warm pass fills the plan cache
            self.streams[soc] = (planner, clock, models, arrivals)

    def jobs(self) -> List[object]:
        return list(SOC_NAMES)

    def run_job(self, soc, keep: bool) -> JobOutcome:
        planner, clock, models, arrivals = self.streams[soc]
        misses = planner.planner.objective.misses
        clock.start(keep)
        result = planner.run(models, arrivals)
        outcome = JobOutcome(
            units=len(models),
            steps=clock.finish(),
            signature=tuple(result.request_finish_ms),
            data=(result, clock.plans, clock.makespans) if keep else None,
        )
        resimulated = planner.planner.objective.misses - misses
        if resimulated:
            outcome.fail(
                len(models), f"{soc}: {resimulated} objective misses on a warm stream"
            )
        return outcome

    def summarize(self, jobs, first) -> Summary:
        return _summarize_streams(jobs, first, self.tail_percentile)


class DriftStream(Workload):
    name = "drift_stream"
    # 198 requests a pass.
    tail_percentile = 94

    def setup(self) -> None:
        self.streams = {
            soc: episode_stream(self.seed, k, self.scale.drift_cycles)
            for k, soc in enumerate(SOC_NAMES)
        }
        self.socs = {soc: get_soc(soc) for soc in SOC_NAMES}

    def jobs(self) -> List[object]:
        return list(SOC_NAMES)

    def run_job(self, soc, keep: bool) -> JobOutcome:
        models, arrivals = self.streams[soc]
        clock = _WindowClock(self.speed, perturb=True)
        clock.start(keep)
        planner = StreamingPlanner(
            self.socs[soc],
            window_size=STREAM_WINDOW,
            track_accuracy=True,
            execute=clock,
        )
        result = planner.run(models, arrivals)
        return JobOutcome(
            units=len(models),
            steps=clock.finish(),
            signature=(
                tuple(result.request_finish_ms),
                result.replans,
                len(result.drift_events),
            ),
            data=(result, clock.plans, clock.makespans) if keep else None,
        )

    def summarize(self, jobs, first) -> Summary:
        fired = {
            soc: len(o.data[0].drift_events)
            for soc, o in zip(jobs, first)
            if o.data is not None
        }
        return _summarize_streams(jobs, first, self.tail_percentile, {"drift_fired": fired})


class OpenLoopSlo(Workload):
    name = "open_loop_slo"
    # 7,200 requests at the reference rate: p99 has 72 beyond it.

    def setup(self) -> None:
        self.bases = {}
        for soc_name in SOC_NAMES:
            soc = get_soc(soc_name)
            planner = Hetero2PipePlanner(soc)
            models = get_scenario(OPEN_LOOP_MIX).models()
            plan = planner.plan(models).plan
            closed = executor.execute_plan(plan, record=False)
            problem = _BoundChecker().check(plan, closed.makespan_ms)
            if problem:
                raise RuntimeError(problem)
            names = [a.model_name for a in plan.assignments]
            self.bases[soc_name] = (soc, executor.plan_to_chains(plan), names)
        requests = len(names) * self.scale.open_loop_copies
        self._jobs = [
            (soc, rate, run)
            for soc in SOC_NAMES
            for rate in self.scale.rates_per_s
            for run in range(
                self.scale.reference_runs if rate == REFERENCE_RATE_PER_S else 1
            )
        ]
        self.arrivals = {
            (soc, rate, run): PoissonArrivals(
                interval_ms=1000.0 / rate,
                seed=sub_seed(self.seed, SOC_NAMES.index(soc), rate, run),
            ).times_ms(requests)
            for soc, rate, run in self._jobs
        }

    def jobs(self) -> List[object]:
        return list(self._jobs)

    def run_job(self, job, keep: bool) -> JobOutcome:
        soc_name, rate, _ = job
        steps = Steps(self.speed)
        steps.start()
        soc, base, names = self.bases[soc_name]
        chains = executor.replicate_chains(base, self.scale.open_loop_copies)
        request_names = names * self.scale.open_loop_copies
        stages = [len(chain) for chain in chains]
        n = len(chains)
        engine = DiscreteEventEngine(
            soc,
            chains,
            arrivals=self.arrivals[job],
            deadline_ms=FIRST_START_DEADLINE_MS,
            keep_events=True,
            record=False,
        )
        timeline = TimelineAggregator(
            [p.name for p in soc.processors], stages, TELEMETRY_WINDOW_MS
        )
        slo = SloEvaluator(
            [SloSpec(name, SLO_LIMIT_MS, SLO_OBJECTIVE) for name in request_names],
            stages,
            TELEMETRY_WINDOW_MS,
        )
        windows = []
        cursor = 0
        more = True
        while more:
            more = engine.step()
            log = engine.event_log
            for event in log[cursor:]:
                closed = timeline.observe(event)
                slo.observe(event)
                if closed:
                    windows.extend(closed)
                    steps.mark()
            cursor = len(log)
        result = engine.result()
        windows.extend(timeline.finish(result.makespan_ms))
        slo.finish(result.makespan_ms)
        littles = timeline.littles_law()
        blamed = blame_mod.blame_requests(result, request_names)
        blame_mod.aggregate_blame(result, request_names)
        path = blame_mod.extract_critical_path(result)
        steps.extend_last()

        latencies = [result.request_latency_ms(i) for i in result.completed_requests()]
        outcome = JobOutcome(
            units=n,
            steps=steps.measured,
            signature=(tuple(result.request_finish_ms), result.dropped_requests),
        )
        residues = [abs(r.residue_ms) for r in blamed]
        # The largest residue as a share of what it decomposes.
        worst = max(
            [abs(path.residue_ms) / result.makespan_ms]
            + [abs(r.residue_ms) / r.latency_ms for r in blamed if r.latency_ms > 0]
        )
        bad = sum(1 for r in residues if r > RESIDUE_LIMIT_MS)
        if bad:
            outcome.fail(bad, f"{soc_name}@{rate}/s: {bad} blame residues > 1e-9 ms")
        if abs(path.residue_ms) > RESIDUE_LIMIT_MS:
            outcome.fail(n, f"{soc_name}@{rate}/s: critical-path residue {path.residue_ms!r}")
        if not littles.ok:
            outcome.fail(n, f"{soc_name}@{rate}/s: Little's law gap {littles.relative_gap_frac!r}")
        if result.num_completed + len(result.dropped_requests) != n:
            outcome.fail(n, f"{soc_name}@{rate}/s: completed + dropped != {n}")
        outcome.data = {
            "latencies": latencies,
            "met": sum(1 for x in latencies if x <= SLO_LIMIT_MS),
            "makespan_ms": result.makespan_ms - self.arrivals[job][0],
            "backlog_grows": _backlog_grows(windows, max(self.arrivals[job])),
            "worst_residue_frac": worst,
        }
        return outcome

    def summarize(self, jobs, first) -> Summary:
        # Per (soc, rate): [met, attempted, backlog grew in any run].
        tally: Dict[str, Dict[int, list]] = {}
        latencies, makespans = [], []
        worst = 0.0
        for (soc, rate, _), outcome in zip(jobs, first):
            data = outcome.data
            row = tally.setdefault(soc, {}).setdefault(rate, [0, 0, False])
            row[0] += data["met"]
            row[1] += outcome.units
            row[2] |= data["backlog_grows"]
            worst = max(worst, data["worst_residue_frac"])
            if rate == REFERENCE_RATE_PER_S:
                latencies.extend(data["latencies"])
                makespans.append(data["makespan_ms"])
        met_frac = {
            soc: {rate: m / n for rate, (m, n, _) in rates.items()}
            for soc, rates in tally.items()
        }
        max_rate = {
            soc: _highest_holding_rate(
                {
                    rate: m / n >= SLO_OBJECTIVE and not grew
                    for rate, (m, n, grew) in rates.items()
                }
            )
            for soc, rates in tally.items()
        }
        met = sum(rates[REFERENCE_RATE_PER_S][0] for rates in tally.values())
        requests = sum(rates[REFERENCE_RATE_PER_S][1] for rates in tally.values())
        return Summary(
            sim=_sim_metrics(makespans, latencies, met, requests, self.tail_percentile),
            extra={
                "optimality_gap": 0.0,
                "max_residue_frac": worst,
                "max_rate_per_s": sum(max_rate.values()) / len(max_rate),
            },
            failures=[],
            detail={"slo_met_frac": met_frac, "max_rate_per_s": max_rate},
        )


def _backlog_grows(windows, last_arrival_ms: float) -> bool:
    """Whether the queue deepens over the arrival span: the time-averaged
    queue depth of its second half exceeds the first half's by more
    than one request and half again."""
    inside = [w for w in windows if w.end_ms <= last_arrival_ms]
    half = len(inside) // 2
    if half == 0:
        return False
    early = sum(w.mean_queue_depth for w in inside[:half]) / half
    late = sum(w.mean_queue_depth for w in inside[half:]) / (len(inside) - half)
    return late > 1.5 * early + 1.0


def _highest_holding_rate(holds: Dict[int, bool]) -> float:
    """The highest rate at which it and every lower rate hold."""
    best = 0.0
    for rate in sorted(holds):
        if not holds[rate]:
            break
        best = float(rate)
    return best


WORKLOADS = {
    cls.name: cls for cls in (ColdMix, WarmStream, OpenLoopSlo, DriftStream)
}

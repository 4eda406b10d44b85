"""Command-line entry point: ``hetero2pipe`` / ``python -m repro.cli``.

Subcommands:

* ``list``                      — available experiments, models, SoCs.
* ``run <experiment>``          — run one experiment and print its table.
* ``plan --soc X --models a,b`` — plan a request sequence and show the
  resulting pipeline plus simulated execution metrics; ``--gantt`` adds
  an ASCII schedule, ``--trace out.json`` writes a Chrome trace and
  ``--energy`` an energy breakdown.
* ``stream --soc X --models ... --interval N`` — windowed streaming
  planning over an arrival schedule.
* ``export-model <name> <path>`` — write a zoo model as JSON.
* ``calibrate --soc X --targets file.json`` — fit per-processor
  throughput scales to measured latencies.
* ``trace --soc X --models a,b --out run.json`` — plan and execute with
  the observability recorder on and write one merged Perfetto/Chrome
  trace: planner spans, executor slices, counter tracks and
  steal/relocate flow arrows (see ``docs/OBSERVABILITY.md``).
* ``stats --soc X --models a,b`` — plan with the recorder on and print
  the metrics registry plus the decision-provenance explanation;
  ``--repeat N`` re-plans the same mix to show the planner's cache
  counters (``plan_cache_hits``, ``objective_cache_hits``, ...) warm up;
  ``--json`` emits the stable ``hetero2pipe.stats.v1`` document.
* ``slo --soc X --models a,b`` — stream an open-loop run through the
  timeline and SLO event taps: windowed utilization / queue-depth /
  throughput telemetry, per-class attainment, and fast/slow burn-rate
  alerts (``--classes 'resnet50=80:0.99,*=120'``, ``--window-ms``,
  ``--burn-windows FAST,SLOW``; ``--follow`` prints an ASCII dashboard,
  a row per closed window; ``--json`` emits ``hetero2pipe.slo.v1``,
  ``--jsonl`` writes telemetry rows, ``--trace`` a Chrome trace with the
  counter tracks).
* ``accuracy --soc X --models a,b`` — close the predict → execute →
  compare loop for one offline run: join the planner's predicted
  execution against the actual one and report the residuals
  (``--perturb``/``--perturb-processor`` inject a synthetic slowdown,
  ``--json`` emits ``hetero2pipe.accuracy.v1``, ``--jsonl`` writes the
  telemetry rows, ``--trace`` a Chrome trace with the residual track).
* ``drift --soc X --models a,b`` — streamed accuracy tracking with the
  EWMA/CUSUM drift detectors and the replan trigger live; reports every
  ``DriftDetected`` event and drift-triggered replan (``--json`` emits
  ``hetero2pipe.drift.v1``; ``--jsonl`` writes telemetry).
* ``blame --soc X --models a,b`` — causal latency attribution for one
  run: every request's latency decomposed exactly into wait states +
  solo compute + contention inflation (zero residue), the exact
  critical path over the recorded dependency DAG, aggregate blame
  tables and optional what-if counterfactuals
  (``--whatif 'scale:gpu:2,no-contention'``, ``--json`` emits
  ``hetero2pipe.blame.v1``, ``--jsonl`` writes the blame telemetry
  rows, ``--trace`` a Chrome trace with the critical path highlighted
  and wait-state-colored slices).
* ``lint [paths] [--format text|json|sarif]`` — run the
  static-analysis subsystem (AST rules, determinism rules, import
  layering); ``--json`` emits ``hetero2pipe.lint.v1`` and
  ``--format sarif`` SARIF 2.1.0; see ``docs/STATIC_ANALYSIS.md``.
* ``profile --soc X --models a,b`` — plan (or ``--stream``) with the
  phase-attributed self-profiler on and print where the planner's own
  wall time went; ``--cprofile``/``--allocations`` deepen the capture,
  ``--speedscope``/``--collapsed``/``--trace`` write flame-graph
  artifacts, ``--json`` emits ``hetero2pipe.profile.v1`` (see
  docs/PERFORMANCE.md).
* ``bench [--scenarios ...] [--socs ...]`` — the unified benchmark
  harness: named planner/streaming/executor scenarios swept across
  SoCs; ``--json``/``--out`` emit ``hetero2pipe.bench.v1``,
  ``--baseline BENCH_planner.json`` gates against the committed
  trajectory and ``--update-baseline`` re-anchors it by overwriting the
  baseline with this run's rows (see docs/PERFORMANCE.md).

The ``--json`` schemas are documented in docs/OBSERVABILITY.md and kept
stable for CI/dashboard consumers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import obs
from .core.online import StreamingPlanner
from .core.planner import Hetero2PipePlanner, PlannerConfig, PlanReport
from .experiments import ALL_EXPERIMENTS
from .hardware.soc import SOC_NAMES, SocSpec, get_soc
from .models.zoo import MODEL_NAMES, get_model
from .profiling.calibration import CalibrationTarget, calibrate
from .profiling.profiler import SocProfiler
from .runtime.arrivals import make_arrival_process, resolve_arrivals
from .runtime.executor import (
    ChainTask,
    plan_to_chains,
    replicate_chains,
    scale_chain_tasks,
    simulate_chains,
)
from .workloads.generator import arrival_times_ms

#: The flags (and ``export-model``'s positional ``path``) that name a file
#: a verb writes; ``--baseline`` is one too under ``--update-baseline``.
_OUTPUT_PATHS = ("out", "jsonl", "trace", "speedscope", "collapsed", "path")

#: The most telemetry windows ``slo`` closes over one run: the timeline
#: and SLO folds do work per window, empty or not, so a ``--window-ms``
#: far below the run's makespan would otherwise spin.
MAX_SLO_WINDOWS = 100_000

#: The widest slowdown or speedup a what-if or perturbation factor may
#: model.  Beyond it a simulated clock can pass the float range, which
#: no run can represent.
MAX_FACTOR = 1e6


def _resolve_inputs(args: argparse.Namespace) -> None:
    """Validate the raw flags and turn them into objects, in place.

    ``main`` calls this once before dispatch, so every handler sees
    resolved inputs: ``args.soc`` is a ``SocSpec``, ``args.models`` a
    non-empty list of models, and the arrival process, SLO classes and
    burn windows, what-ifs, perturbation factors and calibration targets
    are parsed, and every output path is checked to be writable.  Only
    flags the verb declares are touched.

    Raises:
        ValueError / KeyError: with a one-line message on malformed input.
    """
    # argparse before CPython 3.13 turns "--flag=--" into an empty list
    # instead of an error; only lint's positional paths are lists.
    for name, value in vars(args).items():
        if value == [] and name != "paths":
            raise ValueError(f"--{name.replace('_', '-')} needs a value")
    for name in _OUTPUT_PATHS:
        path = getattr(args, name, None)
        if path is not None:
            _check_output_path("PATH" if name == "path" else f"--{name}", path)
    if getattr(args, "update_baseline", False) and args.baseline is not None:
        _check_output_path("--baseline", args.baseline)
    if hasattr(args, "experiment") and args.experiment not in ALL_EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {args.experiment!r}; "
            f"options: {sorted(ALL_EXPERIMENTS)}"
        )
    if hasattr(args, "model"):
        args.model = get_model(args.model)
    if hasattr(args, "soc"):
        args.soc = get_soc(args.soc)
    if hasattr(args, "models"):
        args.models = [
            get_model(n.strip()) for n in args.models.split(",") if n.strip()
        ]
        if not args.models:
            raise ValueError("no models given")
    if hasattr(args, "scenarios"):
        from .obs.bench import check_cells

        args.scenarios = _name_list(args.scenarios)
        args.socs = _name_list(args.socs)
        check_cells(args.scenarios, args.socs)
    for flag in ("repeat", "window", "rounds", "top"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    for flag in ("deadline_ms", "tolerance"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"--{flag.replace('_', '-')} must be finite and >= 0, got {value}"
            )
    if hasattr(args, "interval"):
        args.arrival_times = arrival_times_ms(len(args.models), args.interval)
    if hasattr(args, "arrivals"):
        args.arrival_process = make_arrival_process(
            args.arrivals, interval_ms=args.interval_ms, seed=args.arrival_seed
        )
        # stats plans the mix --repeat times; slo and blame tile it
        # --repeat times into the request stream.
        copies = 1 if args.command == "stats" else args.repeat
        times = resolve_arrivals(len(args.models) * copies, args.arrival_process)
        for i, t in enumerate(times):
            if not math.isfinite(t):
                raise ValueError(
                    f"--interval-ms {args.interval_ms:g} puts request {i} "
                    f"at {t} ms: arrival times must be finite"
                )
    if hasattr(args, "classes"):
        from .obs.slo import (
            check_burn_config,
            parse_class_specs,
            resolve_request_specs,
        )

        args.class_specs = parse_class_specs(args.classes)
        resolve_request_specs([m.name for m in args.models], args.class_specs)
        fast_text, _, slow_text = args.burn_windows.partition(",")
        try:
            args.burn = (int(fast_text), int(slow_text))
        except ValueError:
            raise ValueError(
                f"bad --burn-windows {args.burn_windows!r}: expected FAST,SLOW"
            ) from None
        check_burn_config(args.window_ms, *args.burn, args.burn_threshold)
    if hasattr(args, "whatif"):
        from .obs.whatif import parse_whatifs

        args.whatifs = parse_whatifs(args.whatif) if args.whatif else []
        requests = len(args.models) * args.repeat
        for whatif in args.whatifs:
            if whatif.processor is not None:
                args.soc.processor(whatif.processor)
            if whatif.factor is not None:
                _check_factor(f"what-if {whatif.label}", whatif.factor)
            if whatif.request is not None and whatif.request >= requests:
                raise ValueError(
                    f"what-if {whatif.label} out of range: "
                    f"{requests} request(s)"
                )
    if hasattr(args, "perturb"):
        args.perturbation = (
            {} if args.perturb is None else {args.perturb_processor: args.perturb}
        )
        for name, factor in args.perturbation.items():
            args.soc.processor(name)
            _check_factor("--perturb", factor)
        scale_chain_tasks((), args.perturbation)  # validates the factors
    if getattr(args, "stream", False) is True and args.trace:
        raise ValueError("--trace requires a plan run (omit --stream)")
    if hasattr(args, "targets"):
        args.calibration_targets = _load_targets(args.targets, args.soc)


def _check_factor(label: str, factor: float) -> None:
    """Reject a scale factor outside ``[1 / MAX_FACTOR, MAX_FACTOR]``."""
    if not 1.0 / MAX_FACTOR <= factor <= MAX_FACTOR:
        raise ValueError(
            f"{label}: factor must be within [{1.0 / MAX_FACTOR:g}, "
            f"{MAX_FACTOR:g}], got {factor:g}"
        )


def _check_output_path(label: str, path: str) -> None:
    """Reject an output path the verb could not write, before any work.

    Raises:
        ValueError: on an empty path, a directory, or a parent that is
            not an existing, writable directory.
    """
    if not path:
        raise ValueError(f"{label} needs a path")
    if os.path.isdir(path):
        raise ValueError(f"{label} {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"{label} {path!r}: directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"{label} {path!r}: directory {parent!r} is not writable")


def _load_targets(path: str, soc: SocSpec) -> List[CalibrationTarget]:
    """The ``--targets`` file as calibration targets on ``soc``.

    Raises:
        ValueError / KeyError: on an unreadable or non-JSON file, a
            file that is not a non-empty list of ``{model, processor,
            latency_ms}`` objects, an unknown model or processor, or a
            latency that is not finite and positive.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read --targets {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"--targets {path!r} is not JSON: {exc}") from None
    if not isinstance(entries, list) or not entries:
        raise ValueError(
            f"--targets {path!r} must hold a non-empty JSON list of "
            "{model, processor, latency_ms} objects"
        )
    profiler = SocProfiler(soc)
    targets = []
    for i, entry in enumerate(entries):
        fields = ("model", "processor", "latency_ms")
        if not isinstance(entry, dict) or any(f not in entry for f in fields):
            raise ValueError(
                f"--targets entry {i} must be an object with keys "
                f"{', '.join(fields)}, got {entry!r}"
            )
        model = get_model(str(entry["model"]))
        proc = soc.processor(str(entry["processor"]))
        if math.isinf(profiler.profile(model).whole_model_ms(proc)):
            raise ValueError(
                f"--targets entry {i}: {model.name!r} cannot run on {proc.name!r}"
            )
        try:
            latency_ms = float(entry["latency_ms"])
        except (TypeError, ValueError):
            raise ValueError(
                f"--targets entry {i}: latency_ms must be a number, "
                f"got {entry['latency_ms']!r}"
            ) from None
        targets.append(CalibrationTarget(model.name, proc.name, latency_ms))
    return targets


def _name_list(text: Optional[str]) -> Optional[List[str]]:
    """A comma-separated flag as a list of names; None when it names none."""
    names = [n.strip() for n in (text or "").split(",") if n.strip()]
    return names or None


def _plan(
    args: argparse.Namespace,
    config: Optional[PlannerConfig] = None,
    plans: int = 1,
    copies: int = 1,
) -> Tuple[PlanReport, List[List[ChainTask]], List[str]]:
    """Plan ``args.models`` on ``args.soc``: where every plan-based verb starts.

    One planner plans the mix ``plans`` times (later plans exercise its
    caches) and the last plan's chains are tiled ``copies`` times into
    back-to-back request rounds.  Returns the plan report, the chains
    (immutable, so any number of runs may share them) and the request
    names in execution order.
    """
    planner = Hetero2PipePlanner(args.soc, config)
    report = planner.plan(args.models)
    for _ in range(plans - 1):
        report = planner.plan(args.models)
    chains = replicate_chains(plan_to_chains(report.plan), copies)
    names = [a.model_name for a in report.plan.assignments] * copies
    return report, chains, names


def _print_json(doc: Dict[str, Any]) -> int:
    """Print a verb's ``--json`` document; the verb's exit code."""
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("models:     ", ", ".join(MODEL_NAMES))
    print("socs:       ", ", ".join(SOC_NAMES))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    print(ALL_EXPERIMENTS[args.experiment].main())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    soc, models = args.soc, args.models
    config = PlannerConfig.no_contention_or_tail() if args.no_ct else None
    report, chains, names = _plan(args, config)

    print(f"SoC: {soc.name}   processors: {[p.name for p in soc.processors]}")
    print(f"execution order: {report.plan.order}")
    for i, assignment in enumerate(report.plan.assignments):
        times = assignment.stage_times_ms(report.plan.processors)
        stages = [
            f"{report.plan.processors[k].name}[{s[0]}:{s[1]}]={times[k]:.1f}ms"
            for k, s in enumerate(assignment.slices)
            if s is not None
        ]
        print(f"  {i}: {assignment.model_name:14s} " + "  ".join(stages))

    result = simulate_chains(soc, chains)
    print(f"makespan: {result.makespan_ms:.1f} ms")
    print(f"throughput: {result.throughput_per_s:.2f} inferences/s")
    for proc in soc.processors:
        print(f"  utilization {proc.name}: {result.utilization(proc.name) * 100:.0f}%")

    if args.gantt:
        from .runtime.tracing import ascii_gantt

        print()
        print(ascii_gantt(result, names))
    if args.trace:
        from .runtime.tracing import write_chrome_trace

        write_chrome_trace(result, args.trace, names)
        print(f"chrome trace written to {args.trace}")
    if args.energy:
        from .hardware.energy import estimate_energy

        energy = estimate_energy(result, soc)
        print(
            f"energy: {energy.total_mj:.0f} mJ total, "
            f"{energy.per_inference_mj(len(models)):.0f} mJ/inference "
            f"({energy.dram_mj:.0f} mJ DRAM)"
        )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    soc, stream = args.soc, args.models
    planner = StreamingPlanner(
        soc,
        window_size=args.window,
        coalesce_batches=args.coalesce,
    )
    result = planner.run(stream, args.arrival_times)
    print(
        f"streamed {len(stream)} requests in {len(result.windows)} windows "
        f"on {soc.name}"
    )
    for window in result.windows:
        print(
            f"  window @ req {window.first_request}: dispatch "
            f"{window.dispatch_ms:8.1f} ms, ran {window.makespan_ms:8.1f} ms"
        )
    print(f"makespan: {result.makespan_ms:.1f} ms")
    print(f"mean request latency: {result.mean_latency_ms():.1f} ms")
    print(f"throughput: {result.throughput_per_s:.2f} inferences/s")
    return 0


def _cmd_export_model(args: argparse.Namespace) -> int:
    from .models.serialization import save_model

    save_model(args.model, args.path)
    print(f"wrote {args.model.name} ({args.model.num_layers} layers) to {args.path}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    soc = args.soc
    targets = args.calibration_targets
    _, report = calibrate(soc, targets)
    print(f"calibrated {soc.name} against {len(targets)} measurements")
    for name, scale in sorted(report.scales.items()):
        print(f"  {name:10s} throughput scale {scale:.3f}")
    print(
        f"rms log-error: {report.rms_log_error_before:.4f} -> "
        f"{report.rms_log_error_after:.4f}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .runtime.tracing import write_chrome_trace

    soc, models = args.soc, args.models
    config = PlannerConfig.no_contention_or_tail() if args.no_ct else None
    with obs.use_recorder(obs.InMemoryRecorder()) as rec:
        _, chains, names = _plan(args, config)
        result = simulate_chains(soc, chains, trace=True)
        write_chrome_trace(result, args.out, names, recorder=rec)
    spans = len(rec.all_spans())
    flows = sum(
        1 for e in rec.events if e.kind in ("layer_stolen", "request_relocated")
    )
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "hetero2pipe.trace.v1",
                    "soc": soc.name,
                    "models": [m.name for m in models],
                    "out": args.out,
                    "makespan_ms": result.makespan_ms,
                    "planner_spans": spans,
                    "executed_slices": len(result.records),
                    "provenance_events": len(rec.events),
                    "flow_arrows": flows,
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"planned {len(models)} requests on {soc.name}")
    print(f"makespan: {result.makespan_ms:.1f} ms")
    print(
        f"merged trace: {spans} planner spans, {len(result.records)} "
        f"executed slices, {len(rec.events)} provenance events "
        f"({flows} steal/relocate)"
    )
    print(f"chrome trace written to {args.out} (open in ui.perfetto.dev)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    soc, models = args.soc, args.models
    with obs.use_recorder(obs.InMemoryRecorder()) as rec:
        _, chains, _ = _plan(args, plans=args.repeat)
        result = simulate_chains(
            soc, chains, args.arrival_process, deadline_ms=args.deadline_ms
        )
    if result.num_completed > 0:
        latency = {
            "mean_ms": result.mean_latency_ms(),
            "p50_ms": result.p50_latency_ms,
            "p95_ms": result.p95_latency_ms,
            "p99_ms": result.p99_latency_ms,
        }
    else:  # every request missed its deadline: no completion latency
        latency = {"mean_ms": None, "p50_ms": None, "p95_ms": None, "p99_ms": None}
    queueing = {
        "arrival_process": args.arrivals,
        "queueing_delay_ms": result.queueing_delays_ms(),
        "mean_queueing_delay_ms": result.mean_queueing_delay_ms,
        "deadline_drops": result.deadline_drops,
        "dropped_requests": list(result.dropped_requests),
        "completed_requests": result.num_completed,
    }
    if args.json:
        snap = rec.metrics.snapshot()
        doc = {
            "schema": "hetero2pipe.stats.v1",
            "soc": soc.name,
            "models": [m.name for m in models],
            "repeat": args.repeat,
            "makespan_ms": result.makespan_ms,
            "throughput_per_s": result.throughput_per_s,
            "latency": latency,
            "queueing": queueing,
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
            "provenance_events": len(rec.events),
        }
        return _print_json(doc)
    print(rec.metrics.render_text())
    print()
    if result.num_completed > 0:
        print(
            f"latency: mean {latency['mean_ms']:.1f} ms, "
            f"p50 {latency['p50_ms']:.1f} ms, p95 {latency['p95_ms']:.1f} ms, "
            f"p99 {latency['p99_ms']:.1f} ms"
        )
    else:
        print("latency: undefined (every request missed its deadline)")
    mean_delay = queueing["mean_queueing_delay_ms"]
    delay_text = (
        "undefined (no request ever started)"
        if mean_delay is None
        else f"{mean_delay:.1f} ms"
    )
    print(
        f"queueing: {args.arrivals} arrivals, mean delay "
        f"{delay_text}, "
        f"{queueing['deadline_drops']} deadline drop(s), "
        f"{queueing['completed_requests']} completed"
    )
    print()
    print(
        obs.render_explanation(
            rec.events, processor_names=[p.name for p in soc.processors]
        )
    )
    return 0


def _follow_line(window, reports) -> str:
    """One ASCII dashboard row for a closed timeline window."""
    util = " ".join(
        f"{proc} {frac * 100.0:3.0f}%"
        for proc, frac in sorted(window.utilization_frac.items())
        if frac > 0.005
    ) or "idle"
    p95 = f"{window.p95_ms:6.1f}ms" if window.p95_ms is not None else "     --"
    burn = " ".join(
        f"{r.class_name} {r.fast_burn:.1f}/{r.slow_burn:.1f}"
        for r in reports
    )
    depth = min(20, int(round(window.mean_queue_depth)))
    bar = "#" * depth + "." * (20 - depth)
    return (
        f"w{window.window:03d} [{window.start_ms:7.0f}-{window.end_ms:7.0f}ms]"
        f" q|{bar}| {window.mean_queue_depth:4.1f}"
        f" thr {window.throughput_per_s:6.1f}/s p95 {p95}"
        f" util {util}" + (f" burn {burn}" if burn else "")
    )


def _cmd_slo(args: argparse.Namespace) -> int:
    from .obs.slo import resolve_request_specs
    from .obs.timeline import TimelineAggregator
    from .runtime.tracing import write_chrome_trace

    soc, models, repeat = args.soc, args.models, args.repeat
    fast_windows, slow_windows = args.burn
    # --follow shares stdout with the human summary but must not
    # corrupt a --json document; route its rows to stderr there.
    follow_out = sys.stderr if args.json else sys.stdout

    with obs.use_recorder(obs.InMemoryRecorder()) as rec:
        _, chains, names = _plan(args, copies=repeat)
        stages = [len(chain) for chain in chains]
        result = simulate_chains(
            soc,
            chains,
            args.arrival_process,
            deadline_ms=args.deadline_ms,
            keep_events=True,
            record=False,
        )
        windows_needed = result.makespan_ms / args.window_ms
        if windows_needed > MAX_SLO_WINDOWS:
            print(
                f"hetero2pipe slo: error: --window-ms {args.window_ms:g} "
                f"would close {windows_needed:.3g} windows over the "
                f"{result.makespan_ms:.1f} ms run (at most {MAX_SLO_WINDOWS})",
                file=sys.stderr,
            )
            return 2
        timeline = TimelineAggregator(
            [p.name for p in soc.processors], stages, args.window_ms
        )
        evaluator = obs.SloEvaluator(
            resolve_request_specs(names, args.class_specs),
            stages,
            args.window_ms,
            fast_windows=fast_windows,
            slow_windows=slow_windows,
            burn_threshold=args.burn_threshold,
        )
        windows = []
        for event in result.events:
            closed = timeline.observe(event)
            reports = evaluator.observe(event)
            windows.extend(closed)
            if args.follow:
                for w in closed:
                    row = [r for r in reports if r.window == w.window]
                    print(_follow_line(w, row), file=follow_out)
                    for r in row:
                        if r.alert_fired:
                            print(
                                f"  ALERT {r.class_name}: burn "
                                f"fast {r.fast_burn:.1f} / slow "
                                f"{r.slow_burn:.1f} > {args.burn_threshold:.1f}",
                                file=follow_out,
                            )
        windows.extend(timeline.finish(result.makespan_ms))
        evaluator.finish(result.makespan_ms)
        check = timeline.littles_law()

    alerts = evaluator.alerts
    if args.jsonl:
        obs.write_jsonl(
            args.jsonl,
            obs.slo_telemetry_rows(windows, evaluator.window_reports, alerts),
        )
    if args.trace:
        write_chrome_trace(
            result,
            args.trace,
            names,
            recorder=rec,
            timeline_windows=windows,
            slo_reports=evaluator.window_reports,
        )
    sketch = timeline.latency_sketch
    if sketch.count:
        latency = {
            "count": sketch.count,
            "mean_ms": sketch.mean,
            "p50_ms": sketch.p50,
            "p95_ms": sketch.p95,
            "p99_ms": sketch.p99,
        }
    else:  # nothing completed inside the horizon
        latency = {
            "count": 0,
            "mean_ms": None,
            "p50_ms": None,
            "p95_ms": None,
            "p99_ms": None,
        }
    if args.json:
        doc = {
            "schema": "hetero2pipe.slo.v1",
            "soc": soc.name,
            "models": [m.name for m in models],
            "repeat": repeat,
            "requests": len(chains),
            "arrival_process": args.arrivals,
            "interval_ms": args.interval_ms,
            "window_ms": args.window_ms,
            "burn": {
                "fast_windows": fast_windows,
                "slow_windows": slow_windows,
                "threshold": args.burn_threshold,
            },
            "makespan_ms": result.makespan_ms,
            "throughput_per_s": result.throughput_per_s,
            "latency": latency,
            "queueing": {
                "mean_queueing_delay_ms": result.mean_queueing_delay_ms,
                "deadline_drops": result.deadline_drops,
                "completed_requests": result.num_completed,
            },
            "classes": evaluator.summary(),
            "windows": [w.to_dict() for w in windows],
            "alerts": [a.to_dict() for a in alerts],
            "littles_law": check.to_dict(),
            "latency_sketch": sketch.to_dict(),
        }
        return _print_json(doc)
    print(
        f"streamed {len(chains)} requests ({repeat}x {len(models)} models) "
        f"on {soc.name}: {args.arrivals} arrivals, "
        f"{len(windows)} windows of {args.window_ms:.0f} ms"
    )
    if latency["count"]:
        print(
            f"latency: p50 {latency['p50_ms']:.1f} ms, "
            f"p95 {latency['p95_ms']:.1f} ms, p99 {latency['p99_ms']:.1f} ms "
            f"(sketch, ±{sketch.relative_accuracy * 100:.0f}%)"
        )
    else:
        print("latency: undefined (nothing completed inside the horizon)")
    for name, summary in evaluator.summary().items():
        attainment = summary["attainment_frac"]
        attainment_text = (
            f"{attainment * 100:.1f}%" if attainment is not None else "--"
        )
        print(
            f"class {name}: {summary['good']}/{summary['requests']} good "
            f"({attainment_text} vs objective "
            f"{summary['spec']['objective_frac'] * 100:.0f}%), "
            f"{summary['alerts']} alert(s)"
        )
    for alert in alerts:
        print(
            f"ALERT w{alert.window:03d} {alert.class_name}: "
            f"burn fast {alert.fast_burn:.1f} / slow {alert.slow_burn:.1f} "
            f"> {alert.threshold:.1f} "
            f"(budget {alert.budget_remaining_frac * 100:.0f}% left)"
        )
    status = "ok" if check.ok else "VIOLATED"
    print(
        f"littles-law self-check: {status} "
        f"(L {check.observed_l:.4f} vs λW {check.expected_l:.4f})"
    )
    if args.jsonl:
        print(f"telemetry written to {args.jsonl}")
    if args.trace:
        print(f"chrome trace written to {args.trace}")
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    from .obs.blame import (
        aggregate_blame,
        blame_requests,
        extract_critical_path,
    )
    from .obs.export import blame_telemetry_rows
    from .obs.whatif import run_whatifs
    from .runtime.arrivals import resolve_arrivals
    from .runtime.tracing import write_chrome_trace

    soc, models, repeat = args.soc, args.models, args.repeat
    _, chains, names = _plan(args, copies=repeat)
    # Materialize arrival times so the counterfactuals (fresh engine
    # runs) see the exact same floats as the baseline.
    arrivals = resolve_arrivals(len(chains), args.arrival_process)

    baseline, whatif_reports = run_whatifs(
        soc,
        chains,
        args.whatifs,
        arrivals=arrivals,
        deadline_ms=args.deadline_ms,
    )
    requests = blame_requests(baseline, request_models=names)
    path = extract_critical_path(baseline)
    aggregates = aggregate_blame(baseline, request_models=names)
    worst_residue = max(
        (abs(r.residue_ms) for r in requests), default=0.0
    )

    if args.jsonl:
        rows = obs.write_jsonl(
            args.jsonl, blame_telemetry_rows(requests, path, whatif_reports)
        )
    if args.trace:
        write_chrome_trace(baseline, args.trace, names, blame=True)
    if args.json:
        doc = {
            "schema": "hetero2pipe.blame.v1",
            "soc": soc.name,
            "models": [m.name for m in models],
            "repeat": repeat,
            "requests": len(chains),
            "arrival_process": args.arrivals,
            "makespan_ms": baseline.makespan_ms,
            "identity": {
                "worst_request_residue_ms": worst_residue,
                "critical_path_residue_ms": path.residue_ms,
            },
            "blame": [r.to_dict() for r in requests],
            "critical_path": path.to_dict(),
            "aggregates": aggregates,
            "whatifs": [w.to_dict() for w in whatif_reports],
        }
        return _print_json(doc)

    print(
        f"blamed {len(chains)} requests ({repeat}x {len(models)} models) "
        f"on {soc.name}: makespan {baseline.makespan_ms:.1f} ms, "
        f"worst accounting residue {worst_residue:.2e} ms"
    )
    for r in requests:
        print(
            f"  {r.request}: {r.model:14s} {r.status:9s} "
            f"latency {r.latency_ms:8.1f} ms = "
            f"solo {r.solo_ms:.1f} + contention {r.contention_ms:.1f} + "
            f"busy-wait {r.processor_busy_wait_ms:.1f} + "
            f"residency {r.residency_wait_ms:.1f} + "
            f"sched {r.scheduler_wait_ms:.1f} + "
            f"preempted {r.preempted_ms:.1f}"
        )
    print(
        f"critical path: {len(path.segments)} segments covering "
        f"{path.makespan_ms:.1f} ms "
        f"(gaps {path.total_gap_ms:.1f} ms, "
        f"residue {path.residue_ms:.2e} ms)"
    )
    for seg in path.segments:
        gap = f" after {seg.gap_ms:.1f} ms {seg.gap_cause} gap" if seg.gap_ms > 1e-6 else ""
        print(
            f"  req {seg.request} stage {seg.stage} on {seg.processor}: "
            f"{seg.duration_ms:.1f} ms{gap}"
        )
    print("blame by processor:")
    for proc, row in aggregates["by_processor"].items():
        print(
            f"  {proc:10s} solo {row['solo_ms']:8.1f} ms  "
            f"contention {row['contention_ms']:7.1f} ms  "
            f"busy-wait {row['processor_busy_wait_ms']:7.1f} ms  "
            f"residency {row['residency_wait_ms']:7.1f} ms"
        )
    for pair in aggregates["corun_pairs"]:
        print(
            f"  co-run: {pair['processor']} suffers "
            f"{pair['inflation_ms']:.1f} ms from {pair['co_runner']}"
        )
    for w in whatif_reports:
        p95 = (
            f", p95 {w.delta_p95_ms:+.1f} ms"
            if w.delta_p95_ms is not None
            else ""
        )
        print(
            f"what-if {w.intervention}: makespan "
            f"{w.makespan_ms:.1f} ms ({w.delta_makespan_ms:+.1f} ms{p95}, "
            f"{w.completed} completed, {w.delta_completed:+d})"
        )
    if args.jsonl:
        print(f"blame telemetry: {rows} rows written to {args.jsonl}")
    if args.trace:
        print(
            f"chrome trace (critical path + wait states) written to "
            f"{args.trace}"
        )
    return 0


def _fingerprint_digest(fingerprint: object) -> str:
    import hashlib

    return hashlib.sha1(repr(fingerprint).encode("utf-8")).hexdigest()[:12]


def _cmd_accuracy(args: argparse.Namespace) -> int:
    soc, models, factors = args.soc, args.models, args.perturbation
    with obs.use_recorder(obs.InMemoryRecorder()):
        _, chains, names = _plan(args)
        # The planner never sees the perturbation: only the executed
        # chains are scaled.
        perturbed = scale_chain_tasks(chains, factors)
        predicted = simulate_chains(soc, chains, record=False)
        actual = simulate_chains(soc, perturbed)
        residual = obs.join_execution(predicted, actual, model_names=names)
        monitor = obs.DriftMonitor()
        monitor.observe_report(residual)
    if args.jsonl:
        rows = obs.write_jsonl(
            args.jsonl, obs.telemetry_rows([residual], monitor.events)
        )
    if args.trace:
        from .runtime.tracing import write_chrome_trace

        write_chrome_trace(
            actual, args.trace, names, residuals=[residual]
        )
    overall = residual.overall()
    if args.json:
        doc = {
            "schema": "hetero2pipe.accuracy.v1",
            "soc": soc.name,
            "models": [m.name for m in models],
            "perturbation": factors,
            "summary": overall.to_dict(),
            "by_processor": {
                k: v.to_dict() for k, v in residual.by_processor().items()
            },
            "by_model": {
                k: v.to_dict() for k, v in residual.by_model().items()
            },
            "report": residual.to_dict(),
            "drift_events": [e.to_dict() for e in monitor.events],
        }
        return _print_json(doc)
    print(
        f"joined {residual.num_slices} executed slices, "
        f"{len(residual.requests)} requests on {soc.name}"
    )
    print(
        f"makespan: predicted {residual.predicted_makespan_ms:.1f} ms, "
        f"actual {residual.actual_makespan_ms:.1f} ms "
        f"(residual {residual.makespan_residual_ms:+.1f} ms, "
        f"{residual.makespan_relative_error_frac * 100:+.1f}%)"
    )
    print(
        f"slice residuals: mean {overall.mean_residual_ms:+.2f} ms, "
        f"mean |err| {overall.mean_abs_residual_ms:.2f} ms, "
        f"worst {overall.worst_relative_error * 100:+.1f}%"
    )
    for name, summary in residual.by_processor().items():
        print(
            f"  {name:10s} n={summary.count:3d} "
            f"mean {summary.mean_residual_ms:+8.2f} ms "
            f"({summary.mean_relative_error * 100:+6.1f}%)"
        )
    if monitor.events:
        for event in monitor.events:
            print(
                f"drift: {event.scope} {event.key!r} via {event.detector} "
                f"(statistic {event.statistic:.3f} > {event.threshold:.3f})"
            )
    else:
        print("drift: no detector fired")
    if args.jsonl:
        print(f"telemetry: {rows} rows written to {args.jsonl}")
    if args.trace:
        print(f"chrome trace (with residual track) written to {args.trace}")
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from functools import partial

    from .runtime.executor import execute_plan_perturbed

    soc, models, factors = args.soc, args.models, args.perturbation
    stream = models * args.repeat
    execute = (
        partial(execute_plan_perturbed, factors=factors) if factors else None
    )
    with obs.use_recorder(obs.InMemoryRecorder()):
        planner = StreamingPlanner(
            soc,
            window_size=args.window,
            track_accuracy=True,
            execute=execute,
        )
        result = planner.run(stream)
    digests = [_fingerprint_digest(f) for f in result.plan_fingerprints]
    if args.jsonl:
        rows = obs.write_jsonl(
            args.jsonl, obs.telemetry_rows(result.residuals, result.drift_events)
        )
    if args.json:
        doc = {
            "schema": "hetero2pipe.drift.v1",
            "soc": soc.name,
            "models": [m.name for m in models],
            "repeat": args.repeat,
            "window_size": args.window,
            "perturbation": factors,
            "windows": len(result.windows),
            "drift_events": [e.to_dict() for e in result.drift_events],
            "replans": result.replans,
            "plan_fingerprints": digests,
            "recalibration_scales": planner.recalibration_scales,
            "window_summaries": [
                {
                    "window": r.window,
                    "num_slices": r.num_slices,
                    "makespan_relative_error_frac": r.makespan_relative_error_frac,
                    **r.overall().to_dict(),
                }
                for r in result.residuals
            ],
        }
        return _print_json(doc)
    print(
        f"streamed {len(stream)} requests in {len(result.windows)} windows "
        f"on {soc.name}"
    )
    for r in result.residuals:
        summary = r.overall()
        print(
            f"  window {r.window}: {r.num_slices} slices, mean residual "
            f"{summary.mean_residual_ms:+.2f} ms "
            f"({summary.mean_relative_error * 100:+.1f}%), "
            f"fingerprint {digests[r.window]}"
        )
    if result.drift_events:
        for event in result.drift_events:
            print(
                f"drift @ window {event.window}: {event.scope} "
                f"{event.key!r} via {event.detector} "
                f"(statistic {event.statistic:.3f} > {event.threshold:.3f})"
            )
        print(f"replans triggered: {result.replans}")
        scaled = {
            k: round(v, 3)
            for k, v in planner.recalibration_scales.items()
            if abs(v - 1.0) > 1e-9
        }
        if scaled:
            print(f"recalibrated throughput scales: {scaled}")
    else:
        print("drift: no detector fired")
    if args.jsonl:
        print(f"telemetry: {rows} rows written to {args.jsonl}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import prof

    soc, models, repeat = args.soc, args.models, args.repeat
    config = (
        PlannerConfig.uncached() if args.uncached else PlannerConfig()
    )
    cprofile_span = "plan" if args.cprofile else None
    with prof.profiling_session(
        cprofile_span=cprofile_span,
        trace_allocations=args.allocations,
    ) as rec:
        if args.stream:
            planner = StreamingPlanner(
                soc, window_size=args.window, config=config
            )
            stream = models * repeat
            result = planner.run(stream)
        else:
            _, chains, names = _plan(args, config, plans=repeat)
            result = simulate_chains(soc, chains)
    profile = prof.profile_spans(rec.spans)
    if args.speedscope:
        with open(args.speedscope, "w", encoding="utf-8") as fh:
            json.dump(prof.speedscope_document(rec.spans), fh)
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as fh:
            fh.write(prof.collapsed_stacks(rec.spans))
    if args.trace:
        from .runtime.tracing import write_chrome_trace

        write_chrome_trace(result, args.trace, names, recorder=rec)
    cprofile_rows = rec.cprofile_rows(args.top) if args.cprofile else []
    if args.json:
        doc = {
            "schema": prof.PROFILE_SCHEMA,
            "soc": soc.name,
            "models": [m.name for m in models],
            "mode": "stream" if args.stream else "plan",
            "repeat": repeat,
            "uncached": bool(args.uncached),
            "total_ms": profile.total_ms,
            "attributed_frac": profile.attributed_frac,
            "phases": {
                k: v.to_dict() for k, v in sorted(profile.phases.items())
            },
            "spans": {
                k: v.to_dict() for k, v in sorted(profile.spans.items())
            },
            "cprofile": cprofile_rows,
            "allocations_traced": bool(args.allocations),
        }
        return _print_json(doc)
    mode = "streamed" if args.stream else "planned"
    print(
        f"{mode} {len(models)} models x{repeat} on {soc.name} "
        f"with the self-profiler on"
    )
    print()
    print(prof.render_phase_table(profile))
    if args.allocations:
        alloc = {
            name: stat.alloc_net_bytes
            for name, stat in sorted(profile.phases.items())
            if stat.alloc_net_bytes
        }
        if alloc:
            print()
            print("net allocations by phase:")
            for name, net in sorted(
                alloc.items(), key=lambda kv: kv[1], reverse=True
            ):
                print(f"  {name:<12s} {net / 1024:10.1f} KiB")
    if cprofile_rows:
        print()
        print(f"hottest functions (cProfile, top {args.top}):")
        for row in cprofile_rows:
            print(
                f"  {row['cumulative_s'] * 1e3:9.2f} ms cum  "
                f"{row['self_s'] * 1e3:8.2f} ms self  "
                f"x{row['calls']}  {row['function']}"
            )
    for flag, path in (
        ("speedscope", args.speedscope),
        ("collapsed stacks", args.collapsed),
        ("chrome trace", args.trace),
    ):
        if path:
            print(f"{flag} written to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs import bench

    progress = None
    if not args.json:
        progress = lambda msg: print(f"  running {msg} ...")  # noqa: E731
    run_matrix = functools.partial(
        bench.run_bench,
        scenarios=args.scenarios,
        socs=args.socs,
        rounds=args.rounds,
        progress=progress,
    )
    doc = run_matrix()

    exit_code = 0
    comparison_text: Optional[str] = None
    if args.update_baseline:
        target = args.baseline or bench.DEFAULT_BASELINE_PATH
        runs = [doc] + [run_matrix() for _ in range(bench.BASELINE_RUNS - 1)]
        try:
            doc = bench.median_baseline(runs)
        except ValueError as exc:
            print(f"hetero2pipe bench: baseline not written: {exc}", file=sys.stderr)
            return 1
        bench.write_bench_json(target, doc)
        comparison_text = f"baseline updated: {target} (median of {len(runs)} runs)"
    elif args.baseline:
        try:
            baseline = bench.read_bench_json(args.baseline)
        except FileNotFoundError:
            print(
                f"baseline {args.baseline} not found; create it with "
                "--update-baseline",
                file=sys.stderr,
            )
            return 2
        comparisons = bench.compare_to_baseline(
            doc, baseline, tolerance_frac=args.tolerance
        )
        comparison_text = bench.render_comparison(comparisons)
        if bench.regressions(comparisons):
            exit_code = 1
    if args.out:
        bench.write_bench_json(args.out, doc)
    if args.json:
        print(bench.render_bench_json(doc), end="")
        if comparison_text is not None and exit_code:
            print(comparison_text, file=sys.stderr)
        return exit_code
    print(bench.render_bench_table(doc))
    if comparison_text is not None:
        print()
        print(comparison_text)
        print(
            "FAIL: scenario(s) regressed beyond the time band or "
            "changed a counter"
            if exit_code
            else "OK: no scenario regressed beyond its time band or "
            "changed a counter"
            if not args.update_baseline
            else "",
        )
    if args.out:
        print(f"bench document written to {args.out}")
    return exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint_command

    return run_lint_command(args)


def _add_workload_args(p: argparse.ArgumentParser, models: bool = True) -> None:
    p.add_argument("--soc", default="kirin990", choices=SOC_NAMES)
    if models:
        p.add_argument(
            "--models",
            required=True,
            help="comma-separated model names (see `list`)",
        )


def _add_repeat_arg(p: argparse.ArgumentParser, text: str) -> None:
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help=text + " (default: %(default)s)",
    )


def _add_arrival_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--arrivals",
        default="closed",
        choices=("closed", "periodic", "poisson"),
        help="arrival process driving the run: closed (everything at "
        "t=0), periodic, or seeded Poisson open-loop (default: "
        "%(default)s)",
    )
    p.add_argument(
        "--interval-ms",
        type=float,
        default=30.0,
        metavar="MS",
        help="(mean) inter-arrival time for periodic/poisson arrivals",
    )
    p.add_argument(
        "--arrival-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="RNG seed of the poisson arrival process",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="engine admission deadline: drop a request whose first "
        "slice has not started this long after its arrival",
    )


def _add_output_args(
    p: argparse.ArgumentParser,
    schema: str,
    jsonl: Optional[str] = None,
    trace: Optional[str] = None,
) -> None:
    p.add_argument(
        "--json",
        action="store_true",
        help=f"emit a machine-readable document ({schema})",
    )
    if jsonl:
        p.add_argument("--jsonl", metavar="PATH", help=f"write {jsonl} as JSONL")
    if trace:
        p.add_argument(
            "--trace", metavar="PATH", help=f"write a Chrome trace {trace}"
        )


def _add_window_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=4, help="planning window size")


def _add_perturbation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--perturb",
        type=float,
        default=None,
        metavar="FACTOR",
        help="inject a synthetic slowdown: scale solo times on the "
        "perturbed processor by FACTOR (e.g. 1.3 = +30%%)",
    )
    p.add_argument(
        "--perturb-processor",
        default="gpu",
        metavar="NAME",
        help="processor the perturbation applies to (default: gpu)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetero2pipe",
        description="Hetero2Pipe reproduction: planners, baselines, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, models and SoCs")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see `list`)")

    plan_parser = sub.add_parser("plan", help="plan a request sequence")
    _add_workload_args(plan_parser)
    plan_parser.add_argument(
        "--no-ct",
        action="store_true",
        help="disable contention mitigation and tail optimization",
    )
    plan_parser.add_argument(
        "--gantt", action="store_true", help="print an ASCII schedule"
    )
    plan_parser.add_argument(
        "--trace", metavar="PATH", help="write a Chrome trace JSON"
    )
    plan_parser.add_argument(
        "--energy", action="store_true", help="print an energy breakdown"
    )

    stream_parser = sub.add_parser(
        "stream", help="windowed streaming planning over an arrival schedule"
    )
    _add_workload_args(stream_parser)
    stream_parser.add_argument(
        "--interval", type=float, default=30.0, help="inter-arrival ms"
    )
    _add_window_arg(stream_parser)
    stream_parser.add_argument(
        "--coalesce",
        action="store_true",
        help="batch runs of identical lightweight requests",
    )

    export_parser = sub.add_parser(
        "export-model", help="write a zoo model as JSON"
    )
    export_parser.add_argument("model")
    export_parser.add_argument("path")

    calibrate_parser = sub.add_parser(
        "calibrate", help="fit processor throughput scales to measurements"
    )
    _add_workload_args(calibrate_parser, models=False)
    calibrate_parser.add_argument(
        "--targets",
        required=True,
        help="JSON file: [{model, processor, latency_ms}, ...]",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="plan + execute with the recorder on; write a merged "
        "Perfetto trace",
    )
    _add_workload_args(trace_parser)
    trace_parser.add_argument(
        "--out", required=True, metavar="PATH", help="trace JSON output path"
    )
    trace_parser.add_argument(
        "--no-ct",
        action="store_true",
        help="disable contention mitigation and tail optimization",
    )
    _add_output_args(trace_parser, "hetero2pipe.trace.v1")

    stats_parser = sub.add_parser(
        "stats",
        help="plan with the recorder on; print metrics + decision provenance",
    )
    _add_workload_args(stats_parser)
    _add_output_args(stats_parser, "hetero2pipe.stats.v1")
    _add_repeat_arg(
        stats_parser,
        "plan the mix N times (N>1 shows the plan/objective cache "
        "counters warming up; see docs/PERFORMANCE.md)",
    )
    _add_arrival_args(stats_parser)

    slo_parser = sub.add_parser(
        "slo",
        help="stream an open-loop run through the timeline + SLO taps; "
        "report windowed telemetry and burn-rate alerts",
    )
    _add_workload_args(slo_parser)
    _add_repeat_arg(
        slo_parser, "repeat the model mix N times to form the request stream"
    )
    _add_arrival_args(slo_parser)
    slo_parser.set_defaults(repeat=8, arrivals="poisson")
    slo_parser.add_argument(
        "--classes",
        default="*=100",
        metavar="SPECS",
        help="comma-separated NAME=DEADLINE_MS[:OBJECTIVE] SLO classes; "
        "'*' is the wildcard applied per model "
        "(default: '*=100', objective 0.95)",
    )
    slo_parser.add_argument(
        "--window-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="tumbling telemetry window width (default: 50)",
    )
    slo_parser.add_argument(
        "--burn-windows",
        default="1,12",
        metavar="FAST,SLOW",
        help="trailing window counts of the fast/slow burn-rate views "
        "(default: 1,12)",
    )
    slo_parser.add_argument(
        "--burn-threshold",
        type=float,
        default=2.0,
        metavar="X",
        help="alert when both burn views exceed X times the sustainable "
        "budget spend (default: 2.0)",
    )
    slo_parser.add_argument(
        "--follow",
        action="store_true",
        help="print an ASCII dashboard, a row per closed window "
        "(to stderr when combined with --json)",
    )
    _add_output_args(
        slo_parser,
        "hetero2pipe.slo.v1",
        jsonl="window/SLO/alert telemetry rows",
        trace="with utilization / queue-depth / burn-rate counter tracks",
    )

    accuracy_parser = sub.add_parser(
        "accuracy",
        help="join predicted vs executed run; report prediction residuals",
    )
    _add_workload_args(accuracy_parser)
    _add_perturbation_args(accuracy_parser)
    _add_output_args(
        accuracy_parser,
        "hetero2pipe.accuracy.v1",
        jsonl="the residual/drift telemetry rows",
        trace="with the prediction-residual track",
    )

    drift_parser = sub.add_parser(
        "drift",
        help="streamed accuracy tracking with drift detectors and the "
        "replan trigger live",
    )
    _add_workload_args(drift_parser)
    _add_window_arg(drift_parser)
    _add_repeat_arg(
        drift_parser,
        "repeat the model list N times to form the stream (detectors "
        "need several windows of samples)",
    )
    drift_parser.set_defaults(repeat=3)
    _add_perturbation_args(drift_parser)
    _add_output_args(
        drift_parser,
        "hetero2pipe.drift.v1",
        jsonl="the residual/drift telemetry rows",
    )

    profile_parser = sub.add_parser(
        "profile",
        help="plan (or stream) with the phase-attributed self-profiler on; "
        "export flamegraphs (this is software self-profiling — "
        "`repro.profiling` is the hardware latency profiler)",
    )
    _add_workload_args(profile_parser)
    profile_parser.add_argument(
        "--stream",
        action="store_true",
        help="profile the windowed streaming planner instead of one plan",
    )
    _add_window_arg(profile_parser)
    _add_repeat_arg(
        profile_parser, "plan the mix N times (or repeat the stream N times)"
    )
    profile_parser.add_argument(
        "--uncached",
        action="store_true",
        help="disable the objective and plan caches (profile the cold path)",
    )
    profile_parser.add_argument(
        "--cprofile",
        action="store_true",
        help="scope a cProfile run to the `plan` span; print hot functions",
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="cProfile rows to show (default: 15)",
    )
    profile_parser.add_argument(
        "--allocations",
        action="store_true",
        help="attribute net tracemalloc allocations to phases",
    )
    profile_parser.add_argument(
        "--speedscope",
        metavar="PATH",
        help="write a speedscope JSON profile of the span tree",
    )
    profile_parser.add_argument(
        "--collapsed",
        metavar="PATH",
        help="write collapsed stacks (flamegraph.pl format)",
    )
    _add_output_args(
        profile_parser,
        "hetero2pipe.profile.v1",
        trace="with the phase self-profile track",
    )

    bench_parser = sub.add_parser(
        "bench",
        help="run the named planner benchmark scenarios; gate against the "
        "committed BENCH_planner.json baseline",
    )
    bench_parser.add_argument(
        "--scenarios",
        metavar="A,B",
        help="comma-separated scenario names (default: all; see "
        "docs/PERFORMANCE.md)",
    )
    bench_parser.add_argument(
        "--socs",
        metavar="A,B",
        help="comma-separated SoC names (default: all three)",
    )
    bench_parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        metavar="N",
        help="timed rounds per (scenario, soc) cell (default: 3)",
    )
    bench_parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the hetero2pipe.bench.v1 document to PATH",
    )
    bench_parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare against a baseline document; exit 1 on regression",
    )
    bench_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current results to the baseline path instead of "
        "gating (re-anchors the committed trajectory)",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="override every row's time tolerance (allowed growth of "
        "min_ms over the reference loop) for this comparison; counters "
        "are always compared exactly",
    )
    _add_output_args(bench_parser, "hetero2pipe.bench.v1")

    blame_parser = sub.add_parser(
        "blame",
        help="causal latency attribution: exact wait-state blame, "
        "critical path and what-if counterfactuals",
    )
    _add_workload_args(blame_parser)
    _add_repeat_arg(
        blame_parser, "repeat the model mix N times to form the request stream"
    )
    _add_arrival_args(blame_parser)
    blame_parser.add_argument(
        "--whatif",
        metavar="SPECS",
        help="comma-separated counterfactuals to re-simulate: "
        "scale:<proc>:<factor>, no-contention, unlimited-memory, "
        "drop:<request> (e.g. 'scale:gpu:2,no-contention')",
    )
    _add_output_args(
        blame_parser,
        "hetero2pipe.blame.v1",
        jsonl="request-blame / critical-path / what-if telemetry rows",
        trace="with the critical path highlighted and wait-state-colored "
        "slices",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="static analysis: AST rules, import layering",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "plan": _cmd_plan,
    "stream": _cmd_stream,
    "export-model": _cmd_export_model,
    "calibrate": _cmd_calibrate,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "slo": _cmd_slo,
    "accuracy": _cmd_accuracy,
    "drift": _cmd_drift,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "blame": _cmd_blame,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_inputs(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"hetero2pipe {args.command}: error: {message}", file=sys.stderr)
        return 2
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this process and print its result document.

``run.py`` starts this script in a fresh single-threaded subprocess per
workload; the last line of its standard output is the JSON document
that ``run.py`` reads.  The work is:

1. set up ``SETUP_REPEATS`` times (``setup_s`` is the import time plus
   the median set-up);
2. untraced (``--trace 0``): repeat passes over the workload's jobs for
   ``--seconds`` of wall time (the first pass always completes) and
   report the end-to-end metrics, every host time scaled to the
   reference machine speed (see ``hosttime.py``);
3. traced (``--trace 1``): one untraced pass, then the same pass again
   with every layer entry point wrapped, and report the per-layer
   metrics plus a Chrome trace;
4. check the outputs: the first pass through the workload's checks,
   every later pass against the first pass, exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_IMPORT_START = time.process_time()  # the host clock, hosttime.host_clock
ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import hosttime  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.process_time() - _IMPORT_START


class Phase:
    """Outcomes of one timed phase.

    ``seconds`` bound the phase in wall time; ``host_s`` is the host
    (CPU) time it took.  ``steps`` holds, per job index, the measured
    steps of every time the job ran.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.wall_s = 0.0
        self.steps: Dict[int, List[List[Tuple[float, float]]]] = {}
        self.units = 0
        self.failed_units = 0
        self.failures: List[str] = []
        self.first: List[Optional[workloads.JobOutcome]] = []
        self.passes = 0

    def fail(self, units: int, message: str) -> None:
        self.failed_units = min(self.units, self.failed_units + units)
        if len(self.failures) < 20:
            self.failures.append(message)


def timed_phase(
    wl: workloads.Workload,
    seconds: float,
    passes: Optional[int] = None,
    tracer: Optional[layers.Tracer] = None,
) -> Phase:
    """Run passes over the jobs until ``seconds`` are up (or exactly
    ``passes`` passes); the first pass is kept and checked."""
    jobs = wl.jobs()
    phase = Phase()
    start = time.perf_counter()
    host_start = hosttime.host_clock()
    op = 0
    done = False
    while not done:
        for index, job in enumerate(jobs):
            keep = phase.passes == 0
            if tracer is not None:
                tracer.op = op
            op += 1
            try:
                outcome = wl.run_job(job, keep)
            except Exception:  # a failed operation; the run goes on
                reference = None if keep else phase.first[index]
                units = reference.units if reference is not None else 1
                phase.units += units
                phase.fail(units, f"{job!r}: {traceback.format_exc(limit=3)}")
                if keep:
                    phase.first.append(None)
                continue
            phase.units += outcome.units
            phase.steps.setdefault(index, []).append(outcome.steps)
            phase.failed_units += outcome.failed_units
            for message in outcome.failures:
                phase.fail(0, message)
            if keep:
                phase.first.append(outcome)
            else:
                reference = phase.first[index]
                if reference is None or outcome.signature != reference.signature:
                    phase.fail(outcome.units, f"{job!r}: differs from the first pass")
            elapsed = time.perf_counter() - start
            if passes is None and phase.passes > 0 and elapsed >= seconds:
                done = True
                break
        else:
            phase.passes += 1
            if passes is not None:
                done = phase.passes >= passes
            else:
                done = time.perf_counter() - start >= seconds
    phase.wall_s = time.perf_counter() - start
    phase.host_s = hosttime.host_clock() - host_start
    return phase


def typical_steps(phase: Phase) -> List[float]:
    """Every step of one pass, at the reference speed, as the median
    over the passes that ran it.

    One value per step keeps the sample the same in every run: the last
    pass is cut short wherever the time runs out, and jobs differ
    tenfold in cost, so pooling every measured step would let the cut
    move the percentiles.
    """
    return [
        statistics.median(hosttime.at_reference_speed(*step) for step in repeats)
        for runs in phase.steps.values()
        for repeats in zip(*runs)
    ]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload; returns the result document (see module doc)."""
    cls = workloads.WORKLOADS[name]
    scale = workloads.SMOKE if smoke else workloads.FULL
    speed = hosttime.SpeedProbe()
    import_speed_s = speed.sample()
    setups: List[Tuple[float, float]] = []
    for _ in range(workloads.SETUP_REPEATS):
        wl = cls(seed, scale, speed)
        before = speed.sample()
        start = hosttime.host_clock()
        wl.setup()
        host_s = hosttime.host_clock() - start
        setups.append((host_s, (before + speed.sample()) / 2))

    tracer = None
    if trace:
        phase = timed_phase(wl, seconds, passes=1)
        tracer = layers.Tracer()
        speed.frozen = True
        with layers.installed(tracer):
            traced = timed_phase(wl, seconds, passes=1, tracer=tracer)
        phase.units += traced.units
        phase.failed_units += traced.failed_units
        for message in traced.failures:
            phase.fail(0, message)
        signatures = [o and o.signature for o in phase.first]
        if [o and o.signature for o in traced.first] != signatures:
            phase.fail(traced.units, "traced pass differs from the untraced pass")
        traced_host_s = traced.host_s
    else:
        phase = timed_phase(wl, seconds)
        traced_host_s = None

    kept = [o for o in phase.first if o is not None]
    jobs = [j for j, o in zip(wl.jobs(), phase.first) if o is not None]
    summary = wl.summarize(jobs, kept)
    for units, message in summary.failures:
        phase.fail(units, message)

    if trace:
        overhead_frac = sum(typical_steps(traced)) / sum(typical_steps(phase)) - 1.0
        metrics = layers.layer_metrics(tracer, traced.host_s, overhead_frac, summary.extra)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            layers.write_chrome_trace(
                tracer,
                str(trace_dir / f"{name}.trace.json"),
                {"workload": name, "seed": seed, "host_s": traced.host_s},
            )
    else:
        steps_s = typical_steps(phase)
        pass_units = sum(o.units for o in phase.first if o is not None)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": hosttime.at_reference_speed(IMPORT_S, import_speed_s)
            + statistics.median(hosttime.at_reference_speed(*s) for s in setups),
            "peak_rss_mb": rss_mb,
            "throughput_per_s": pass_units / sum(steps_s),
            "step_ms_p50": workloads.percentile(steps_s, 50) * 1e3,
            "step_ms_tail": statistics.fmean(sorted(steps_s)[-workloads.TAIL_STEPS:]) * 1e3,
        }
        metrics.update(summary.sim)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "attempted": phase.units,
        "failed": phase.failed_units,
        "failures": phase.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": dict(
            summary.detail,
            passes=phase.passes,
            steps=sum(len(s) for runs in phase.steps.values() for s in runs),
            steps_per_pass=sum(len(runs[0]) for runs in phase.steps.values()),
            latency_tail_percentile=wl.tail_percentile,
            timed_wall_s=phase.wall_s,
            timed_host_s=phase.host_s,
            traced_host_s=traced_host_s,
            setup_runs_host_s=[host_s for host_s, _ in setups],
            import_host_s=IMPORT_S,
            speed_samples=len(speed.samples),
            speed_floor_s=min(speed.samples),
            speed_median_s=statistics.median(speed.samples),
        ),
    }


def _benchmark_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    doc = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.trace_dir
    )
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

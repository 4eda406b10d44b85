"""CI guard: the observability layer must not slow the planner down.

Times ``Hetero2PipePlanner.plan`` on the Fig. 7-style five-model mix
(yolov4, bert, squeezenet, resnet50, vit on Kirin 990) twice:

* **disabled** — the default ``NullRecorder``: every ``obs`` call site
  must reduce to roughly one attribute lookup;
* **enabled** — a fresh ``InMemoryRecorder`` per round, so spans,
  metrics and the provenance log are all live.

Best-of-N wall times are compared; the guard fails when the enabled
run exceeds the disabled run by more than ``MAX_OVERHEAD`` (plus a
small absolute slack so sub-millisecond timer noise cannot flake CI).

A second measurement applies the identical budget to the *streaming
telemetry* path: one event-engine execution of the planned pipeline
plain, versus the same execution with ``keep_events=True`` and every
event folded through a :class:`~repro.obs.timeline.TimelineAggregator`
(windowed utilization/queue-depth/latency-sketch telemetry live).
Neither run tracks causality (``execute_plan``'s default, passed to the
engine explicitly), so the two differ only by the event log and the
fold.
Every timed round of the latter runs the same chain set, so each must
simulate the first round's makespan, or the guard fails: it would be
timing another run.

Timers come from :mod:`repro.obs.bench` (the unified harness), and
``--json PATH`` writes the two measurements as
``hetero2pipe.bench.v1`` rows.

Run directly (exit code 0/1, a step of the ``bench`` CI job)::

    PYTHONPATH=src python benchmarks/overhead_guard.py [--json PATH]
"""

import sys

from repro import obs
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.obs import bench

MODEL_MIX = ("yolov4", "bert", "squeezenet", "resnet50", "vit")
SOC = "kirin990"
WARMUP_ROUNDS = 2
TIMED_ROUNDS = 7
MAX_OVERHEAD = 0.05  # +5 % over the disabled path
ABS_SLACK_S = 0.010  # timer-noise floor per plan


def measure():
    soc = get_soc(SOC)
    models = [get_model(name) for name in MODEL_MIX]
    # Caches off: with the plan/objective caches warm every round would
    # be a near-free lookup and the guard would time noise instead of
    # instrumented planning work (the bench's warm_replan rows cover the
    # cached path).
    planner = Hetero2PipePlanner(soc, PlannerConfig.uncached())

    def plan_disabled():
        planner.plan(models)

    def plan_enabled():
        with obs.use_recorder(obs.InMemoryRecorder()):
            planner.plan(models)

    for _ in range(WARMUP_ROUNDS):
        plan_disabled()
        plan_enabled()

    disabled_s = bench.best_of_s(TIMED_ROUNDS, plan_disabled)
    enabled_s = bench.best_of_s(TIMED_ROUNDS, plan_enabled)
    return disabled_s, enabled_s


def measure_timeline():
    """Event-engine execution plain vs with the live timeline fold."""
    from repro.obs.timeline import TimelineAggregator
    from repro.runtime.engine import DiscreteEventEngine
    from repro.runtime.executor import (
        execute_plan,
        plan_to_chains,
        replicate_chains,
    )

    soc = get_soc(SOC)
    models = [get_model(name) for name in MODEL_MIX]
    report = Hetero2PipePlanner(soc).plan(models)
    chains = replicate_chains(plan_to_chains(report.plan), 4)
    stages = [len(chain) for chain in chains]
    processors = [p.name for p in soc.processors]

    def run_plain():
        execute_plan(report.plan, record=False)

    makespans_ms = []

    def run_with_timeline():
        engine = DiscreteEventEngine(
            soc, chains, keep_events=True, record=False, track_causality=False
        )
        timeline = TimelineAggregator(processors, stages, window_ms=25.0)
        cursor = 0
        while engine.step():
            log = engine.event_log
            for event in log[cursor:]:
                timeline.observe(event)
            cursor = len(log)
        for event in engine.event_log[cursor:]:
            timeline.observe(event)
        makespan_ms = engine.result().makespan_ms
        timeline.finish(makespan_ms)
        makespans_ms.append(makespan_ms)

    # The telemetry run simulates 4x the requests of the plain run;
    # normalize per request so the ratio compares per-request cost.
    for _ in range(WARMUP_ROUNDS):
        run_plain()
        run_with_timeline()
    plain_s = bench.best_of_s(TIMED_ROUNDS, run_plain)
    timeline_s = bench.best_of_s(TIMED_ROUNDS, run_with_timeline) / 4.0
    return plain_s, timeline_s, makespans_ms


def main():
    json_path = None
    argv = sys.argv[1:]
    if argv[:1] == ["--json"] and len(argv) == 2:
        json_path = argv[1]
    elif argv:
        print(f"usage: {sys.argv[0]} [--json PATH]", file=sys.stderr)
        return 2
    disabled_s, enabled_s = measure()
    plain_s, timeline_s, makespans_ms = measure_timeline()
    if json_path:
        rows = [
            bench.bench_row(scenario, SOC, [value_s * 1e3])
            for scenario, value_s in (
                ("guard.overhead.disabled", disabled_s),
                ("guard.overhead.enabled", enabled_s),
                ("guard.overhead.exec_plain", plain_s),
                ("guard.overhead.exec_timeline", timeline_s),
            )
        ]
        bench.write_bench_json(json_path, bench.bench_doc(rows))
    limit_s = disabled_s * (1.0 + MAX_OVERHEAD) + ABS_SLACK_S
    overhead = enabled_s / disabled_s - 1.0
    print(f"planner.plan best-of-{TIMED_ROUNDS}:")
    print(f"  recorder disabled : {disabled_s * 1e3:8.2f} ms")
    print(f"  recorder enabled  : {enabled_s * 1e3:8.2f} ms "
          f"({overhead:+.1%})")
    print(f"  budget            : {limit_s * 1e3:8.2f} ms "
          f"(+{MAX_OVERHEAD:.0%} and {ABS_SLACK_S * 1e3:.0f} ms slack)")
    failed = False
    if enabled_s > limit_s:
        print("FAIL: instrumented planning exceeds the overhead budget")
        failed = True
    tl_limit_s = plain_s * (1.0 + MAX_OVERHEAD) + ABS_SLACK_S
    tl_overhead = timeline_s / plain_s - 1.0
    print(f"execute_plan best-of-{TIMED_ROUNDS} (per request mix):")
    print(f"  plain engine run  : {plain_s * 1e3:8.2f} ms")
    print(f"  with timeline fold: {timeline_s * 1e3:8.2f} ms "
          f"({tl_overhead:+.1%})")
    print(f"  budget            : {tl_limit_s * 1e3:8.2f} ms "
          f"(+{MAX_OVERHEAD:.0%} and {ABS_SLACK_S * 1e3:.0f} ms slack)")
    if timeline_s > tl_limit_s:
        print("FAIL: streaming telemetry exceeds the overhead budget")
        failed = True
    if any(ms != makespans_ms[0] for ms in makespans_ms):
        print(f"FAIL: timed runs of one chain set simulated makespans "
              f"{sorted(set(makespans_ms))} ms, not one")
        failed = True
    if failed:
        return 1
    print("OK: observability overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())

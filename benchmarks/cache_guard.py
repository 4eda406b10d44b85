"""CI guard: the planner caches must actually pay for themselves.

Plans a 20-request mix (the five Fig. 7 models cycled) on Kirin 990
twice with the same planner instance:

* **cold** — first plan; fills the profile, partition, objective and
  plan caches while doing the full Algorithm 1-3 pass;
* **warm** — identical request mix again; must be served from the
  plan cache (fingerprint hit, zero re-simulations).

The guard fails when the warm re-plan is not at least
``MIN_SPEEDUP``x faster than the cold plan, or when the warm pass runs
any event-driven simulation at all (``objective_evaluations`` must stay
flat — that is the memoization contract, not a tuning target).

A second check plans the same mix with ``PlannerConfig.uncached()`` and
asserts the cached cold pass is not slower than the uncached one beyond
``MAX_COLD_OVERHEAD`` — the cache bookkeeping itself must stay cheap.

Timers come from :mod:`repro.obs.bench` (the unified harness), and
``--json PATH`` writes the measurements as ``hetero2pipe.bench.v1``
rows so the guard's numbers land in the same trend files as
``hetero2pipe bench``.

Run directly (exit code 0/1, a step of the ``bench`` CI job)::

    PYTHONPATH=src python benchmarks/cache_guard.py [--json PATH]
"""

import sys

from repro import obs
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.obs import bench

MODEL_MIX = ("yolov4", "bert", "squeezenet", "resnet50", "vit")
SOC = "kirin990"
NUM_REQUESTS = 20
MIN_SPEEDUP = 50.0  # warm re-plan must be >= 50x faster than cold
MAX_COLD_OVERHEAD = 0.10  # cached cold plan <= uncached + 10% + slack
ABS_SLACK_S = 0.050


def measure():
    soc = get_soc(SOC)
    models = [
        get_model(MODEL_MIX[i % len(MODEL_MIX)]) for i in range(NUM_REQUESTS)
    ]

    with obs.use_recorder(obs.InMemoryRecorder()) as rec:
        planner = Hetero2PipePlanner(soc)
        cold_s = bench.time_call_s(lambda: planner.plan(models))
        cold_evals = rec.metrics.counter("objective_evaluations").value
        warm_s = bench.time_call_s(lambda: planner.plan(models))
        warm_evals = (
            rec.metrics.counter("objective_evaluations").value - cold_evals
        )
        plan_hits = rec.metrics.counter("plan_cache_hits").value

    uncached = Hetero2PipePlanner(soc, PlannerConfig.uncached())
    uncached_s = bench.time_call_s(lambda: uncached.plan(models))
    return cold_s, warm_s, uncached_s, warm_evals, plan_hits


def _write_rows(path, cold_s, warm_s, uncached_s):
    rows = [
        bench.bench_row(scenario, SOC, [value_s * 1e3])
        for scenario, value_s in (
            ("guard.cache.cold", cold_s),
            ("guard.cache.warm", warm_s),
            ("guard.cache.uncached", uncached_s),
        )
    ]
    bench.write_bench_json(path, bench.bench_doc(rows))


def main():
    json_path = None
    argv = sys.argv[1:]
    if argv[:1] == ["--json"] and len(argv) == 2:
        json_path = argv[1]
    elif argv:
        print(f"usage: {sys.argv[0]} [--json PATH]", file=sys.stderr)
        return 2
    cold_s, warm_s, uncached_s, warm_evals, plan_hits = measure()
    if json_path:
        _write_rows(json_path, cold_s, warm_s, uncached_s)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    cold_limit_s = uncached_s * (1.0 + MAX_COLD_OVERHEAD) + ABS_SLACK_S
    print(f"planner.plan, {NUM_REQUESTS}-request mix on {SOC}:")
    print(f"  uncached cold     : {uncached_s * 1e3:9.2f} ms")
    print(f"  cached cold       : {cold_s * 1e3:9.2f} ms "
          f"(budget {cold_limit_s * 1e3:.2f} ms)")
    print(f"  cached warm       : {warm_s * 1e3:9.2f} ms "
          f"({speedup:,.0f}x, need >= {MIN_SPEEDUP:.0f}x)")
    print(f"  warm simulations  : {warm_evals} (need 0), "
          f"plan cache hits: {plan_hits}")
    failed = False
    if warm_evals != 0:
        print("FAIL: warm re-plan re-ran the event-driven simulation")
        failed = True
    if plan_hits < 1:
        print("FAIL: warm re-plan missed the plan cache")
        failed = True
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: warm re-plan only {speedup:.1f}x faster than cold")
        failed = True
    if cold_s > cold_limit_s:
        print("FAIL: cache bookkeeping slows the cold planning path")
        failed = True
    if failed:
        return 1
    print("OK: plan cache serves repeats, bookkeeping within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CI guard: the event engine must reproduce the legacy executor.

``simulate_chains`` was rebuilt as a thin adapter over the
discrete-event engine (:mod:`repro.runtime.engine`); the migration is
safe only while the engine reproduces the pre-engine loop — preserved
verbatim in :mod:`repro.runtime._legacy_executor` — *exactly*.  This
guard plans the full model zoo on every registered SoC and diffs the
two simulators task record by task record:

* identical record streams (request, stage, processor, order);
* ``start_ms`` / ``finish_ms`` / ``request_finish_ms`` / makespan
  within ``TOLERANCE_MS`` (1e-9, the engine's epsilon — in practice
  the divergence is exactly 0.0 on this grid);
* identical trace lengths and memory-pressure counts.

Covered variants per SoC: closed loop, staggered arrivals, contention
off, trace on, fault injection (first processor offline mid-run), and
the planner's objective probe (memory gate and causality tracking off,
an engine-only switch).
Any divergence fails the build (the ``executor-equivalence`` CI job).

Run directly (exit code 0/1)::

    PYTHONPATH=src python benchmarks/equivalence_guard.py
"""

import sys

from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.runtime._legacy_executor import legacy_simulate_chains
from repro.runtime.executor import plan_to_chains, simulate_chains

TOLERANCE_MS = 1e-9


def _variants(plan):
    """(label, shared kwargs, engine-only kwargs) simulation variants to
    diff for one plan."""
    n = len(plan.assignments)
    staggered = [12.5 * i for i in range(n)]
    first_proc = plan.processors[0].name
    return [
        ("closed-loop", {}, {}),
        ("staggered-arrivals", {"arrivals": staggered}, {}),
        ("no-contention", {"with_contention": False}, {}),
        ("traced", {"trace": True}, {}),
        ("fault-injected", {"processor_offline_ms": {first_proc: 15.0}}, {}),
        # The planner's objective probe: no memory gate, no causality.
        ("objective-probe", {"enforce_memory": False}, {"track_causality": False}),
    ]


def _diff(engine, legacy):
    """Worst divergence between two results; None on a structural diff."""
    if len(engine.records) != len(legacy.records):
        return None
    keys_e = [(r.request, r.stage, r.processor) for r in engine.records]
    keys_l = [(r.request, r.stage, r.processor) for r in legacy.records]
    if keys_e != keys_l:
        return None
    if len(engine.trace) != len(legacy.trace):
        return None
    if engine.memory_pressure_events != legacy.memory_pressure_events:
        return None
    worst = abs(engine.makespan_ms - legacy.makespan_ms)
    for rec_e, rec_l in zip(engine.records, legacy.records):
        worst = max(
            worst,
            abs(rec_e.start_ms - rec_l.start_ms),
            abs(rec_e.finish_ms - rec_l.finish_ms),
        )
    for fin_e, fin_l in zip(engine.request_finish_ms, legacy.request_finish_ms):
        worst = max(worst, abs(fin_e - fin_l))
    return worst


def main():
    failures = []
    worst_overall = 0.0
    cases = 0
    models = [get_model(name) for name in MODEL_NAMES]
    for soc_name in SOC_NAMES:
        soc = get_soc(soc_name)
        plan = Hetero2PipePlanner(soc).plan(models).plan
        for label, kwargs, engine_only in _variants(plan):
            engine = simulate_chains(
                soc, plan_to_chains(plan), record=False, **kwargs, **engine_only
            )
            legacy = legacy_simulate_chains(
                soc, plan_to_chains(plan), **kwargs
            )
            worst = _diff(engine, legacy)
            cases += 1
            if worst is None:
                failures.append(f"{soc_name}/{label}: structural divergence")
                print(f"  {soc_name:15s} {label:20s}: STRUCTURAL DIVERGENCE")
                continue
            worst_overall = max(worst_overall, worst)
            verdict = "ok" if worst <= TOLERANCE_MS else "DIVERGED"
            if worst > TOLERANCE_MS:
                failures.append(f"{soc_name}/{label}: {worst:.3g} ms")
            print(
                f"  {soc_name:15s} {label:20s}: "
                f"max |delta| {worst:.3g} ms — {verdict}"
            )
    print(
        f"{cases} case(s), {len(MODEL_NAMES)} models/SoC, "
        f"worst divergence {worst_overall:.3g} ms "
        f"(tolerance {TOLERANCE_MS:g} ms)"
    )
    if failures:
        print("FAIL: engine diverged from the legacy executor:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: event engine reproduces the legacy executor on the full grid")
    return 0


if __name__ == "__main__":
    sys.exit(main())

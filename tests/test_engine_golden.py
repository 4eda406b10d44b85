"""Pinned engine outputs for long open-loop runs on every SoC.

``tests/golden/engine_open_loop.json`` holds, per SoC, four runs of the
``scene_understanding`` mix replicated to 40 rounds (200 requests) with
a 1,000 ms first-start deadline:

* ``poisson_8`` / ``poisson_14`` -- Poisson arrivals at 8/s and 14/s
  (the second overloads every SoC, so deadline drops occur);
* ``cancel_preempt`` -- the 8/s run with user cancellations (some
  before their request arrives) and preemptions scheduled;
* ``offline`` -- the 8/s run with the GPU going offline mid-run.

For each run it records per-request finish times, dropped and
cancelled ids, every :class:`TaskCausality` row and the co-run
inflation matrix.  The test replays the runs and compares every value
for equality: a change to engine bookkeeping that is meant to leave
the simulation alone must reproduce every float bit for bit.  The file
stores the co-run pairs sorted; ``CORUN_ORDER`` pins the order the
engine lists them in (first accrual), which decides ties when
``aggregate_blame`` ranks the pairs.

Regenerate only when a change is meant to move simulated numbers::

    PYTHONPATH=src python tests/test_engine_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.runtime.arrivals import PoissonArrivals
from repro.runtime.engine import DiscreteEventEngine
from repro.runtime.executor import plan_to_chains, replicate_chains
from repro.workloads.scenarios import get_scenario

GOLDEN = Path(__file__).parent / "golden" / "engine_open_loop.json"
COPIES = 40
DEADLINE_MS = 1000.0
ARRIVAL_SEED = 7
OFFLINE_PROCESSOR = "gpu"

_KIRIN_ORDER = [
    "npu|gpu", "gpu|npu", "cpu_big|gpu", "gpu|cpu_big", "npu|cpu_big", "cpu_big|npu",
    "cpu_big|cpu_small", "gpu|cpu_small", "cpu_small|cpu_big", "cpu_small|gpu",
    "npu|cpu_small", "cpu_small|npu",
]
_BIG_SMALL = ["cpu_big|cpu_small", "cpu_small|cpu_big"]
_GPU_SMALL = ["gpu|cpu_small", "cpu_small|gpu"]
#: Per SoC and run, the co-run pairs in the order of
#: ``ExecutionResult.corun_inflation_ms``.
CORUN_ORDER = {
    "kirin990": dict.fromkeys(
        ("poisson_8", "poisson_14", "cancel_preempt", "offline"), _KIRIN_ORDER
    ),
    "snapdragon778g": {
        "poisson_8": _BIG_SMALL + ["gpu|cpu_big", "gpu|cpu_small", "cpu_big|gpu", "cpu_small|gpu"],
        "poisson_14": _GPU_SMALL + _BIG_SMALL + ["gpu|cpu_big", "cpu_big|gpu"],
        "cancel_preempt": _BIG_SMALL + _GPU_SMALL + ["gpu|cpu_big", "cpu_big|gpu"],
        "offline": _BIG_SMALL + ["gpu|cpu_big", "gpu|cpu_small", "cpu_big|gpu", "cpu_small|gpu"],
    },
    "snapdragon870": {
        "poisson_8": _GPU_SMALL + _BIG_SMALL + ["gpu|cpu_big", "cpu_big|gpu"],
        "poisson_14": _GPU_SMALL + ["gpu|cpu_big", "cpu_big|gpu"] + _BIG_SMALL,
        "cancel_preempt": _GPU_SMALL + _BIG_SMALL + ["gpu|cpu_big", "cpu_big|gpu"],
        "offline": _GPU_SMALL + _BIG_SMALL + ["gpu|cpu_big", "cpu_big|gpu"],
    },
}


def _arrivals(rate_per_s, n):
    return PoissonArrivals(interval_ms=1000.0 / rate_per_s, seed=ARRIVAL_SEED).times_ms(n)


def _run(soc, base, case):
    chains = replicate_chains(base, COPIES)
    n = len(chains)
    rate = 14 if case == "poisson_14" else 8
    arrivals = _arrivals(rate, n)
    offline = None
    if case == "offline":
        offline = {OFFLINE_PROCESSOR: arrivals[n // 3]}
    engine = DiscreteEventEngine(
        soc,
        chains,
        arrivals=arrivals,
        deadline_ms=DEADLINE_MS,
        processor_offline_ms=offline,
        record=False,
    )
    if case == "cancel_preempt":
        for i in range(0, n, 7):
            engine.schedule_cancellation(i, arrivals[i] + 40.0)
        for i in range(3, n, 11):
            engine.schedule_cancellation(i, arrivals[i] - 5.0)
        for i in range(1, n, 2):
            for offset_ms in (10.0, 35.0, 80.0):
                engine.schedule_preemption(i, arrivals[i] + offset_ms)
    return engine.run()


def _snapshot(result):
    """The pinned view of one run: plain JSON values, fixed order."""
    return {
        "makespan_ms": result.makespan_ms,
        "finish_ms": list(result.request_finish_ms),
        "dropped": list(result.dropped_requests),
        "cancelled": list(result.cancelled_requests),
        "causality": [
            [
                c.request,
                c.index,
                c.stage,
                c.processor,
                c.cause,
                list(c.enabled_by) if c.enabled_by is not None else None,
                c.ready_ms,
                c.start_ms,
                c.finish_ms,
                c.executed_solo_ms,
                c.processor_busy_wait_ms,
                c.residency_wait_ms,
                c.scheduler_wait_ms,
                c.preempted_ms,
                c.truncated,
            ]
            for c in result.causality
        ],
        "corun_inflation_ms": {
            f"{a}|{b}": v for (a, b), v in sorted(result.corun_inflation_ms.items())
        },
    }


CASES = ("poisson_8", "poisson_14", "cancel_preempt", "offline")


def build_runs():
    runs = {}
    for soc_name in SOC_NAMES:
        soc = get_soc(soc_name)
        plan = Hetero2PipePlanner(soc).plan(
            get_scenario("scene_understanding").models()
        ).plan
        base = plan_to_chains(plan)
        runs[soc_name] = {case: _run(soc, base, case) for case in CASES}
    return runs


def build_snapshots(runs):
    return {
        soc_name: {case: _snapshot(result) for case, result in results.items()}
        for soc_name, results in runs.items()
    }


def _assert_equal(actual, expected, where):
    """Equality at every leaf, reported with the leaf's path."""
    if isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for k, (a, e) in enumerate(zip(actual, expected)):
            _assert_equal(a, e, f"{where}[{k}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_equal(actual[key], expected[key], f"{where}.{key}")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def runs():
    return build_runs()


@pytest.fixture(scope="module")
def snapshots(runs):
    # Round-trip through JSON so both sides have the same value types.
    return json.loads(json.dumps(build_snapshots(runs)))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_engine_matches_golden(snapshots, golden, case):
    for soc_name in SOC_NAMES:
        _assert_equal(
            snapshots[soc_name][case], golden[soc_name][case], f"{soc_name}.{case}"
        )


@pytest.mark.parametrize("case", CASES)
def test_corun_pairs_keep_their_first_accrual_order(runs, case):
    for soc_name in SOC_NAMES:
        pairs = [f"{a}|{b}" for a, b in runs[soc_name][case].corun_inflation_ms]
        assert pairs == CORUN_ORDER[soc_name][case], soc_name


def test_golden_runs_exercise_every_path(golden):
    # Some preempted slice waited off-processor for an older request.
    assert any(
        row[13] > 0.0
        for soc_name in SOC_NAMES
        for row in golden[soc_name]["cancel_preempt"]["causality"]
    )
    for soc_name in SOC_NAMES:
        runs = golden[soc_name]
        assert runs["poisson_14"]["dropped"], soc_name
        assert runs["cancel_preempt"]["cancelled"], soc_name
        n = len(runs["offline"]["finish_ms"])
        offline_ms = _arrivals(8, n)[n // 3]
        starts = [
            (row[7], row[3]) for row in runs["offline"]["causality"] if row[7] is not None
        ]
        assert any(p == OFFLINE_PROCESSOR for t, p in starts if t < offline_ms), soc_name
        late = [p for t, p in starts if t >= offline_ms]
        assert late and OFFLINE_PROCESSOR not in late, soc_name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(build_snapshots(build_runs()), separators=(",", ":")) + "\n"
    )
    print(f"wrote {GOLDEN}")

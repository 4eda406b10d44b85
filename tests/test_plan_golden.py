"""Pinned planner output: plans, move counts, makespans and provenance.

``tests/golden/plans.json`` holds, for every SoC x request mix x
planner configuration below, the committed order and slices, the
report's ``stealing_moves`` and ``tail_changed``, the ``repr`` of the
plan's contention-aware makespan and the ``repr`` of every provenance
event the planning run recorded.  It also pins ``exhaustive_plan``'s
polished winner on the short mixes.  A change to how the vertical phase
searches that is meant to leave its plans alone must keep this file
unchanged.

Regenerate only when a change is meant to move a plan::

    PYTHONPATH=src python tests/test_plan_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.baselines.exhaustive import exhaustive_plan
from repro.core import stealing
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.obs.bench import MODEL_MIX
from repro.runtime.executor import async_makespan_ms
from repro.workloads.generator import sample_combinations

GOLDEN = Path(__file__).parent / "golden" / "plans.json"

CONFIGS = {
    "default": PlannerConfig(),
    "no_ct": PlannerConfig.no_contention_or_tail(),
    "no_steal": PlannerConfig(enable_work_stealing=False),
}

#: Mixes at most this long, and the five-model bench mix, are also
#: pinned through ``exhaustive_plan`` (each five-model grid costs ~0.3 s).
EXHAUSTIVE_MAX_MODELS = 4


def _mixes():
    """Named request mixes: the zoo, the bench mix, the bench e2e
    catalogue and a few fixed random mixes (duplicates dropped)."""
    named = [(name, (name,)) for name in MODEL_NAMES]
    named.append(("zoo", MODEL_NAMES))
    named.append(("bench", MODEL_MIX))
    catalogue = sample_combinations(count=12, min_size=3, max_size=6, seed=2025)
    named += [(f"cold{i}", spec.model_names) for i, spec in enumerate(catalogue)]
    extra = sample_combinations(count=3, min_size=2, max_size=7, seed=11)
    named += [(f"random{i}", spec.model_names) for i, spec in enumerate(extra)]
    mixes, seen = {}, set()
    for name, models in named:
        if tuple(models) not in seen:
            seen.add(tuple(models))
            mixes[name] = tuple(models)
    return mixes


MIXES = _mixes()


def _slices(plan):
    return [[list(s) if s else None for s in a.slices] for a in plan.assignments]


def _plan_record(planner, models):
    with obs.use_recorder(obs.InMemoryRecorder()) as rec:
        report = planner.plan([get_model(n) for n in models])
    plan = report.plan
    return {
        "order": list(plan.order),
        "slices": _slices(plan),
        "stealing_moves": report.stealing_moves,
        "tail_changed": report.tail_changed,
        "makespan_ms": repr(async_makespan_ms(plan)),
        "events": [repr(e) for e in rec.events],
    }


def _exhaustive_record(soc, models):
    plan, makespan = exhaustive_plan(soc, [get_model(n) for n in models])
    return {
        "slices": _slices(plan),
        "makespan_ms": repr(makespan),
    }


def build_soc(soc_name):
    """Every pinned record of one SoC, keyed ``config/mix``."""
    soc = get_soc(soc_name)
    out = {}
    estimator = None
    for config_name, config in CONFIGS.items():
        planner = Hetero2PipePlanner(soc, config, estimator=estimator)
        estimator = planner.estimator  # fit once per SoC
        for mix_name, models in MIXES.items():
            out[f"{config_name}/{mix_name}"] = _plan_record(planner, models)
    for mix_name, models in MIXES.items():
        if len(models) <= EXHAUSTIVE_MAX_MODELS or mix_name == "bench":
            out[f"exhaustive/{mix_name}"] = _exhaustive_record(soc, models)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("soc_name", SOC_NAMES)
def test_plans_match_golden(golden, soc_name):
    actual = build_soc(soc_name)
    expected = golden[soc_name]
    assert sorted(actual) == sorted(expected)
    for key in expected:
        for field in expected[key]:
            assert actual[key][field] == expected[key][field], (
                f"{soc_name}/{key}: {field} differs"
            )


def test_a_descent_builds_each_neighbourhood_once(golden, monkeypatch):
    """Within one descent, a request's boundary moves are built once per
    slices it takes: a round changes one request, and the others' moves
    are re-probed from the descent's memo.  The plan is the golden one."""
    descents = []
    descend = stealing._descend
    boundary_moves = stealing.boundary_moves

    def counted_descend(*args, **kwargs):
        descents.append([])
        return descend(*args, **kwargs)

    def counted_moves(assignment, processors):
        descents[-1].append((id(assignment), tuple(assignment.slices)))
        return boundary_moves(assignment, processors)

    monkeypatch.setattr(stealing, "_descend", counted_descend)
    monkeypatch.setattr(stealing, "boundary_moves", counted_moves)
    record = _plan_record(Hetero2PipePlanner(get_soc("kirin990")), MODEL_MIX)
    assert record == golden["kirin990"]["default/bench"]
    built = [key for keys in descents for key in keys]
    assert len(built) > len(MODEL_MIX)  # several rounds of several requests
    for keys in descents:
        assert len(keys) == len(set(keys))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_plan_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({soc: build_soc(soc) for soc in SOC_NAMES}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")

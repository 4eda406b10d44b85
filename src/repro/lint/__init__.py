"""``repro.lint`` — the project's static-analysis subsystem.

Cooperating checkers, all reporting uniform :class:`Finding`\\ s:

* an **AST rule engine** (:mod:`repro.lint.engine`) running the custom
  rules in :mod:`repro.lint.rules` — wall-clock bans in simulator
  paths, float-equality bans in scheduling math, frozen-dataclass
  mutation, unit-suffix naming, ``INFEASIBLE``-sentinel arithmetic,
  and the H2P12x determinism rules;
* an **import-layering checker** (rule ``H2P201``) enforcing the
  DESIGN.md package architecture as a DAG;
* a **plan-invariant linter** (:mod:`repro.lint.plan_invariants`) that
  lifts :func:`repro.core.validate.validate_plan` into a batch sweep
  over every zoo model x SoC x planner-config combination;
* a **baseline ratchet** (:mod:`repro.lint.baseline`): committed
  findings are tolerated, new ones fail, stale entries demand
  regeneration.

Run it as ``hetero2pipe lint`` or ``python -m repro.lint``; see
``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the
``# lint: disable=CODE`` suppression syntax.
"""

from __future__ import annotations

from .baseline import (
    BASELINE_SCHEMA,
    BaselineResult,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .engine import (
    Finding,
    LintRule,
    RULE_REGISTRY,
    all_rules,
    collect_pragmas,
    get_rule,
    lint_file,
    lint_paths,
    register_rule,
)
from .reporters import render_json, render_sarif, render_text

# Importing the rule modules registers every rule with the engine.
from . import rules as _rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "BASELINE_SCHEMA",
    "BaselineResult",
    "Finding",
    "LintRule",
    "RULE_REGISTRY",
    "all_rules",
    "apply_baseline",
    "collect_pragmas",
    "get_rule",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]

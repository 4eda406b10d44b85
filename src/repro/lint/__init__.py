"""``repro.lint`` — the project's static-analysis subsystem.

Two cooperating checkers, both reporting uniform :class:`Finding`\\ s:

* an **AST rule engine** (:mod:`repro.lint.engine`) running the custom
  rules in :mod:`repro.lint.rules` — wall-clock bans in simulator
  paths, float-equality bans in scheduling math, frozen-dataclass
  mutation, unit-suffix naming, ``INFEASIBLE``-sentinel arithmetic,
  and the H2P12x determinism rules;
* an **import-layering checker** (rule ``H2P201``) enforcing the
  DESIGN.md package architecture as a DAG.

The reporters (:mod:`repro.lint.reporters`) render findings as text,
the ``hetero2pipe.lint.v1`` JSON document or SARIF 2.1.0.  Run it as
``hetero2pipe lint`` or ``python -m repro.lint``; see
``docs/STATIC_ANALYSIS.md`` for the rule catalogue.  The plan
invariants of ``core/validate.py`` are pinned by the tier-1 tests, not
here.
"""

from __future__ import annotations

from .engine import (
    Finding,
    LintRule,
    RULE_REGISTRY,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    register_rule,
)
from .reporters import render_json, render_sarif, render_text

# Importing the rule modules registers every rule with the engine.
from . import rules as _rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "Finding",
    "LintRule",
    "RULE_REGISTRY",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
]

"""H2P201 — the import graph must respect the DESIGN.md layering.

The architecture is a DAG, lowest layer first::

    util -> obs -> models -> analysis -> hardware -> profiling
         -> workloads -> core -> runtime -> baselines -> experiments
         -> lint -> cli

``obs`` (the observability recorder) sits just above ``util`` so that
every layer — the planner stages in ``core``, the simulation substrate
in ``runtime`` — can emit spans, metrics and provenance events without
creating an upward edge; ``obs`` itself imports nothing but the
standard library.

A module may import *downward* (or within its own package), never
upward: an upward edge means a substrate package depends on policy
built on top of it — the exact coupling bug this repo shipped with
(``runtime/metrics.py`` importing ``experiments.common`` for
``geomean``) and the one Band-style schedulers repeatedly hit between
coordinator and runtime layers.

Four documented module-level refinements (see docs/STATIC_ANALYSIS.md):

* ``runtime.schedule`` and ``runtime.executor`` rank *below* ``core``:
  they are the pure simulation substrate (Eq. 3 bubbles, Eq. 8 event
  clock) that Algorithms 1-3 use as their cost oracle, while the rest
  of ``runtime`` consumes finished plans;
* ``runtime.queueing`` ranks *above* ``baselines``: it is the serving
  harness that drives the planner and the MNN-serial baseline to
  reproduce Fig. 2(a);
* ``core.objective`` ranks *between* the substrate and the rest of
  ``core``: the memoization layer wraps the cost oracle
  (``runtime.executor``) and must never grow an edge onto the planner
  policies built on top of it.

Scope: only **module-level** ``import``/``from`` statements are edges —
imports inside functions or ``if TYPE_CHECKING:`` blocks are the
sanctioned escape hatches for optional features and typing cycles, and
create no import-time coupling.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence

from ..engine import Finding, LintContext, LintRule, register_rule

#: Root package the layering applies to.
ROOT_PACKAGE = "repro"

#: Package (or top-level module) -> layer rank; higher may import lower.
LAYERS: Dict[str, int] = {
    "util": 0,
    "obs": 5,
    "models": 10,
    "analysis": 15,
    "hardware": 20,
    "profiling": 30,
    "workloads": 35,
    "core": 40,
    "runtime": 50,
    "baselines": 60,
    "experiments": 70,
    "lint": 80,
    "cli": 90,
}

#: Module-specific rank refinements (full dotted names).
MODULE_OVERRIDES: Dict[str, int] = {
    f"{ROOT_PACKAGE}.runtime.schedule": 36,
    # The event-engine substrate and its arrival processes sit at the
    # same rank as the executor adapter above them: ``core.objective``
    # (38) must be able to probe simulations without an upward edge.
    f"{ROOT_PACKAGE}.runtime.arrivals": 36,
    f"{ROOT_PACKAGE}.runtime.engine": 36,
    f"{ROOT_PACKAGE}.runtime.executor": 36,
    f"{ROOT_PACKAGE}.runtime._legacy_executor": 36,
    f"{ROOT_PACKAGE}.runtime.queueing": 65,
    # The objective-memoization leaf sits directly above the simulation
    # substrate it wraps (runtime.executor, rank 36) and below the rest
    # of ``core``: it may import the cost oracle, never the planner.
    f"{ROOT_PACKAGE}.core.objective": 38,
    # The self-profiler reads span trees only (obs-internal); pinning it
    # at the obs rank records that runtime.tracing (50) may import it.
    f"{ROOT_PACKAGE}.obs.prof": 5,
    # The bench harness *drives* the planner, streaming layer and
    # executor it times, so it sits above runtime (50) and below the
    # queueing/baseline layers.  ``repro.obs`` must never import it at
    # module level (that would be an upward edge from rank 5).
    f"{ROOT_PACKAGE}.obs.bench": 55,
    # The what-if counterfactual layer *re-runs* the engine it compares
    # against, so like obs.bench it sits above runtime (50); it must be
    # imported explicitly (never re-exported from ``repro.obs``).  Its
    # data-only sibling ``obs.blame`` stays at the obs leaf rank (5):
    # it reads causality rows off a result but never imports runtime.
    f"{ROOT_PACKAGE}.obs.whatif": 55,
}


def rank_of(module: str) -> Optional[int]:
    """Layer rank of a dotted module path (None when outside the map)."""
    parts = module.split(".")
    if not parts or parts[0] != ROOT_PACKAGE:
        return None
    for depth in range(len(parts), 1, -1):
        override = MODULE_OVERRIDES.get(".".join(parts[:depth]))
        if override is not None:
            return override
    if len(parts) == 1:
        return None  # the bare root package
    return LAYERS.get(parts[1])


def _resolve_relative(module_parts: Sequence[str], level: int, target: str) -> str:
    """Resolve ``from ..x import y`` against the importing module."""
    if level <= 0:
        return target
    # level=1 strips the module name (sibling), each extra level one package.
    base = list(module_parts[: len(module_parts) - level])
    if target:
        base.extend(target.split("."))
    return ".".join(base)


@register_rule
class ImportLayeringRule(LintRule):
    code = "H2P201"
    name = "import-layering"
    rationale = (
        "DESIGN.md's package DAG keeps the simulator substrate "
        "independent of the policies built on it; upward imports are "
        "coordinator/runtime coupling bugs"
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        src_module = ctx.module
        if not src_module.startswith(f"{ROOT_PACKAGE}.") and src_module != ROOT_PACKAGE:
            return
        src_rank = rank_of(src_module)
        src_parts = ctx.package_parts
        # Package __init__ re-export hubs take the package's own rank.
        if src_rank is None:
            return
        for node in tree.body:  # module level only — see docstring
            targets = []
            if isinstance(node, ast.Import):
                targets = [(node, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(
                    src_parts, node.level, node.module or ""
                )
                # ``from pkg import submodule`` edges point at the
                # submodule when one exists in the layer map.
                targets = []
                for alias in node.names:
                    specific = f"{base}.{alias.name}" if base else alias.name
                    chosen = (
                        specific
                        if rank_of(specific) is not None
                        and rank_of(specific) != rank_of(base)
                        else base
                    )
                    targets.append((node, chosen))
            for stmt, target in targets:
                tgt_rank = rank_of(target)
                if tgt_rank is None:
                    continue
                if _same_package(src_module, target):
                    continue
                if tgt_rank > src_rank:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"upward import: {src_module} (layer {src_rank}) "
                        f"imports {target} (layer {tgt_rank}); the DESIGN.md "
                        "DAG only allows downward edges",
                    )


def _same_package(src_module: str, target: str) -> bool:
    """True when both modules live in the same second-level package."""
    s, t = src_module.split("."), target.split(".")
    return len(s) >= 2 and len(t) >= 2 and s[1] == t[1]

"""Plan validation diagnostics.

``PipelinePlan.validate()`` raises on the first structural problem; this
module is the production-grade counterpart: it checks *every* constraint
the paper's formulation imposes and returns a full list of readable
violations, so a runtime can reject (or a developer can debug) a plan
with one call.

Checked constraints:

* slice structure — contiguous, complete, in stage order (Definition 1);
* operator support — no slice on a processor lacking one of its
  operators (the NPU fallback rule);
* memory capacity — the peak co-resident working set stays within the
  physical memory (Constraint 6), evaluated over the execution
  diagonals with the runtime's arena overhead;
* order validity — the execution order is a permutation;
* processor identity — every stage's processor belongs to the plan's
  SoC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..runtime.executor import ARENA_OVERHEAD_FACTOR
from .plan import PipelinePlan


@dataclass(frozen=True)
class Violation:
    """One constraint violation."""

    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.code}] {self.message}"


def validate_plan(plan: PipelinePlan) -> List[Violation]:
    """Check every plan constraint; return all violations found."""
    violations: List[Violation] = []
    violations.extend(_check_processors(plan))
    violations.extend(_check_order(plan))
    violations.extend(_check_slices(plan))
    violations.extend(_check_operator_support(plan))
    violations.extend(_check_memory(plan))
    return violations


def is_valid(plan: PipelinePlan) -> bool:
    """True when :func:`validate_plan` finds nothing."""
    return not validate_plan(plan)


def _check_processors(plan: PipelinePlan) -> List[Violation]:
    soc_names = {p.name for p in plan.soc.processors}
    out = []
    for k, proc in enumerate(plan.processors):
        if proc.name not in soc_names:
            out.append(
                Violation(
                    code="unknown-processor",
                    message=(
                        f"stage {k} uses {proc.name!r}, which is not a "
                        f"processor of SoC {plan.soc.name!r}"
                    ),
                )
            )
    return out


def _check_order(plan: PipelinePlan) -> List[Violation]:
    if sorted(plan.order) != list(range(plan.num_requests)):
        return [
            Violation(
                code="bad-order",
                message=(
                    f"execution order {plan.order} is not a permutation of "
                    f"0..{plan.num_requests - 1}"
                ),
            )
        ]
    return []


def _check_slices(plan: PipelinePlan) -> List[Violation]:
    out = []
    for i, assignment in enumerate(plan.assignments):
        n = assignment.profile.model.num_layers
        expected = 0
        for k, slc in enumerate(assignment.slices):
            if slc is None:
                continue
            start, end = slc
            if start != expected:
                out.append(
                    Violation(
                        code="gap-or-overlap",
                        message=(
                            f"request {i} ({assignment.model_name}): stage "
                            f"{k} starts at layer {start}, expected {expected}"
                        ),
                    )
                )
                expected = max(expected, start)
            if end < start or end >= n:
                out.append(
                    Violation(
                        code="bad-slice",
                        message=(
                            f"request {i} ({assignment.model_name}): stage "
                            f"{k} has invalid slice {slc} for {n} layers"
                        ),
                    )
                )
                continue
            expected = end + 1
        if expected != n:
            out.append(
                Violation(
                    code="incomplete-cover",
                    message=(
                        f"request {i} ({assignment.model_name}): slices "
                        f"cover {expected} of {n} layers"
                    ),
                )
            )
    return out


def _check_operator_support(plan: PipelinePlan) -> List[Violation]:
    soc_names = {p.name for p in plan.soc.processors}
    out = []
    for i, assignment in enumerate(plan.assignments):
        for k, slc in enumerate(assignment.slices):
            if slc is None:
                continue
            proc = plan.processors[k]
            if proc.name not in soc_names:
                continue  # reported by _check_processors
            start, end = slc
            if end >= assignment.profile.model.num_layers:
                continue  # reported by _check_slices
            if not assignment.profile.feasible(proc, start, end):
                bad = [
                    layer.name
                    for layer in assignment.profile.model.slice_layers(start, end)
                    if not proc.supports(layer)
                ]
                out.append(
                    Violation(
                        code="unsupported-operator",
                        message=(
                            f"request {i} ({assignment.model_name}): stage "
                            f"{k} on {proc.name!r} contains unsupported "
                            f"layers {bad}"
                        ),
                    )
                )
    return out


def _check_memory(plan: PipelinePlan) -> List[Violation]:
    """Peak diagonal working set vs capacity (Constraint 6).

    The synchronized diagonals bound the set of slices that can be
    co-resident; with hold-until-completion arenas the true peak can be
    higher, but a plan violating even the diagonal bound is certainly
    infeasible.
    """
    capacity = plan.soc.memory_capacity_bytes
    out = []
    num_diagonals = plan.num_requests + plan.depth - 1
    for j in range(num_diagonals):
        resident = 0.0
        members = []
        for i in range(plan.num_requests):
            k = j - i
            if not 0 <= k < plan.depth:
                continue
            slc = plan.assignments[i].slices[k]
            if slc is None:
                continue
            n_layers = plan.assignments[i].profile.model.num_layers
            if not 0 <= slc[0] <= slc[1] < n_layers:
                continue  # structurally broken; reported by _check_slices
            ws = ARENA_OVERHEAD_FACTOR * plan.assignments[i].profile.working_set_bytes(
                slc[0], slc[1]
            )
            resident += ws
            members.append((i, k))
        if resident > capacity:
            out.append(
                Violation(
                    code="memory-capacity",
                    message=(
                        f"diagonal {j} co-residents {members} need "
                        f"{resident / 1e6:.0f} MB, capacity is "
                        f"{capacity / 1e6:.0f} MB (Constraint 6)"
                    ),
                )
            )
    return out

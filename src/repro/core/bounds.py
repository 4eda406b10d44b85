"""Theoretical lower bounds on multi-DNN pipeline makespan.

Used to report absolute optimality gaps — something neither exhaustive
search (which only dominates a chosen grid) nor the paper itself
provides.  Two classic bounds apply:

* **Work bound.**  Even with perfect overlap and zero contention, the
  total work has to fit on the silicon:
  ``makespan >= min over work assignments of aggregate finish``.  We
  use the fractional relaxation: each model contributes its *best-case*
  work (its minimum over processors of solo time, as if it could use
  that unit exclusively), and the aggregate must fit the K units, i.e.
  ``sum_i min_k t_{ik} / K``.  A stronger per-processor form also
  holds: the fastest unit alone cannot beat the sum of what is placed
  on it, bounded below by letting every model pick its best processor
  and dividing each unit's load by one.
* **Chain bound.**  A single request cannot finish faster than its own
  best single-processor solo time (slicing adds copies; the pipeline
  adds waiting), so ``makespan >= max_i min_k t_{ik}``.

Both ignore contention, copies and precedence, so they are true lower
bounds on anything the simulator can produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.profiler import SocProfiler


@dataclass(frozen=True)
class MakespanBounds:
    """Lower bounds for one workload on one SoC."""

    work_bound_ms: float
    chain_bound_ms: float

    @property
    def lower_bound_ms(self) -> float:
        return max(self.work_bound_ms, self.chain_bound_ms)

    def gap(self, achieved_ms: float) -> float:
        """Relative distance of an achieved makespan above the bound.

        Raises:
            ValueError: if the achieved makespan beats the bound (which
                would indicate a bug in either the bound or the
                simulator).
        """
        bound = self.lower_bound_ms
        if achieved_ms < bound - 1e-6:
            raise ValueError(
                f"achieved {achieved_ms:.3f} ms beats the lower bound "
                f"{bound:.3f} ms — inconsistent models"
            )
        if bound <= 0:
            return 0.0
        return achieved_ms / bound - 1.0


def makespan_lower_bounds(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: Optional[SocProfiler] = None,
) -> MakespanBounds:
    """Compute the work and chain bounds for a workload.

    Raises:
        ValueError: for an empty workload or a model no processor runs.
    """
    if not models:
        raise ValueError("workload must be non-empty")
    profiler = profiler or SocProfiler(soc)

    best_times: List[float] = []
    for model in models:
        profile = profiler.profile(model)
        candidates = [
            profile.whole_model_ms(proc)
            for proc in soc.processors
            if profile.feasible(proc, 0, model.num_layers - 1)
        ]
        if not candidates:
            raise ValueError(f"{model.name!r} cannot run on any processor")
        best_times.append(min(candidates))

    work_bound = sum(best_times) / soc.num_processors
    chain_bound = max(best_times)
    return MakespanBounds(
        work_bound_ms=work_bound, chain_bound_ms=chain_bound
    )


def optimality_report(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    achieved_ms: float,
    profiler: Optional[SocProfiler] = None,
) -> Dict[str, float]:
    """Bundle the bounds and the achieved gap for reporting."""
    bounds = makespan_lower_bounds(soc, models, profiler)
    return {
        "work_bound_ms": bounds.work_bound_ms,
        "chain_bound_ms": bounds.chain_bound_ms,
        "lower_bound_ms": bounds.lower_bound_ms,
        "achieved_ms": achieved_ms,
        "gap": bounds.gap(achieved_ms),
    }

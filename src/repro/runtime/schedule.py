"""Column-synchronous pipeline timetable and bubble accounting (Eq. 3).

The paper reasons about the pipeline in *diagonals*: the j-th concurrent
workload set ``M_j`` contains stage ``k`` of request ``i`` for all
``i + k = j`` (j ranges over ``0 .. |M| + K - 2``).  In the synchronized
view, diagonal ``j`` takes ``max`` of its member stage times, and every
faster member idles for the difference — the *pipeline bubble*

    |B_j| = sum_{cells in M_j} ( max_cell T  -  T_cell ).

This module computes that timetable, inflating each cell with the
co-execution slowdown induced by the other members of its diagonal (the
``T^co`` term of Eq. 2), and exposes the totals the planner's
vertical phase minimizes.  The event-driven executor
(:mod:`repro.runtime.executor`) refines this with true asynchronous
start times; Property 1's linearity makes the synchronous totals a
faithful optimization proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..profiling.slowdown import SliceWorkload, slowdown_fraction

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..core.plan import PipelinePlan


@dataclass(frozen=True)
class DiagonalCell:
    """One executing slice within a diagonal."""

    request: int
    stage: int
    solo_ms: float
    co_ms: float


@dataclass(frozen=True)
class DiagonalColumn:
    """One synchronized execution step of the pipeline."""

    index: int
    cells: Tuple[DiagonalCell, ...]

    @property
    def duration_ms(self) -> float:
        """The step lasts as long as its slowest member."""
        active = [c.co_ms for c in self.cells if c.co_ms > 0]
        return max(active) if active else 0.0

    @property
    def bubble_ms(self) -> float:
        """Eq. 3: summed idle time of the faster members."""
        duration = self.duration_ms
        return sum(duration - c.co_ms for c in self.cells if c.co_ms > 0)


@dataclass(frozen=True)
class SynchronousSchedule:
    """Full column-synchronous timetable of a plan."""

    columns: Tuple[DiagonalColumn, ...]

    @property
    def makespan_ms(self) -> float:
        return sum(col.duration_ms for col in self.columns)

    @property
    def total_bubble_ms(self) -> float:
        return sum(col.bubble_ms for col in self.columns)


def _diagonal_members(
    plan: "PipelinePlan", diagonal: int
) -> List[Tuple[int, int]]:
    """(request, stage) pairs with ``request + stage == diagonal``."""
    members = []
    for i in range(plan.num_requests):
        k = diagonal - i
        if 0 <= k < plan.depth:
            members.append((i, k))
    return members


def build_schedule(plan: "PipelinePlan") -> SynchronousSchedule:
    """Compute the synchronized timetable of a plan.

    Each cell is inflated by the slowdown induced by the co-running
    members of its diagonal (Eq. 2's ``T^co``).

    Args:
        plan: The pipeline plan to evaluate.

    Returns:
        The :class:`SynchronousSchedule` with per-column durations and
        bubbles.
    """
    stage_times = plan.stage_time_matrix()
    num_columns = plan.num_requests + plan.depth - 1
    columns: List[DiagonalColumn] = []

    for j in range(num_columns):
        members = _diagonal_members(plan, j)
        workloads: List[Optional[SliceWorkload]] = []
        for (i, k) in members:
            slc = plan.assignments[i].slices[k]
            if slc is None:
                workloads.append(None)
            else:
                workloads.append(
                    SliceWorkload(
                        profile=plan.assignments[i].profile,
                        proc=plan.processors[k],
                        start=slc[0],
                        end=slc[1],
                    )
                )
        cells: List[DiagonalCell] = []
        for idx, (i, k) in enumerate(members):
            solo = stage_times[i][k]
            if workloads[idx] is None or solo <= 0:
                cells.append(DiagonalCell(i, k, 0.0, 0.0))
                continue
            others = [w for w in workloads if w is not None and w is not workloads[idx]]
            co = solo * (
                1.0 + slowdown_fraction(plan.soc, workloads[idx], others)
            )
            cells.append(DiagonalCell(i, k, solo, co))
        columns.append(DiagonalColumn(index=j, cells=tuple(cells)))
    return SynchronousSchedule(columns=tuple(columns))


def plan_makespan_ms(plan: "PipelinePlan") -> float:
    """Shortcut: synchronized makespan of a plan."""
    return build_schedule(plan).makespan_ms


def plan_bubbles_ms(plan: "PipelinePlan") -> float:
    """Shortcut: total bubble time (P2 objective, Eq. 5)."""
    return build_schedule(plan).total_bubble_ms


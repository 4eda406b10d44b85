"""Causal latency attribution over the engine's exact blame data.

The discrete-event engine (:mod:`repro.runtime.engine`) records, per
slice, a :class:`~repro.obs.causality.TaskCausality` row: when the
slice became ready, what enabled its start, and an integrated wait
breakdown.  This module is
the pure-analysis consumer — it answers the operator questions the
streaming SLO layer (PR 9) cannot:

* :func:`blame_requests` — decompose each request's end-to-end latency
  into processor-busy wait, residency wait, scheduler residual,
  preemption time, solo compute and contention inflation.  The
  components sum to the latency with zero residue by construction
  (``tests/test_obs_blame.py`` enforces ≤ 1e-9 on all three SoCs).
* :func:`extract_critical_path` — walk the recorded ``enabled_by``
  dependency edges backward from the makespan-defining slice.  The
  walk follows the *actual* enablement chain rather than coincident
  timestamps, so gaps and durations tile ``[0, makespan]`` exactly.
* :func:`compute_slack` — CPM-style schedule slack per slice over the
  recorded DAG (chain precedence + same-processor occupancy order +
  enablement edges); critical slices have zero slack.
* :func:`aggregate_blame` — where the time went, grouped by processor,
  model, stage and directional co-run pair (the engine's equal-split
  inflation attribution; Eq. 1's slowdown is not decomposable per
  co-runner, so the split is a documented convention).

Like the rest of ``repro.obs`` this module is a data-only leaf: results
are duck-typed (anything shaped like ``ExecutionResult``) and the rows'
type comes from its sibling :mod:`repro.obs.causality`, so nothing here
imports ``runtime``.  The what-if counterfactuals that *re-run* the engine live
in :mod:`repro.obs.whatif`, which sits above ``runtime`` and is
deliberately not re-exported from ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .causality import TaskCausality

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps obs a leaf
    from ..runtime.engine import ExecutionResult

#: Request outcome vocabulary (``RequestBlame.status``).
STATUS_COMPLETED = "completed"
STATUS_DROPPED = "dropped"
STATUS_CANCELLED = "cancelled"

#: The component keys of the exact latency decomposition, in reporting
#: order.  ``sum(components) == latency_ms`` within float tolerance.
BLAME_COMPONENTS = (
    "processor_busy_wait_ms",
    "residency_wait_ms",
    "scheduler_wait_ms",
    "preempted_ms",
    "solo_ms",
    "contention_ms",
)

#: A causality row's values of :data:`BLAME_COMPONENTS`, in that order.
_components = attrgetter(
    "processor_busy_wait_ms",
    "residency_wait_ms",
    "scheduler_wait_ms",
    "preempted_ms",
    "executed_solo_ms",
    "inflation_ms",
)


@dataclass(frozen=True)
class RequestBlame:
    """One request's exact end-to-end latency decomposition.

    ``solo_ms`` is the solo compute actually *executed* (truncated
    slices of a cancelled request count only their progress) and
    ``contention_ms`` the co-execution inflation on top of it;
    ``scheduler_wait_ms`` is the residual bucket absorbing sub-epsilon
    event-pop slivers.  ``first_stage_wait_ms`` is the share of the
    wait spent before the first slice started — the arrival-queue wait
    of the classic decomposition (predecessor waits are structurally
    zero: a slice becomes ready the instant its predecessor departs).
    """

    request: int
    model: str
    status: str
    arrival_ms: float
    finish_ms: float
    latency_ms: float
    processor_busy_wait_ms: float
    residency_wait_ms: float
    scheduler_wait_ms: float
    preempted_ms: float
    solo_ms: float
    contention_ms: float
    first_stage_wait_ms: float
    slices: int

    @property
    def components_total_ms(self) -> float:
        return (
            self.processor_busy_wait_ms
            + self.residency_wait_ms
            + self.scheduler_wait_ms
            + self.preempted_ms
            + self.solo_ms
            + self.contention_ms
        )

    @property
    def residue_ms(self) -> float:
        """Accounting error: zero (to float tolerance) by construction."""
        return self.latency_ms - self.components_total_ms

    def to_dict(self) -> Dict[str, object]:
        return {
            "request": self.request,
            "model": self.model,
            "status": self.status,
            "arrival_ms": self.arrival_ms,
            "finish_ms": self.finish_ms,
            "latency_ms": self.latency_ms,
            "processor_busy_wait_ms": self.processor_busy_wait_ms,
            "residency_wait_ms": self.residency_wait_ms,
            "scheduler_wait_ms": self.scheduler_wait_ms,
            "preempted_ms": self.preempted_ms,
            "solo_ms": self.solo_ms,
            "contention_ms": self.contention_ms,
            "first_stage_wait_ms": self.first_stage_wait_ms,
            "slices": self.slices,
            "residue_ms": self.residue_ms,
        }


def _model_name(request_models: Optional[Sequence[str]], request: int) -> str:
    if request_models is not None and request < len(request_models):
        return request_models[request]
    return f"request{request}"


def blame_requests(
    result: "ExecutionResult",
    request_models: Optional[Sequence[str]] = None,
) -> List[RequestBlame]:
    """Fold causality rows into per-request latency decompositions.

    A request's rows are finalized in chain order, so they are grouped
    in one pass and sorted by chain position only when they are not
    already in it; each component is the builtin ``sum`` over the
    request's rows in that order.

    Args:
        result: An engine result executed with causality tracking on.
        request_models: Optional per-request model names (defaults to
            ``request<i>``).

    Raises:
        ValueError: when the result carries no causality data (engine
            run with ``track_causality=False`` or a v1 archive).
    """
    if not result.causality and result.records:
        raise ValueError(
            "result has no causality data: run the engine with "
            "track_causality=True (v1 archives predate causality)"
        )
    n = result.num_requests
    by_request: List[List[TaskCausality]] = [[] for _ in range(n)]
    unordered = set()
    for row in result.causality:
        rows = by_request[row.request]
        if rows and row.index < rows[-1].index:
            unordered.add(row.request)
        rows.append(row)
    for request in unordered:
        by_request[request].sort(key=lambda r: r.index)
    dropped = set(result.dropped_requests)
    cancelled = set(result.cancelled_requests)
    arrival_ms = result.request_arrival_ms
    finish_ms = result.request_finish_ms
    out: List[RequestBlame] = []
    for request, rows in enumerate(by_request):
        first_wait = 0.0
        if rows:
            first = rows[0]
            first_wait = (
                first.processor_busy_wait_ms
                + first.residency_wait_ms
                + first.scheduler_wait_ms
            )
        # One column per component, each in chain order.
        busy, residency, scheduler, preempted, solo, contention = (
            list(zip(*map(_components, rows))) or [()] * len(BLAME_COMPONENTS)
        )
        if request in dropped:
            status = STATUS_DROPPED
        elif request in cancelled:
            status = STATUS_CANCELLED
        else:
            status = STATUS_COMPLETED
        out.append(
            RequestBlame(
                request=request,
                model=_model_name(request_models, request),
                status=status,
                arrival_ms=arrival_ms[request],
                finish_ms=finish_ms[request],
                latency_ms=finish_ms[request] - arrival_ms[request],
                processor_busy_wait_ms=sum(busy),
                residency_wait_ms=sum(residency),
                scheduler_wait_ms=sum(scheduler),
                preempted_ms=sum(preempted),
                solo_ms=sum(solo),
                contention_ms=sum(contention),
                first_stage_wait_ms=first_wait,
                slices=len(rows),
            )
        )
    return out


# ------------------------------------------------------- critical path


@dataclass(frozen=True)
class PathSegment:
    """One slice on the critical path, plus the gap that precedes it.

    ``gap_ms`` covers ``[previous segment's finish, this slice's
    start]`` (for the earliest segment: from t=0, i.e. the arrival
    wait of the path's root request) and ``gap_cause`` labels it with
    the slice's enabling cause.  Gaps are ~0 when the enabler is the
    binding constraint (the slice starts the instant it is enabled)
    and grow only across forced starts or unstarted truncations.
    """

    request: int
    stage: int
    index: int
    processor: str
    gap_ms: float
    gap_cause: str
    start_ms: Optional[float]
    finish_ms: float
    duration_ms: float
    wait_ms: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "request": self.request,
            "stage": self.stage,
            "index": self.index,
            "processor": self.processor,
            "gap_ms": self.gap_ms,
            "gap_cause": self.gap_cause,
            "start_ms": self.start_ms,
            "finish_ms": self.finish_ms,
            "duration_ms": self.duration_ms,
            "wait_ms": self.wait_ms,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The exact enablement chain ending at the makespan-defining slice.

    Segments are time-ordered; gaps and durations tile ``[0,
    makespan_ms]``, so ``total_gap_ms + total_duration_ms ==
    makespan_ms`` within float tolerance (:attr:`residue_ms`) — the
    identity ``tests/test_obs_blame.py`` enforces.
    """

    segments: Tuple[PathSegment, ...]
    makespan_ms: float

    @property
    def total_gap_ms(self) -> float:
        return sum(s.gap_ms for s in self.segments)

    @property
    def total_duration_ms(self) -> float:
        return sum(s.duration_ms for s in self.segments)

    @property
    def residue_ms(self) -> float:
        return self.makespan_ms - self.total_gap_ms - self.total_duration_ms

    def to_dict(self) -> Dict[str, object]:
        return {
            "makespan_ms": self.makespan_ms,
            "total_gap_ms": self.total_gap_ms,
            "total_duration_ms": self.total_duration_ms,
            "residue_ms": self.residue_ms,
            "segments": [s.to_dict() for s in self.segments],
        }


def _segment_anchor(row: TaskCausality) -> float:
    """The instant a causality row's on-path interval begins."""
    return row.start_ms if row.start_ms is not None else row.finish_ms


def extract_critical_path(result: "ExecutionResult") -> CriticalPath:
    """Walk the recorded enablement DAG back from the last finisher.

    From the slice whose finish defines the makespan, each step follows
    ``enabled_by`` (the task whose completion triggered the start); a
    slice started with no waiting falls back to its chain predecessor.
    The walk terminates at a slice enabled by its request's arrival (or
    a forced start with no predecessor), whose gap from t=0 becomes the
    path's initial arrival segment.

    Returns an empty path for a result with no causality rows.
    """
    rows = {(row.request, row.index): row for row in result.causality}
    if not rows:
        return CriticalPath(segments=(), makespan_ms=result.makespan_ms)
    cur = max(result.causality, key=lambda r: r.finish_ms)
    chain: List[TaskCausality] = []
    visited = set()
    while True:
        key = (cur.request, cur.index)
        if key in visited:
            break  # defensive: malformed enablement data
        visited.add(key)
        chain.append(cur)
        prev_key = cur.enabled_by
        if prev_key is None and cur.index > 0:
            prev_key = (cur.request, cur.index - 1)
        if prev_key is None:
            break
        prev = rows.get(prev_key)
        if prev is None or prev.finish_ms > _segment_anchor(cur) + 1e-9:
            break  # dangling reference (e.g. preemption-vacated start)
        cur = prev
    chain.reverse()
    segments: List[PathSegment] = []
    prev_finish = 0.0
    for row in chain:
        anchor = _segment_anchor(row)
        segments.append(
            PathSegment(
                request=row.request,
                stage=row.stage,
                index=row.index,
                processor=row.processor,
                gap_ms=anchor - prev_finish,
                gap_cause=row.cause,
                start_ms=row.start_ms,
                finish_ms=row.finish_ms,
                duration_ms=row.duration_ms,
                wait_ms=row.wait_ms,
            )
        )
        prev_finish = row.finish_ms
    return CriticalPath(
        segments=tuple(segments), makespan_ms=result.makespan_ms
    )


# --------------------------------------------------------------- slack


def compute_slack(result: "ExecutionResult") -> Dict[Tuple[int, int], float]:
    """CPM-style schedule slack per slice, keyed by (request, index).

    Edges of the recorded DAG: chain precedence, same-processor
    occupancy order (consecutive starts on one unit), and the recorded
    ``enabled_by`` enablements.  A slice's slack is how far its finish
    could slip before some successor's start — transitively, the
    makespan — would move; slices on the critical path have ~0 slack.
    """
    rows = {(row.request, row.index): row for row in result.causality}
    succs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def add_edge(src: Tuple[int, int], dst: Tuple[int, int]) -> None:
        if src in rows and dst in rows and src != dst:
            succs.setdefault(src, []).append(dst)

    for key, row in rows.items():
        if (row.request, row.index + 1) in rows:
            add_edge(key, (row.request, row.index + 1))
        if row.enabled_by is not None:
            add_edge(row.enabled_by, key)
    by_proc: Dict[str, List[TaskCausality]] = {}
    for row in result.causality:
        if row.start_ms is not None:
            by_proc.setdefault(row.processor, []).append(row)
    for occupants in by_proc.values():
        occupants.sort(key=lambda r: (r.start_ms, r.finish_ms))
        for a, b in zip(occupants, occupants[1:]):
            add_edge((a.request, a.index), (b.request, b.index))

    slack: Dict[Tuple[int, int], float] = {}
    for row in sorted(
        result.causality, key=lambda r: r.finish_ms, reverse=True
    ):
        key = (row.request, row.index)
        best = result.makespan_ms - row.finish_ms
        for succ_key in succs.get(key, ()):
            succ = rows[succ_key]
            gap = _segment_anchor(succ) - row.finish_ms
            best = min(best, gap + slack[succ_key])
        slack[key] = best
    return slack


# ---------------------------------------------------------- aggregates


def _ranked(table: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    """The table's rows as component dicts, by total attributed time,
    descending (ties keep their first-seen order)."""
    ranked = sorted(table.items(), key=lambda kv: sum(kv[1]), reverse=True)
    return {key: dict(zip(BLAME_COMPONENTS, values)) for key, values in ranked}


def aggregate_blame(
    result: "ExecutionResult",
    request_models: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Aggregate blame tables: where the run's time actually went.

    Returns a JSON-ready dict with four tables, each ranked by total
    attributed time, descending:

    * ``by_processor`` — components of slices bound to each unit;
    * ``by_model`` — components grouped by the request's model name;
    * ``by_stage`` — components grouped by pipeline stage index;
    * ``corun_pairs`` — the engine's directional co-run inflation
      matrix: inflation suffered *by* the first processor *due to*
      co-running with the second.
    """
    # Each bucket's components accumulate row by row, in row order,
    # from 0.0, in place in one list per bucket; stages are keyed by
    # their index until the table is ranked.
    by_processor: Dict[Any, List[float]] = {}
    by_model: Dict[Any, List[float]] = {}
    by_stage: Dict[Any, List[float]] = {}
    for c in result.causality:
        busy, residency, scheduler, preempted, solo, contention = _components(c)
        for table, key in (
            (by_processor, c.processor),
            (by_model, _model_name(request_models, c.request)),
            (by_stage, c.stage),
        ):
            acc = table.get(key)
            if acc is None:
                acc = table[key] = [0.0] * len(BLAME_COMPONENTS)
            acc[0] += busy
            acc[1] += residency
            acc[2] += scheduler
            acc[3] += preempted
            acc[4] += solo
            acc[5] += contention
    corun: Mapping[Tuple[str, str], float] = getattr(
        result, "corun_inflation_ms", {}
    )
    pairs = [
        {
            "processor": a,
            "co_runner": b,
            "inflation_ms": inflation,
        }
        for (a, b), inflation in sorted(
            corun.items(), key=lambda kv: kv[1], reverse=True
        )
    ]
    return {
        "by_processor": _ranked(by_processor),
        "by_model": _ranked(by_model),
        "by_stage": _ranked(
            {f"stage{stage}": values for stage, values in by_stage.items()}
        ),
        "corun_pairs": pairs,
    }

"""Exact blame data: per-slice wait and enablement accounting.

The discrete-event engine (:mod:`repro.runtime.engine`) owns one
:class:`CausalityTracker` when it runs with ``track_causality=True``
(the engine's default; the executor adapters default to off, so each
blame reader opts in) and calls it at the simulation's edges: a slice
becoming ready, a slice starting, each advancing step, a slice finishing or
being truncated by a cancellation, a processor being vacated and an
arena being released.  From those calls the tracker records, per task,
a :class:`TaskCausality` row: the instant the slice became ready (its
request's arrival for the first stage, the predecessor's departure
otherwise), what *enabled* its start (arrival, predecessor finish, a
specific processor freeing, a specific residency drain, or the
engine's forced-start overcommit path), and an integrated wait
breakdown (processor-busy wait, residency wait, a residual scheduler
bucket that absorbs sub-epsilon event-pop slivers, and off-processor
preemption time).  Because ready instants tile each request's
``[arrival, finish]`` interval exactly, the components sum to the
end-to-end latency with zero residue by construction — the invariant
:mod:`repro.obs.blame` reports and ``tests/test_obs_blame.py`` enforces
on all three SoCs.  The tracker only reads what the engine hands it, so
the engine's step arithmetic is the same with tracking on or off.

Each step's accrual is over slot indices, as the engine keeps its run
state: slot ``k`` is the SoC's processor at position ``k``.  The
tracker is built over live views of the engine's per-slot ready sets
and running tasks and its per-request head-start times and chain
positions, reads them in :meth:`CausalityTracker.advance` and never
writes them, so a step builds no list of blocked heads.  Open slices
are a per-request list, and the co-run inflation accrues in a slot x
slot matrix whose pairs are named, in first-accrual order, only when
the result reads them.

Like the rest of ``repro.obs`` this module is a data-only leaf: tasks
are duck-typed (anything with ``request``/``stage``/``proc.name``/
``solo_ms``/``workload``/``working_set``) and a run's progress is what
the engine hands over, so nothing here imports ``runtime``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps obs a leaf
    from ..runtime.engine import ChainTask

#: What enabled a slice's start (``TaskCausality.cause``).
CAUSE_ARRIVAL = "arrival"
CAUSE_PREDECESSOR = "predecessor"
CAUSE_PROCESSOR_FREED = "processor_freed"
CAUSE_RESIDENCY_DRAIN = "residency_drain"
CAUSE_FORCED = "forced"
#: A slice cancelled before it ever started has no enabling cause.
CAUSE_UNSTARTED = "unstarted"

#: The full enabling-cause taxonomy, in no particular order.
CAUSE_KINDS = (
    CAUSE_ARRIVAL,
    CAUSE_PREDECESSOR,
    CAUSE_PROCESSOR_FREED,
    CAUSE_RESIDENCY_DRAIN,
    CAUSE_FORCED,
    CAUSE_UNSTARTED,
)

#: What last kept a waiting unstarted head from starting
#: (``_HeadState.last_block``): its processor was occupied, or memory
#: admission would have exceeded the capacity.
BLOCK_PROCESSOR = "processor"
BLOCK_MEMORY = "memory"

#: ``(request, index)`` of one slice: its request and chain position.
TaskKey = Tuple[int, int]


@dataclass(frozen=True)
class TaskCausality:
    """Exact wait/enablement accounting for one slice.

    ``index`` is the slice's position in its request's chain (stages
    may repeat in hand-built chains; positions never do) —
    ``enabled_by`` references ``(request, index)`` of the task whose
    completion triggered this one's start, or ``None`` when the start
    was triggered by the request's own arrival, a forced overcommit,
    or a preemption vacating the processor.

    The wait interval ``[ready_ms, start_ms]`` decomposes into
    ``processor_busy_wait_ms + residency_wait_ms + scheduler_wait_ms``
    where the scheduler bucket is the float residual (it absorbs the
    sub-epsilon slivers between event pops and starts, so the sum is
    exact by construction).  The run interval ``[start_ms, finish_ms]``
    decomposes into ``executed_solo_ms + preempted_ms +
    inflation_ms`` — contention inflation is likewise the residual.
    A slice cancelled mid-run is ``truncated`` with
    ``executed_solo_ms`` the progress it actually made; a slice
    cancelled before starting has ``start_ms=None`` and only waits.
    """

    request: int
    stage: int
    index: int
    processor: str
    cause: str
    enabled_by: Optional[TaskKey]
    ready_ms: float
    start_ms: Optional[float]
    finish_ms: float
    solo_ms: float
    executed_solo_ms: float
    processor_busy_wait_ms: float
    residency_wait_ms: float
    scheduler_wait_ms: float
    preempted_ms: float
    truncated: bool = False

    @property
    def wait_ms(self) -> float:
        """Ready-to-start wait (ready-to-cancel for unstarted slices)."""
        anchor = self.start_ms if self.start_ms is not None else self.finish_ms
        return anchor - self.ready_ms

    @property
    def duration_ms(self) -> float:
        """Wall time on (or preempted from) the processor."""
        if self.start_ms is None:
            return 0.0
        return self.finish_ms - self.start_ms

    @property
    def inflation_ms(self) -> float:
        """Contention inflation: wall duration beyond solo + preempted."""
        return self.duration_ms - self.executed_solo_ms - self.preempted_ms


class _HeadState:
    """Mutable accrual for a request's ready-but-unfinished slice."""

    __slots__ = (
        "index",
        "ready_ms",
        "start_ms",
        "cause",
        "enabled_by",
        "busy_wait_ms",
        "residency_wait_ms",
        "preempted_ms",
        "last_block",
    )

    def __init__(self, index: int, ready_ms: float) -> None:
        self.index = index
        self.ready_ms = ready_ms
        self.start_ms: Optional[float] = None
        self.cause: Optional[str] = None
        self.enabled_by: Optional[TaskKey] = None
        self.busy_wait_ms = 0.0
        self.residency_wait_ms = 0.0
        self.preempted_ms = 0.0
        self.last_block: Optional[str] = None


class CausalityTracker:
    """Accrues :class:`TaskCausality` rows and the co-run inflation matrix.

    A request's chain runs strictly in order, so each request has at
    most one open slice — from :meth:`ready` to :meth:`finish` — and
    the open accruals are a per-request list.

    Args:
        processors: The SoC's processor names; position ``k`` is slot
            ``k``.
        chains: The engine's chains, indexed by request (live: an
            offline re-route replaces a head in place).
        ready: Per slot, the requests whose chain head is ready for it.
        running: Per slot, the running task or None.
        head_start: Per request, its head's first start or None.
        next_idx: Per request, the chain position of its next start.
        capacity: The residency capacity a head's admission is checked
            against; ``inf`` when memory is not enforced.

    The five sequences are the engine's own run state, read at every
    :meth:`advance` and never written.

    Attributes:
        rows: The finished rows, in finalization order.
    """

    def __init__(
        self,
        processors: Sequence[str],
        chains: Sequence[Sequence["ChainTask"]],
        ready: Sequence[Set[int]],
        running: Sequence[Optional["ChainTask"]],
        head_start: Sequence[Optional[float]],
        next_idx: Sequence[int],
        capacity: float,
    ) -> None:
        self.rows: List[TaskCausality] = []
        self._processors = tuple(processors)
        self._chains = chains
        self._ready = ready
        self._running = running
        self._head_start = head_start
        self._next_idx = next_idx
        self._capacity = capacity
        self._open: List[Optional[_HeadState]] = [None] * len(chains)
        # Per (suffering, co-runner) slot pair: the inflation so far,
        # None until the pair first accrues; the accrued pairs in
        # first-accrual order.
        self._corun: List[List[Optional[float]]] = [
            [None] * len(processors) for _ in processors
        ]
        self._pairs: List[Tuple[int, int]] = []
        # Per slot: the slice whose departure (or cancellation) most
        # recently vacated it; None after a preemption (the vacating
        # slice has no finish yet) or before any.
        self._last_freed: List[Optional[TaskKey]] = [None] * len(processors)
        # The slice of the most recent arena-releasing event.
        self._last_release: Optional[TaskKey] = None

    def corun_inflation_ms(self) -> Dict[Tuple[str, str], float]:
        """Contention inflation per directional ``(suffering processor,
        co-runner processor)`` pair, in first-accrual order."""
        names = self._processors
        corun = self._corun
        return {(names[a], names[c]): corun[a][c] for a, c in self._pairs}  # type: ignore[misc]

    def ready(self, request: int, index: int, ready_ms: float) -> None:
        """Open accrual for chain position ``index`` of ``request`` at ``ready_ms``."""
        self._open[request] = _HeadState(index, ready_ms)

    def start(self, request: int, slot: int, now_ms: float, forced: bool) -> None:
        """Record the first start of the request's open slice on ``slot``.

        The enabling cause is the resource that last blocked the slice
        (the slot's last vacating slice, or the last arena release),
        else its predecessor's finish, else its request's arrival; a
        forced overcommit has no enabling slice.
        """
        state = self._open[request]
        assert state is not None
        state.start_ms = now_ms
        if forced:
            state.cause = CAUSE_FORCED
        elif state.last_block == BLOCK_PROCESSOR:
            state.cause = CAUSE_PROCESSOR_FREED
            state.enabled_by = self._last_freed[slot]
        elif state.last_block == BLOCK_MEMORY:
            state.cause = CAUSE_RESIDENCY_DRAIN
            state.enabled_by = self._last_release
        elif state.index > 0:
            state.cause = CAUSE_PREDECESSOR
            state.enabled_by = (request, state.index - 1)
        else:
            state.cause = CAUSE_ARRIVAL

    def advance(
        self,
        dt: float,
        running: Sequence[Tuple[int, "ChainTask"]],
        rates: Sequence[float],
        used_bytes: float,
    ) -> None:
        """Integrate one step of wall time ``dt``.

        Each waiting ready head accrues ``dt`` to what blocks it right
        now, read from the engine's state: a head that already started
        is off its processor by preemption; otherwise its slot being
        occupied, then memory admission (``used_bytes`` plus its
        working set above the capacity), blocks it.  A head blocked by
        neither (it lost the FIFO pick to a blocked head) accrues
        nothing.  Only the ready sets are visited, so the cost is the
        number of waiting heads, not the number of requests; each
        head's buckets are its own, so the order cannot change any sum.
        The residual scheduler bucket needs no accrual — :meth:`finish`
        computes it as ``wait − busy − residency``.

        ``running`` are the ``(slot, slice)`` pairs on a processor and
        ``rates`` their slowdown factors ``1 + s``, position by
        position.  A slice at
        rate ``1 + s`` makes ``dt / (1 + s)`` of solo progress, so
        ``dt − dt / rate`` is pure inflation; it is split equally among
        the workload-bearing co-runners (Eq. 1's slowdown is not
        decomposable per co-runner, so the equal split is the
        documented convention) and accrues per slot pair, co-runners in
        slot order.
        """
        # Every ready head has an open slice.
        open_: List[_HeadState] = self._open  # type: ignore[assignment]
        head_start = self._head_start
        for ready, task in zip(self._ready, self._running):
            if not ready:
                continue
            for i in ready:
                state = open_[i]
                if head_start[i] is not None:
                    state.preempted_ms += dt
                elif task is not None:
                    state.busy_wait_ms += dt
                    state.last_block = BLOCK_PROCESSOR
                elif (
                    used_bytes + self._chains[i][self._next_idx[i]].working_set
                    > self._capacity
                ):
                    state.residency_wait_ms += dt
                    state.last_block = BLOCK_MEMORY
        if len(running) < 2:
            return  # no co-runner, so every rate is 1
        loaded = [k for k, task in running if task.workload is not None]
        corun = self._corun
        for (k, task), rate in zip(running, rates):
            if rate <= 1.0:
                continue
            others = len(loaded) - (task.workload is not None)
            if not others:
                continue
            share = (dt - dt / rate) / others
            row = corun[k]
            for c in loaded:
                if c == k:
                    continue
                value = row[c]
                if value is None:
                    self._pairs.append((k, c))
                    value = 0.0
                row[c] = value + share

    def finish(
        self, task: "ChainTask", now_ms: float, left_ms: Optional[float] = None
    ) -> Optional[TaskKey]:
        """Freeze the open slice of ``task.request``, ``task``, into a row
        at ``now_ms``.

        With ``left_ms`` the slice is truncated (its request was
        cancelled) with that much solo time left: it counts only the
        solo progress it made, or only its wait if it never started.

        Returns:
            The finished slice's ``(request, index)``, or None when the
            request had no open slice.
        """
        request = task.request
        state = self._open[request]
        if state is None:
            return None
        self._open[request] = None
        truncated = left_ms is not None
        if state.start_ms is not None:
            wait = state.start_ms - state.ready_ms
            executed = task.solo_ms
            if left_ms is not None:
                executed = task.solo_ms - max(left_ms, 0.0)
        else:
            wait = now_ms - state.ready_ms
            executed = 0.0
        scheduler = wait - state.busy_wait_ms - state.residency_wait_ms
        # Positional arguments: the frozen dataclass builds in about half
        # the time it takes with keywords.
        self.rows.append(
            TaskCausality(
                request,
                task.stage,
                state.index,
                task.proc.name,
                state.cause or CAUSE_UNSTARTED,
                state.enabled_by,
                state.ready_ms,
                state.start_ms,
                now_ms,
                task.solo_ms,
                executed,
                state.busy_wait_ms,
                state.residency_wait_ms,
                scheduler,
                state.preempted_ms,
                truncated,
            )
        )
        return (request, state.index)

    def freed(self, slot: int, by: Optional[TaskKey]) -> None:
        """Slot ``slot`` was vacated by slice ``by`` (None: a preemption)."""
        self._last_freed[slot] = by

    def released(self, by: Optional[TaskKey]) -> None:
        """A request's arenas were released when slice ``by`` ended."""
        self._last_release = by

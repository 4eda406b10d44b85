"""The discrete-event simulation engine behind every executed plan.

This module is the general substrate the legacy closed-loop executor
(:mod:`repro.runtime.executor`, now a thin adapter) was refactored
into.  One engine instance simulates a set of per-request task chains
on one SoC, driven by an **event heap** instead of the old per-step
O(n) rescans of the arrival list:

* ``arrival`` — a request enters the system (timestamps come from an
  injectable :class:`~repro.runtime.arrivals.ArrivalProcess`: periodic,
  Poisson, or a plain list).
* ``task_ready`` — a chain's next slice is admitted onto its processor
  (emitted; readiness itself is derived state: predecessor finished,
  request arrived, processor free, memory admitted).
* ``rate_change`` — an exogenous processor-rate edge (today: fault
  injection via ``processor_offline_ms``; co-runner-induced rate
  changes are implicit — see below).
* ``departure`` — a slice completes; the last departure of a chain
  releases the request's memory arenas.
* ``preemption`` — a running slice is taken off its processor with its
  progress preserved; it re-enters the ready set.
* ``cancellation`` — a request is removed (user-scheduled, or a
  deadline drop when its first slice has not started by
  ``arrival + deadline``), releasing its arenas and pending work.

**Co-execution dynamics.**  While a set of slices co-runs, each
progresses at ``1 / (1 + slowdown)`` with the slowdown recomputed from
the live co-runner set whenever it changes (Eq. 2's dynamic ``T^co``).
Because *every* start and departure changes every co-runner's rate, a
textbook approach of keeping predicted departure events in the heap
would invalidate and re-insert the whole running set on each edge.
The running set is bounded by the processor count (<= 5 on every
registered SoC), so the engine instead computes the earliest departure
with a direct minimum over the running set each step — fewer
operations than the heap churn, and floating-point-identical to the
legacy executor's step arithmetic (the golden-equivalence guarantee
below).  The heap holds the *unbounded* exogenous event population:
arrivals, fault edges, deadlines, cancellations, preemptions (a closed
loop's arrivals, all at t=0, take effect at construction instead).

**Run state.**  A run writes to no task: :class:`ChainTask` is
immutable, and the engine keeps a run's progress itself, indexed as a
:class:`ProbeRun` indexes its own.  Slot ``k`` is the processor at
position ``k`` of ``soc.processors``; the running task, its remaining
solo time, busy time, offline time and ready set of a processor are
entries ``k`` of per-slot lists.  Per request, the engine keeps its
chain head's first-start time (None until the head starts) and the
remaining solo time of a head preempted off its processor.  One chain
set therefore serves any number of runs, and an offline re-route
replaces the head in the engine's own copy of the chains.

**Ready sets.**  A slot's ready set holds the ids of requests
whose chain head is ready for that processor (arrived, not removed,
predecessor done, a slice left); each handler that changes one of
those facts or re-routes a head updates it.  Picking a processor's
next task is a ``min`` over its slot's set (FIFO by request id) and
wait accrual visits only the ready heads, so a step costs O(ready
heads + processors) rather than O(requests submitted) — long open-loop
runs pay per request the same as short ones.  Fault-injected runs add
an O(requests) re-routing sweep only on the steps where a chain head
can sit on an offline slot: after a fault edge, or after a start or a
preemption leaves a head on a slot that is already offline.

**Probes.**  The planner's objective simulates thousands of candidate
plans and reads only their makespans.  Those runs are
:class:`ProbeRun` objects, not engines: a probe run steps the engine's
arithmetic over only the state a makespan reads (see its docstring),
on the same immutable tasks.

**Equivalence guarantee.**  For the legacy feature set (closed-loop or
listed arrivals, contention, memory enforcement, fault injection — no
deadlines/cancellation/preemption), the engine reproduces the legacy
executor's ``TaskRecord``s and ``request_finish_ms`` to within 1e-9:
the step arithmetic (``dt = min(remaining * rate)``, clipped at the
next exogenous edge, floored at ``_EPS``) is unchanged, and processor
iteration orders are identical.  The one deliberate divergence is the
legacy off-by-epsilon arrival scan: the old loop treated an arrival in
``(now, now + _EPS]`` as already arrived and could start its task up
to ``_EPS`` *before* its arrival timestamp (a negative queueing
delay).  The engine instead advances ``now`` to the popped event's
timestamp, so a slice never starts before its request arrives and the
idle-advance can never select a zero-length step.  On schedules whose
arrivals do not fall within 1e-9 of an unrelated event edge the two
simulators agree exactly; ``tests/test_runtime_engine.py``
(``TestGoldenEquivalence``) enforces this over the full zoo x SoC grid.

**Queueing outputs.**  Per-request first-start times, queueing delays
(first start minus arrival) and deadline drops are first-class fields
of :class:`ExecutionResult` — the serving metrics the ROADMAP's
open-loop front-end consumes — not post-hoc joins over task records.

**Residency (Constraint 6).**  MNN-style arena behaviour: a slice's
working set is allocated when it starts and the request's accumulated
arenas release only when its last stage departs (or the request is
cancelled).  A task whose admission would exceed physical capacity
waits for residency to drain; when *every* processor is blocked, one
task is force-started and counted as a memory-pressure event (the
paging regime of a real device).

**Causality.**  With ``track_causality=True`` the engine hands its
ready, start, step, finish, vacate and release edges to one
:class:`~repro.obs.causality.CausalityTracker`, which owns the exact
blame bookkeeping (see that module); the tracker never feeds back into
the step arithmetic.  The tracker is built over the engine's own
slot-indexed ready sets, running slots, head starts and chain
positions and reads them itself each step, so a step hands it only
``dt``, the running pairs, their rates and the used residency; vacated
processors are slot indices.  The engine defaults to on; the executor
adapters (:func:`~repro.runtime.executor.simulate_chains`,
``execute_plan``, ``execute_plan_perturbed``) default to off, so only a
run whose blame is read pays for it.

**Clock range.**  A run whose clock overflows to ``inf`` (finite solo
times that add up past the largest float) raises ``ValueError`` when it
ends, or at its next offline sweep, where an infinite clock reads every
slot as offline; a finite run pays no per-step check for it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import obs
from ..obs.causality import CausalityTracker, TaskCausality
from ..hardware.memory import MemoryDemand, MemoryGovernor
from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..profiling.slowdown import (
    MAX_SLOWDOWN,
    SliceWorkload,
    check_on_soc,
    coupling_matrix,
    slowdown_fraction,
)
from ..util import percentile
from .arrivals import ArrivalsLike, resolve_arrivals

_EPS = 1e-9

#: A running slice departs once its remaining time is at most this.
_DEPARTURE_MS = _EPS * 10

#: Slack a bounded run gives its lower bound on top of ``_DEPARTURE_MS`` per
#: outstanding task: float rounding of the step arithmetic and of the
#: caller's threshold (see :class:`ProbeRun`).
PRUNE_MARGIN_MS = 1e-6

#: MNN-style runtime arenas (weight buffers, pre-allocated tensor pools,
#: backend scratch space) occupy a multiple of the raw working set.
ARENA_OVERHEAD_FACTOR = 3.0

# ----------------------------------------------------------- event model

ARRIVAL = "arrival"
TASK_READY = "task_ready"
RATE_CHANGE = "rate_change"
DEPARTURE = "departure"
PREEMPTION = "preemption"
CANCELLATION = "cancellation"

#: The engine's full event taxonomy, in no particular order.
EVENT_KINDS = (
    ARRIVAL,
    TASK_READY,
    RATE_CHANGE,
    DEPARTURE,
    PREEMPTION,
    CANCELLATION,
)


class Event(NamedTuple):
    """One processed simulation event (kept when ``keep_events=True``).

    A named tuple, as :class:`TaskRecord` is: a run that keeps its log
    builds one per event, and nothing reads it as a dataclass.
    """

    time_ms: float
    kind: str
    request: Optional[int] = None
    processor: Optional[str] = None
    detail: str = ""


# ------------------------------------------------------- task structures


class ChainTask(NamedTuple):
    """One schedulable unit: a slice bound to a specific processor.

    Immutable (see "Run state" above): ``_replace`` builds a changed
    copy.  A named tuple rather than a frozen dataclass because every
    executed window builds one per stage and tuples are about three
    times cheaper to build; every run checks that ``solo_ms`` is finite
    and >= 0 instead.
    """

    request: int
    proc: ProcessorSpec
    solo_ms: float
    workload: Optional[SliceWorkload]
    working_set: float
    stage: int = 0


class Checkpoint(NamedTuple):
    """A :class:`ProbeRun`'s state after some number of steps.

    ``running`` holds, per slot, the running task with its remaining
    solo time, or None.  ``ready`` is, per slot, the bitmask of the
    requests whose exposed head waits for that slot: bit ``i`` is
    request ``i``, so the lowest set bit is the FIFO-by-id pick.
    ``started_ms`` is, per slot, the solo time of every task started
    so far, so a slot's unstarted work is its total solo time less
    this.  A request's *progress code*
    ``2 * next_idx + prev_done`` only grows: chain position ``p`` is
    exposed when the code reaches ``2p + 1`` and starts when it reaches
    ``2p + 2``.
    """

    now_ms: float
    next_idx: List[int]
    prev_done: List[bool]
    running: Tuple[Optional[Tuple["ChainTask", float]], ...]
    completed: int
    ready: List[int]
    started_ms: List[float]

    def progress(self, request: int) -> int:
        """The request's progress code at this checkpoint."""
        return 2 * self.next_idx[request] + self.prev_done[request]


class TaskRecord(NamedTuple):
    """Completed execution of one slice.

    A named tuple rather than a frozen dataclass: the engine builds one
    per departure, objective probes included, and tuple construction is
    several times cheaper.  It is immutable and hashable either way.
    """

    request: int
    stage: int
    processor: str
    start_ms: float
    finish_ms: float
    solo_ms: float
    traffic_bytes: float = 0.0

    @property
    def duration_ms(self) -> float:
        return self.finish_ms - self.start_ms

    @property
    def slowdown(self) -> float:
        """Observed average slowdown vs the solo time."""
        if self.solo_ms <= 0:
            return 0.0
        return self.duration_ms / self.solo_ms - 1.0


@dataclass(frozen=True)
class TracePoint:
    """One sample of the shared-memory subsystem state."""

    time_ms: float
    bandwidth_demand_gbps: float
    memory_freq_mhz: int
    used_bytes: float
    active_processors: Tuple[str, ...]


@dataclass
class ExecutionResult:
    """Everything the experiments read off one simulated run.

    ``request_first_start_ms``, ``dropped_requests`` and
    ``cancelled_requests`` are first-class queueing outputs of the
    event engine; results reconstructed from older archives leave them
    empty, in which case first starts are derived from the task
    records on demand.
    """

    records: List[TaskRecord]
    makespan_ms: float
    request_arrival_ms: List[float]
    request_finish_ms: List[float]
    trace: List[TracePoint]
    processor_busy_ms: Dict[str, float]
    memory_pressure_events: int = 0
    request_first_start_ms: List[Optional[float]] = field(
        default_factory=list
    )
    dropped_requests: Tuple[int, ...] = ()
    cancelled_requests: Tuple[int, ...] = ()
    events: List[Event] = field(default_factory=list)
    causality: List[TaskCausality] = field(default_factory=list)
    corun_inflation_ms: Dict[Tuple[str, str], float] = field(
        default_factory=dict
    )

    @property
    def num_requests(self) -> int:
        return len(self.request_finish_ms)

    @property
    def deadline_drops(self) -> int:
        """Requests cancelled because their deadline elapsed unstarted."""
        return len(self.dropped_requests)

    def completed_requests(self) -> List[int]:
        """Request ids that ran to completion (arrival order)."""
        removed = set(self.dropped_requests) | set(self.cancelled_requests)
        return [i for i in range(self.num_requests) if i not in removed]

    @property
    def num_completed(self) -> int:
        """How many requests ran to completion (vs dropped/cancelled)."""
        return len(self.completed_requests())

    @property
    def throughput_per_s(self) -> float:
        """Completed inferences per second (the paper's throughput); 0.0
        when the makespan in seconds is not positive, which a run of a
        few subnormal milliseconds underflows to."""
        seconds = self.makespan_ms / 1e3
        if seconds <= 0:
            return 0.0
        return self.num_completed / seconds

    def first_start_ms(self, request: int) -> Optional[float]:
        """When the request's first slice started; None if it never ran."""
        if self.request_first_start_ms:
            return self.request_first_start_ms[request]
        starts = [r.start_ms for r in self.records if r.request == request]
        return min(starts) if starts else None

    def queueing_delay_ms(self, request: int) -> Optional[float]:
        """Wait between arrival and first execution; None if never ran."""
        start = self.first_start_ms(request)
        if start is None:
            return None
        return start - self.request_arrival_ms[request]

    def queueing_delays_ms(self) -> List[Optional[float]]:
        """Per-request queueing delays (None for never-started drops)."""
        return [self.queueing_delay_ms(i) for i in range(self.num_requests)]

    @property
    def mean_queueing_delay_ms(self) -> Optional[float]:
        """Mean wait over requests that started; None if none ever did.

        The tri-state matters: ``0.0`` means every started request was
        served immediately, ``None`` means nothing started at all (an
        all-dropped run has no queueing behaviour to report).
        """
        delays = [d for d in self.queueing_delays_ms() if d is not None]
        return sum(delays) / len(delays) if delays else None

    def request_latency_ms(self, request: int) -> float:
        """Completion latency of one request, from its arrival."""
        return self.request_finish_ms[request] - self.request_arrival_ms[request]

    def mean_latency_ms(self) -> float:
        completed = self.completed_requests()
        return sum(
            self.request_latency_ms(i) for i in completed
        ) / max(1, len(completed))

    def latency_percentile_ms(self, pct: float) -> float:
        """Interpolated completion-latency percentile across requests.

        Uses the shared linear-interpolation definition
        (:func:`repro.util.percentile` with ``method="linear"``,
        numpy's default): p0 is the fastest completed request, p100 the
        slowest, p50 the median.  Dropped/cancelled requests are
        excluded — they have no completion latency.

        Raises:
            ValueError: when ``pct`` is outside [0, 100] or the run
                completed no requests.
        """
        completed = self.completed_requests()
        if not completed:
            raise ValueError(
                "no completed requests: latency percentile undefined"
            )
        latencies = [self.request_latency_ms(i) for i in completed]
        return percentile(latencies, pct, method="linear")

    @property
    def p50_latency_ms(self) -> float:
        return self.latency_percentile_ms(50.0)

    @property
    def p95_latency_ms(self) -> float:
        return self.latency_percentile_ms(95.0)

    @property
    def p99_latency_ms(self) -> float:
        return self.latency_percentile_ms(99.0)

    def utilization(self, processor: str) -> float:
        """Busy fraction of one processor over the makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.processor_busy_ms.get(processor, 0.0) / self.makespan_ms


# ------------------------------------------------------------ the engine


def _count_work(steps: int, evaluations: int) -> None:
    """Count the simulation work of one run, probes included: the
    objective phase's deterministic layer breakdown.  A resumed run
    counts only the steps it ran itself."""
    if obs.enabled():
        obs.add("engine_steps", steps)
        obs.add("slowdown_evaluations", evaluations)


def _check_clock(now_ms: float) -> None:
    """Reject a run whose clock has left the float range.

    Raises:
        ValueError: when ``now_ms`` is ``inf``: the run's finite solo,
            arrival and fault times add up past the largest float.
    """
    if now_ms == math.inf:
        raise ValueError(
            "the simulated clock overflowed to inf: the run's solo, "
            "arrival and fault times add up past the float range"
        )


def _check_chains(
    soc: SocSpec,
    chains: Sequence[Sequence[ChainTask]],
    slot: Mapping[str, int],
    capacity: float = math.inf,
    probe: bool = False,
) -> None:
    """Reject chains an engine or probe run cannot simulate.

    A probe run (``probe``) also rejects what :func:`check_on_soc` does:
    a slice its coupling matrix would price otherwise than
    :func:`slowdown_fraction`.

    Raises:
        ValueError: on a task whose ``request`` differs from its
            chain's position, whose processor is not in ``slot`` or
            whose ``solo_ms`` is negative, infinite or NaN.
        MemoryError: on a slice whose working set alone exceeds
            ``capacity``.
    """
    for i, chain in enumerate(chains):
        for task in chain:
            if task.request != i:
                raise ValueError(
                    f"chain {i} holds a task of request {task.request}: "
                    "task ids must equal their chain's position"
                )
            if not 0 <= task.solo_ms < math.inf:
                raise ValueError(
                    f"solo_ms must be >= 0 and finite, got {task.solo_ms} "
                    f"in chain {i}"
                )
            if task.proc.name not in slot:
                raise ValueError(
                    f"task processor {task.proc.name!r} not on "
                    f"SoC {soc.name!r}"
                )
            if probe:
                check_on_soc(soc, task.proc, task.workload)
            if task.working_set > capacity:
                raise MemoryError(
                    f"slice of request {task.request} needs "
                    f"{task.working_set / 1e6:.0f} MB alone; capacity "
                    f"is {capacity / 1e6:.0f} MB"
                )


class DiscreteEventEngine:
    """Event-heap simulation of per-request task chains on one SoC.

    The engine is single-use: construct, optionally schedule
    cancellations/preemptions, then :meth:`run` (or drive it
    incrementally with :meth:`step`).  The
    executor entry points (:func:`~repro.runtime.executor.simulate_chains`,
    :func:`~repro.runtime.executor.execute_plan`) forward their engine
    options here, so this is where every option is documented.

    Args:
        soc: The platform (contention coupling, memory capacity, DVFS).
        chains: One ordered task chain per request; tasks run strictly
            in chain order, each on its own processor.
        arrivals: Per-request arrival times in ms, an
            :class:`~repro.runtime.arrivals.ArrivalProcess`, or None
            (closed loop: everything arrives at t=0).
        with_contention: Apply dynamic co-execution slowdown.
        enforce_memory: Enforce Constraint 6 (tasks wait for residency).
        trace: Record :class:`TracePoint` samples at event edges.
        processor_offline_ms: Fault injection — processors stop
            accepting *new* tasks at the given times (a running task
            completes); pending tasks bound for an offline unit fall
            back to the best online processor supporting their slice.
            ``inf`` means never.
        deadline_ms: A scalar (every request) or per-request sequence
            (None entries exempt) of *relative* deadlines: a request
            whose first slice has not started ``deadline_ms`` after its
            arrival is dropped (a ``cancellation`` event with detail
            ``"deadline"``), releasing its pending work.  ``inf`` means
            no deadline.
        record: Feed the observability recorder (span + execution
            metrics).  Simulations that are not executions (the
            streaming planner's accuracy prediction, what-if
            counterfactuals) pass False so ``tasks_executed`` and the
            ``execute`` span describe only real executions.
        keep_events: Keep the processed-event log on the result
            (off by default: most runs never read it and must not
            accumulate event objects).
        track_causality: Record per-task
            :class:`~repro.obs.causality.TaskCausality` rows and the
            co-run inflation matrix, the blame layer's input (on by
            default here, off by default in the executor adapters).
            Pass False when nothing reads them; every simulated time is
            identical either way.

    Raises:
        ValueError: on arrival-length mismatch, a task whose ``request``
            differs from its chain's position, a task whose processor
            is not part of the SoC, a negative, infinite or NaN solo
            time, a negative or NaN deadline, a
            non-finite arrival time, or a fault injected into a
            processor not on the SoC or at a NaN time.
        MemoryError: if a single slice alone exceeds the capacity.
        ValueError: also from :meth:`run` / :meth:`step` when the
            simulated clock overflows to ``inf``.
        RuntimeError: from :meth:`run` / :meth:`step` if the simulation
            wedges — for valid fault-free inputs this cannot happen;
            with faults it signals that a task has no online processor
            able to run it.
    """

    def __init__(
        self,
        soc: SocSpec,
        chains: Sequence[Sequence[ChainTask]],
        arrivals: ArrivalsLike = None,
        with_contention: bool = True,
        enforce_memory: bool = True,
        trace: bool = False,
        processor_offline_ms: Optional[Dict[str, float]] = None,
        deadline_ms: Optional[object] = None,
        record: bool = True,
        keep_events: bool = False,
        track_causality: bool = True,
    ) -> None:
        self._soc = soc
        self._chains = [list(chain) for chain in chains]
        n = len(self._chains)
        self._n = n
        self._arrival_ms = resolve_arrivals(n, arrivals)
        if arrivals is not None:  # the closed loop is all zeros
            for i, t in enumerate(self._arrival_ms):
                if not math.isfinite(t):
                    raise ValueError(
                        f"arrival time of request {i} must be finite, got {t}"
                    )
        self._with_contention = with_contention
        self._enforce_memory = enforce_memory
        self._trace_enabled = trace
        self._record = record
        self._keep_events = keep_events
        # Slot k is soc.processors[k] (see "Ready sets" above).
        self._procs = soc.processors
        self._slot = {p.name: k for k, p in enumerate(self._procs)}
        offline = processor_offline_ms or {}
        self._offline_at = [math.inf] * len(self._procs)
        for proc_name, t_ms in offline.items():
            if proc_name not in self._slot:
                raise ValueError(
                    f"cannot take processor {proc_name!r} offline: not on "
                    f"SoC {soc.name!r}"
                )
            if math.isnan(t_ms):
                raise ValueError(
                    f"offline time of processor {proc_name!r} must not be NaN"
                )
            self._offline_at[self._slot[proc_name]] = t_ms
        self._deadline_ms = self._resolve_deadlines(deadline_ms)

        capacity = soc.memory_capacity_bytes
        _check_chains(
            soc, self._chains, self._slot, capacity if enforce_memory else math.inf
        )
        self._capacity = capacity
        self._governor = MemoryGovernor(soc)

        # --- mutable simulation state (see "Run state" above)
        self._now = 0.0
        self._next_idx = [0] * n
        self._prev_done = [True] * n
        self._arrived = [False] * n
        self._proc_running: List[Optional[ChainTask]] = [None] * len(self._procs)
        # Per slot: the running slice's remaining solo time (0.0 idle).
        self._left_ms = [0.0] * len(self._procs)
        # Per request: its head's first start (None until it starts),
        # and the remaining solo time of a head preempted off its slot.
        self._head_start: List[Optional[float]] = [None] * n
        self._paused_ms = [0.0] * n
        # A task holds an arena exactly when it has started.
        self._request_alloc: Dict[int, float] = {}
        self._used_bytes = 0.0
        self._memory_pressure_events = 0
        self._records: List[TaskRecord] = []
        self._trace_points: List[TracePoint] = []
        self._busy = [0.0] * len(self._procs)
        self._finish: List[float] = [0.0] * n
        self._first_start: List[Optional[float]] = [None] * n
        self._total_tasks = sum(len(c) for c in self._chains)
        self._outstanding = self._total_tasks
        self._completed = 0
        self._dropped: List[int] = []
        self._cancelled: List[int] = []
        self._removed: Set[int] = set()
        # Per slot: the requests whose chain head is ready for it.
        self._ready: List[Set[int]] = [set() for _ in self._procs]
        self._events: List[Event] = []
        self._events_processed = 0
        self._steps = 0
        self._slowdown_evaluations = 0
        self._finished_run = False
        # A head can sit on an offline slot only from the next fault
        # edge on, or once a start or preemption leaves one there (then
        # -inf): the re-routing sweep runs from this time.
        self._sweep_at_ms = min(self._offline_at)
        self._any_offline = False

        self._tracker = (
            CausalityTracker(
                [p.name for p in self._procs],
                self._chains,
                self._ready,
                self._proc_running,
                self._head_start,
                self._next_idx,
                capacity if enforce_memory else math.inf,
            )
            if track_causality
            else None
        )

        # --- the exogenous event heap: (time_ms, seq, kind, payload)
        self._heap: List[Tuple[float, int, str, object]] = []
        self._seq = 0
        for i, arrival in enumerate(self._arrival_ms):
            if arrivals is None:
                # The closed loop: every request has arrived at t=0,
                # before any other event (its arrivals would pop first).
                self._arrive(i)
            else:
                self._push(arrival, ARRIVAL, i)
        for proc_name, t_ms in offline.items():
            self._push(t_ms, RATE_CHANGE, proc_name)
        for i, deadline in enumerate(self._deadline_ms):
            if deadline is not None:
                self._push(
                    self._arrival_ms[i] + deadline, CANCELLATION, (i, "deadline")
                )

    # ------------------------------------------------------ construction

    def _resolve_deadlines(
        self, deadline_ms: Optional[object]
    ) -> List[Optional[float]]:
        if deadline_ms is None:
            return [None] * self._n
        if isinstance(deadline_ms, (int, float)):
            deadlines: List[Optional[float]] = [float(deadline_ms)] * self._n
        else:
            deadlines = [
                None if d is None else float(d)
                for d in deadline_ms  # type: ignore[union-attr]
            ]
            if len(deadlines) != self._n:
                raise ValueError(
                    f"expected {self._n} deadlines, got {len(deadlines)}"
                )
        for d in deadlines:
            # inf is "no deadline"; NaN would never fire nor compare.
            if d is not None and (math.isnan(d) or d < 0):
                raise ValueError(f"deadline must be >= 0 ms, got {d}")
        return deadlines

    def _push(self, time_ms: float, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, kind, payload))

    def _emit(
        self,
        kind: str,
        request: Optional[int] = None,
        processor: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self._events_processed += 1
        if self._keep_events:
            self._events.append(Event(self._now, kind, request, processor, detail))

    # -------------------------------------------------------- public API

    def schedule_cancellation(self, request: int, at_ms: float) -> None:
        """Cancel a request at ``at_ms`` (removes its remaining work).

        A cancellation due before the request arrives takes effect at
        its arrival: the request is withdrawn with zero latency.
        """
        self._check_request(request)
        self._push(at_ms, CANCELLATION, (request, "user"))

    def schedule_preemption(self, request: int, at_ms: float) -> None:
        """Preempt the request's running slice at ``at_ms``.

        The slice keeps its progress and re-enters its processor's
        ready set (FIFO by request id, like any other ready head); a
        no-op when the request has nothing running at that time.
        """
        self._check_request(request)
        self._push(at_ms, PREEMPTION, request)

    def _check_request(self, request: int) -> None:
        if not 0 <= request < self._n:
            raise ValueError(
                f"request {request} out of range [0, {self._n})"
            )

    def run(self) -> ExecutionResult:
        """Run the simulation to completion and build the result."""
        if self._finished_run:
            raise RuntimeError("engine instances are single-use")
        recording = obs.enabled()
        # The span covers exactly the event loop's wall time; the
        # context manager closes it on the RuntimeError raise paths too.
        with (
            obs.span(
                "execute",
                requests=self._n,
                tasks=self._total_tasks,
                contention=self._with_contention,
            )
            if self._record and recording
            else obs.NULL_SPAN
        ) as _span:
            step = self._step
            while self._outstanding > 0:
                step()
            self._finished_run = True
            _check_clock(self._now)
            if recording:
                _count_work(self._steps, self._slowdown_evaluations)
                _span.set(
                    makespan_ms=self._now,
                    memory_pressure=self._memory_pressure_events,
                )
        if self._record and recording:
            obs.add("tasks_executed", self._completed)
            obs.add("engine_events_processed", self._events_processed)
            obs.add("memory_pressure_events", self._memory_pressure_events)
            if self._dropped:
                obs.add("deadline_drops", len(self._dropped))
            obs.set_gauge("last_execution_makespan_ms", self._now)
            for rec in self._records:
                if rec.solo_ms > 0:
                    obs.observe("slice_slowdown", rec.slowdown)
        return self.result()

    def step(self) -> bool:
        """Process one event window; False when the simulation is done."""
        if self._outstanding <= 0:
            return False
        self._step()
        if self._outstanding > 0:
            return True
        _check_clock(self._now)
        return False

    @property
    def event_log(self) -> List[Event]:
        """The processed-event log so far (``keep_events=True`` only).

        Live view, not a copy: streaming consumers (the timeline and
        SLO folds) read ``event_log[cursor:]`` between ``step()`` calls
        instead of re-snapshotting the whole result each window.
        """
        return self._events

    def result(self) -> ExecutionResult:
        """Snapshot the (possibly still running) simulation state."""
        tracker = self._tracker
        return ExecutionResult(
            records=list(self._records),
            makespan_ms=self._now,
            request_arrival_ms=list(self._arrival_ms),
            request_finish_ms=list(self._finish),
            trace=list(self._trace_points),
            processor_busy_ms=dict(zip(self._slot, self._busy)),
            memory_pressure_events=self._memory_pressure_events,
            request_first_start_ms=list(self._first_start),
            dropped_requests=tuple(self._dropped),
            cancelled_requests=tuple(self._cancelled),
            events=list(self._events),
            causality=list(tracker.rows) if tracker else [],
            corun_inflation_ms=tracker.corun_inflation_ms() if tracker else {},
        )

    # ---------------------------------------------------- event handlers

    def _pop_due_events(self) -> None:
        """Fire every pending event with ``time <= now + _EPS`` while
        work is outstanding.

        ``now`` advances to each popped event's timestamp (it can only
        move forward, by at most ``_EPS``), which is the fix for the
        legacy off-by-epsilon arrival scan: a slice never starts before
        its request's arrival timestamp, so queueing delays are
        non-negative by construction.  Once a cancellation drains the
        last work the run has ended at that instant: a later event
        within ``_EPS`` would move the makespan past every slice.
        """
        while (
            self._outstanding > 0
            and self._heap
            and self._heap[0][0] <= self._now + _EPS
        ):
            time_ms, _seq, kind, payload = heapq.heappop(self._heap)
            if time_ms > self._now:
                self._now = time_ms
            if kind == ARRIVAL:
                self._arrive(int(payload))  # type: ignore[arg-type]
            elif kind == RATE_CHANGE:
                self._emit(RATE_CHANGE, None, str(payload), "offline")
            elif kind == CANCELLATION:
                request, reason = payload  # type: ignore[misc]
                self._fire_cancellation(int(request), str(reason))
            elif kind == PREEMPTION:
                self._fire_preemption(int(payload))  # type: ignore[arg-type]

    def _arrive(self, request: int) -> None:
        # The first slice becomes ready at the arrival timestamp (not
        # the possibly epsilon-later pop).  Cancellations wait for the
        # arrival, so nothing is removed yet.
        self._arrived[request] = True
        chain = self._chains[request]
        if chain:
            self._ready[self._slot[chain[0].proc.name]].add(request)
            if self._tracker is not None:
                self._tracker.ready(request, 0, self._arrival_ms[request])
        self._emit(ARRIVAL, request)

    def _running_slot(self, request: int) -> Optional[int]:
        for k, task in enumerate(self._proc_running):
            if task is not None and task.request == request:
                return k
        return None

    def _fire_cancellation(self, request: int, reason: str) -> None:
        if request in self._removed:
            return
        if not self._arrived[request]:
            # Nothing has entered the system yet: withdraw the request
            # the instant it arrives (its arrival pops first — equal
            # times order by push sequence).
            self._push(self._arrival_ms[request], CANCELLATION, (request, reason))
            return
        chain = self._chains[request]
        if self._next_idx[request] >= len(chain) and self._prev_done[request]:
            return  # already finished: nothing to cancel
        if reason == "deadline" and self._first_start[request] is not None:
            return  # started in time: the deadline drop does not fire
        running_slot = self._running_slot(request)
        running_proc = None if running_slot is None else self._procs[running_slot].name
        # The open slice's wait/run components sum to [arrival, cancel].
        # It is the running slice, else the (maybe preempted) head.
        ended = None
        if self._tracker is not None:
            if running_slot is None:
                left_ms, position = self._paused_ms[request], self._next_idx[request]
            else:
                left_ms, position = self._left_ms[running_slot], self._next_idx[request] - 1
            ended = self._tracker.finish(chain[position], self._now, left_ms)
        pending = len(chain) - self._next_idx[request]
        if pending:
            head = chain[self._next_idx[request]]
            self._ready[self._slot[head.proc.name]].discard(request)
        drained = pending + (1 if running_slot is not None else 0)
        if running_slot is not None:
            self._proc_running[running_slot] = None
            self._left_ms[running_slot] = 0.0
            if self._tracker is not None:
                self._tracker.freed(running_slot, ended)
        self._next_idx[request] = len(chain)
        self._prev_done[request] = True
        released = self._request_alloc.pop(request, 0.0)
        self._used_bytes -= released
        if self._tracker is not None and released > 0.0:
            self._tracker.released(ended)
        self._outstanding -= drained
        self._removed.add(request)
        self._finish[request] = self._now
        if reason == "deadline":
            self._dropped.append(request)
        else:
            self._cancelled.append(request)
        self._emit(CANCELLATION, request, running_proc, reason)

    def _fire_preemption(self, request: int) -> None:
        k = self._running_slot(request)
        if k is None:
            return
        self._proc_running[k] = None
        proc_name = self._procs[k].name
        # Roll the chain head back, keeping its progress, and file it
        # under its slot again; the arena stays allocated (the slice
        # will resume).
        self._paused_ms[request] = self._left_ms[k]
        self._left_ms[k] = 0.0
        self._next_idx[request] -= 1
        self._prev_done[request] = True
        self._ready[k].add(request)
        if self._any_offline and self._is_offline(k):
            self._sweep_at_ms = -math.inf  # the resumed head must move
        if self._tracker is not None:
            # The vacating slice has no finish yet, so a start it
            # enables cannot reference a completed record.
            self._tracker.freed(k, None)
        self._emit(PREEMPTION, request, proc_name)

    # --------------------------------------------------- scheduling core

    def _is_offline(self, slot: int) -> bool:
        return self._now >= self._offline_at[slot] - _EPS

    def _reassign_offline_heads(self) -> None:
        """Fall back pending tasks whose processor has gone offline.

        Reassignment is earliest-finish-time greedy across the online
        units, seeded with each unit's current backlog, so a burst of
        displaced work spreads over the remaining silicon instead of
        piling onto the single fastest survivor.  A re-routed head is
        replaced in the engine's own chains.
        """
        backlog = self._left_ms[:]
        for i in range(self._n):
            idx = self._next_idx[i]
            chain = self._chains[i]
            if idx >= len(chain):
                continue
            task = chain[idx]
            # A head whose predecessor runs has not started; the
            # request's open slice is that predecessor.
            started = self._prev_done[i] and self._head_start[i] is not None
            slot = self._slot[task.proc.name]
            if not self._is_offline(slot):
                backlog[slot] += self._paused_ms[i] if started else task.solo_ms
                continue
            candidates = []
            for k, proc in enumerate(self._procs):
                if self._is_offline(k):
                    continue
                if task.workload is not None:
                    solo = task.workload.profile.exec_ms(
                        proc, task.workload.start, task.workload.end
                    )
                    if solo == float("inf"):
                        continue
                else:
                    solo = task.solo_ms  # no profile: keep the estimate
                candidates.append((backlog[k] + solo, solo, k))
            if not candidates:
                raise RuntimeError(
                    f"request {task.request}: no online processor can run "
                    f"its slice after {task.proc.name!r} went offline"
                )
            _, solo, k = min(candidates, key=lambda c: c[0])
            proc = self._procs[k]
            backlog[k] += solo
            if i in self._ready[slot]:
                self._ready[slot].remove(i)
                self._ready[k].add(i)
            workload = None if task.workload is None else replace(task.workload, proc=proc)
            chain[idx] = task._replace(proc=proc, solo_ms=solo, workload=workload)
            if started:
                self._paused_ms[i] = solo

    def _start_task(self, task: ChainTask, slot: int, forced: bool = False) -> None:
        request = task.request
        proc_name = self._procs[slot].name
        if self._head_start[request] is None:
            # A first start allocates the slice's arena; a resumed slice
            # keeps its start, its arena and its remaining time.
            self._head_start[request] = self._now
            self._left_ms[slot] = task.solo_ms
            if self._tracker is not None:
                self._tracker.start(request, slot, self._now, forced)
            self._used_bytes += task.working_set
            self._request_alloc[request] = (
                self._request_alloc.get(request, 0.0) + task.working_set
            )
        else:
            self._left_ms[slot] = self._paused_ms[request]
        self._proc_running[slot] = task
        if self._first_start[request] is None:
            self._first_start[request] = self._now
        self._ready[slot].remove(request)
        self._next_idx[request] += 1
        self._prev_done[request] = False
        if self._any_offline:
            chain = self._chains[request]
            head = self._next_idx[request]
            if head < len(chain) and self._is_offline(
                self._slot[chain[head].proc.name]
            ):
                self._sweep_at_ms = -math.inf  # the new head must move
        self._emit(TASK_READY, request, proc_name)

    def _record_trace(self) -> None:
        """Sample the memory subsystem (callers check ``trace`` is on)."""
        demands = []
        names = []
        for proc, task in zip(self._procs, self._proc_running):
            if task is None or task.workload is None:
                continue
            names.append(proc.name)
            demands.append(
                MemoryDemand(
                    processor=proc.kind,
                    bandwidth_gbps=task.workload.profile.traffic_rate_gbps(
                        task.workload.proc,
                        task.workload.start,
                        task.workload.end,
                    ),
                    footprint_bytes=task.working_set,
                )
            )
        self._trace_points.append(
            TracePoint(
                time_ms=self._now,
                bandwidth_demand_gbps=sum(d.bandwidth_gbps for d in demands),
                memory_freq_mhz=self._governor.select_frequency(demands),
                used_bytes=self._used_bytes,
                active_processors=tuple(names),
            )
        )

    # ------------------------------------------------------ the main step

    def _step(self) -> None:
        self._steps += 1
        heap = self._heap
        if heap and heap[0][0] <= self._now + _EPS:
            self._pop_due_events()
        if self._outstanding <= 0:
            return  # a cancellation drained the remaining work
        if self._now >= self._sweep_at_ms - _EPS:
            # A slot went offline, or a head landed on an offline one;
            # or the clock reached inf, where every slot reads offline.
            _check_clock(self._now)
            self._any_offline = True
            self._sweep_at_ms = min(
                (t for t in self._offline_at if self._now < t - _EPS),
                default=math.inf,
            )
            self._reassign_offline_heads()
        # Each idle online slot starts its ready head of the lowest
        # request (FIFO by id) unless admitting it would exceed the
        # capacity; then the head waits for residency to drain.  The
        # running set is the (slot, task) pairs, in slot order.
        proc_running = self._proc_running
        ready = self._ready
        chains = self._chains
        next_idx = self._next_idx
        head_start = self._head_start
        any_offline = self._any_offline
        enforce_memory = self._enforce_memory
        blocked_slot = -1
        running = []
        for k, task in enumerate(proc_running):
            if task is None:
                if not ready[k] or (any_offline and self._is_offline(k)):
                    continue
                request = min(ready[k])
                task = chains[request][next_idx[request]]
                if enforce_memory:
                    admit = task.working_set if head_start[request] is None else 0.0
                    if self._used_bytes + admit > self._capacity:
                        if blocked_slot < 0:
                            blocked_slot = k
                        continue
                self._start_task(task, k)
            running.append((k, task))
        if not running and blocked_slot >= 0:
            # Every ready head waits for memory another request holds
            # (hold-until-completion residency can deadlock).  A real
            # device pages in this regime: force the first one to start
            # and count a memory-pressure event.
            request = min(ready[blocked_slot])
            task = chains[request][next_idx[request]]
            self._start_task(task, blocked_slot, forced=True)
            self._memory_pressure_events += 1
            running = [(blocked_slot, task)]
        if self._trace_enabled:
            self._record_trace()
        if not running:
            if not heap:
                raise RuntimeError(
                    "simulation wedged: no running task and no pending event"
                )
            self._now = heap[0][0]
            return

        # Rate factors 1 + slowdown, aligned with ``running``, and the
        # step to the earliest departure at those rates.
        now = self._now
        left = self._left_ms
        contention = self._with_contention
        rates: List[float] = []
        dt = math.inf
        evaluations = 0
        for k, task in running:
            rate = 1.0
            workload = task.workload
            if contention and workload is not None:
                others = [
                    co.workload
                    for c, co in running
                    if c != k and co.workload is not None
                ]
                rate = 1.0 + slowdown_fraction(self._soc, workload, others)
                evaluations += 1
            rates.append(rate)
            task_dt = left[k] * rate
            if task_dt < dt:  # min() and max() without the calls
                dt = task_dt
        self._slowdown_evaluations += evaluations
        if heap and heap[0][0] > now + _EPS:
            dt = min(dt, heap[0][0] - now)
        if dt < _EPS:
            dt = _EPS

        tracker = self._tracker
        if tracker is not None:
            tracker.advance(dt, running, rates, self._used_bytes)

        busy = self._busy
        for (k, _), rate in zip(running, rates):
            left[k] -= dt / rate
            busy[k] += dt
        now += dt
        self._now = now

        for k, task in running:
            if left[k] > _DEPARTURE_MS:
                continue
            request = task.request
            proc_name = self._procs[k].name
            proc_running[k] = None
            left[k] = 0.0
            self._prev_done[request] = True
            self._finish[request] = now
            self._completed += 1
            self._outstanding -= 1
            chain = chains[request]
            successor = next_idx[request]
            if successor < len(chain):
                # Its request is arrived and not removed: it was running.
                ready[self._slot[chain[successor].proc.name]].add(request)
            finished = None
            if tracker is not None:
                finished = tracker.finish(task, now)
                tracker.freed(k, finished)
                if successor < len(chain):
                    # The successor head becomes ready at this exact
                    # departure instant (the tiling invariant).
                    tracker.ready(request, successor, now)
            if successor >= len(chain):
                # Last stage done: release the request's arenas.
                released = self._request_alloc.pop(request, 0.0)
                self._used_bytes -= released
                if tracker is not None and released > 0.0:
                    tracker.released(finished)
            workload = task.workload
            self._records.append(
                TaskRecord(
                    request,
                    task.stage,
                    proc_name,
                    head_start[request],
                    now,
                    task.solo_ms,
                    workload.traffic_bytes() if workload is not None else 0.0,
                )
            )
            head_start[request] = None
            self._emit(DEPARTURE, request, proc_name)
        if self._trace_enabled:
            self._record_trace()


# ------------------------------------------------------------ probe runs


class ProbeRun:
    """A closed-loop, contention-only run that answers only its makespan.

    The planner's objective asks only "what is this plan's makespan,
    and does it beat the incumbent?", thousands of times per plan.  A
    probe run answers that for the run :class:`DiscreteEventEngine`
    makes of ``chains`` with every request arriving at t=0, no memory
    enforcement, deadlines, faults, cancellations, preemptions,
    causality, trace or event log.  Those options are not parameters
    here, so no probe run can carry them.

    Its loop advances only what the makespan and the bound read: the
    ready sets, ``next_idx`` and ``prev_done``, each running slice's
    remaining solo time, ``now``, the completed and outstanding counts,
    and each slot's started solo time, all in locals.  A slot's ready
    set is an int bitmask over request ids (see :class:`Checkpoint`):
    the FIFO-by-id pick is its lowest set bit, and a checkpoint copies
    the list of masks with one slice.  Each step is
    :meth:`DiscreteEventEngine._step`'s arithmetic in the same order,
    with the same ``engine_steps`` and ``slowdown_evaluations`` counts,
    so it returns the same makespan bit for bit.  The step makes no
    call: :func:`slowdown_fraction` is inlined, its float operations in
    its order, over the SoC's :func:`coupling_matrix`, built once per
    run (resumed runs share it).  It keeps no task records, arenas,
    busy, finish or first-start times.  A run starts from a
    :class:`Checkpoint`, copies it and never writes it, so any method
    may be called any number of times.  Checkpoint 0 files each
    request's first task under its processor's ready set at t=0, which
    is the engine's state once the closed loop's arrivals have popped.

    * :meth:`bounded_ms` stops as soon as the run provably ends at or
      after ``stop_at_ms`` and returns ``inf``.  The bound is ``now +
      max over slots of (remaining solo time of the running slice +
      solo_ms of the slot's unstarted slices)``: every rate factor
      ``1 + slowdown`` is >= 1 and a slot runs one slice at a time.  A
      slot's unstarted work is its total solo time over the chains less
      the solo time started so far, so the bound walks no task.  A
      departure fires at a remaining time ``<= 10 * _EPS``, so the
      bound gives back ``10 * _EPS`` per outstanding task plus
      ``PRUNE_MARGIN_MS``, which also absorbs the rounding of the
      caller's threshold.
    * :meth:`checkpointed` runs to completion and keeps a
      :class:`Checkpoint` of the loop's state before every step in
      :attr:`checkpoints`.
    * :meth:`resumed` is a run that starts from one of those
      checkpoints, optionally with some requests' chains replaced from
      a position on.  It shares every other chain and task with this
      run; the per-slot totals move by the replaced tasks' solo times.
      The resumed run is exact when nothing read the replaced tasks
      before that checkpoint.  Ready sets hold request ids and FIFO
      picks by id, so a chain position is first read when it *starts*
      (same processor) or, when its processor changes or the stage
      appears or vanishes, when it is *exposed* (its predecessor
      departs).  :class:`Checkpoint` progress codes locate both steps.
      Checkpoint 0 always serves: a first position is exposed there but
      not yet read, and a request whose exposed head moves to another
      processor is re-filed under that processor's ready set, which is
      a new run's initial state.  A resumed run that runs checkpointed
      inherits this run's checkpoints before its start; they hold only
      started work, which the two runs share.
    * :meth:`moved_ms` is the bounded run :meth:`resumed` would build
      with one request's tail replaced, run without building it.  Both
      replace a tail through one splice, :meth:`_splice`, which holds
      the re-filing rule above.

    Args:
        soc: The platform (contention coupling).
        chains: One ordered task chain per request, as for the engine.

    Raises:
        ValueError: on a task whose ``request`` differs from its chain's
            position, whose processor is not part of the SoC or whose
            solo time is negative, infinite or NaN, or that
            :func:`check_on_soc` rejects (the one case where the matrix
            and :func:`slowdown_fraction` could read different
            couplings).
    """

    __slots__ = (
        "_slot",
        "_coupling",
        "_chains",
        "_slot_ms",
        "_start",
        "_steps",
        "_inherited",
        "checkpoints",
    )

    def __init__(
        self,
        soc: SocSpec,
        chains: Sequence[Sequence[ChainTask]],
    ) -> None:
        procs = soc.processors
        slot = {p.name: k for k, p in enumerate(procs)}
        self._chains = [list(chain) for chain in chains]
        _check_chains(soc, self._chains, slot, probe=True)
        slot_ms = [0.0 for _ in procs]
        ready = [0 for _ in procs]
        for i, chain in enumerate(self._chains):
            for task in chain:
                slot_ms[slot[task.proc.name]] += task.solo_ms
            if chain:
                ready[slot[chain[0].proc.name]] |= 1 << i
        n = len(self._chains)
        self._slot = slot
        self._coupling = coupling_matrix(soc)
        # Per slot: the solo time of every task of the chains.
        self._slot_ms = slot_ms
        self._start = Checkpoint(
            0.0, [0] * n, [True] * n, (None,) * len(procs), 0, ready, [0.0] * len(procs)
        )
        # The run starts after ``_steps`` steps; a checkpointed run
        # keeps ``_inherited[:_steps]`` as its first checkpoints.
        self._steps = 0
        self._inherited: Sequence[Checkpoint] = ()
        #: The checkpoints of :meth:`checkpointed` (empty before it).
        self.checkpoints: List[Checkpoint] = []

    def bounded_ms(self, stop_at_ms: float = math.inf) -> float:
        """The run's makespan, or ``inf`` once it provably reaches ``stop_at_ms``.

        Before every step it checks the lower bound described above;
        when the bound minus its margin reaches ``stop_at_ms`` the run
        stops and returns ``inf``, so a caller that keeps only makespans
        below ``stop_at_ms`` decides exactly as it would on the full
        run.  ``inf`` never stops.
        """
        return self._loop(self._chains, self._slot_ms, self._start, stop_at_ms, None)

    def checkpointed(self) -> float:
        """Run to completion keeping a :class:`Checkpoint` before every step.

        ``checkpoints[j]`` is the state after ``j`` steps; the last one
        is the finished run.  A resumed run's first checkpoints are the
        ones it inherited.

        Returns:
            The makespan.
        """
        checkpoints = list(self._inherited[: self._steps])
        makespan_ms = self._loop(
            self._chains, self._slot_ms, self._start, math.inf, checkpoints
        )
        self.checkpoints = checkpoints
        self._inherited = checkpoints  # hold no parent's checkpoints alive
        return makespan_ms

    def resumed(
        self,
        index: int,
        tails: Mapping[int, Tuple[int, Sequence[ChainTask]]],
    ) -> "ProbeRun":
        """The run from ``checkpoints[index]`` with some chains' tails replaced.

        ``tails`` maps a request to ``(position, tasks)``: its chain
        from ``position`` on is replaced by ``tasks`` (unstarted tasks
        of that request).  A request whose replaced position is its
        exposed head is re-filed under the ready set of its new head's
        processor.  The new run simulates exactly what a fresh run over
        the replaced chains would, provided nothing read a replaced
        position before the checkpoint (see above for when that holds).
        Only the tailed requests' chains, the per-slot totals and, when
        a head is re-filed, the ready sets are new; everything else is
        shared, and neither run writes to it.

        Raises:
            ValueError: when this run has no checkpoints, ``index`` is
                not one of them, or a tail starts at a position that has
                already started.  Tail tasks are not checked again: their
                builder, :func:`~repro.runtime.executor._probe_tail`,
                checks each once, as the constructor checks its chains.
        """
        start = self._checkpoint(index)
        chains = self._chains
        slot_ms = self._slot_ms
        if tails:
            chains = chains[:]
            slot_ms = slot_ms[:]
            for i, (position, tasks) in tails.items():
                start = self._splice(index, start, chains, slot_ms, i, position, tasks)
        run = ProbeRun.__new__(ProbeRun)
        run._slot = self._slot
        run._coupling = self._coupling
        run._chains = chains
        run._slot_ms = slot_ms
        run._start = start
        run._steps = index
        run._inherited = self.checkpoints
        run.checkpoints = []
        return run

    def moved_ms(
        self,
        index: int,
        request: int,
        position: int,
        tasks: Sequence[ChainTask],
        stop_at_ms: float = math.inf,
    ) -> float:
        """``resumed(index, {request: (position, tasks)}).bounded_ms(stop_at_ms)``.

        The same run and value, without building the resumed
        :class:`ProbeRun` or its tails mapping: the planner's move
        probes call this thousands of times per plan, and most stop at
        the bound after a few steps.

        Raises:
            ValueError: as :meth:`resumed` does.
        """
        start = self._checkpoint(index)
        chains = self._chains[:]
        slot_ms = self._slot_ms[:]
        start = self._splice(index, start, chains, slot_ms, request, position, tasks)
        return self._loop(chains, slot_ms, start, stop_at_ms, None)

    def _checkpoint(self, index: int) -> Checkpoint:
        """``checkpoints[index]``, the start of a run resumed there."""
        checkpoints = self.checkpoints
        if not 0 <= index < len(checkpoints):
            if not checkpoints:
                raise ValueError("resumed() needs a checkpointed() run")
            raise ValueError(
                f"checkpoint index {index} out of range [0, {len(checkpoints)})"
            )
        return checkpoints[index]

    def _splice(
        self,
        index: int,
        start: Checkpoint,
        chains: List[List[ChainTask]],
        slot_ms: List[float],
        request: int,
        position: int,
        tasks: Sequence[ChainTask],
    ) -> Checkpoint:
        """Replace ``request``'s chain from ``position`` on by ``tasks``.

        ``chains`` and ``slot_ms`` are the caller's copies of this run's
        and change in place; ``start`` is checkpoint ``index`` or a copy
        of it.  Returns ``start``, or a copy with new ready masks when
        the replaced position is the exposed head and its processor
        changed: the request is then re-filed under its new head's slot,
        where a new run would file it.
        """
        head = start.next_idx[request]
        if position < head:
            raise ValueError(
                f"request {request}: position {position} started before "
                f"checkpoint {index}"
            )
        slot_of = self._slot
        old = chains[request]
        new = old[:position]
        new.extend(tasks)
        chains[request] = new
        for task in old[position:]:
            slot_ms[slot_of[task.proc.name]] -= task.solo_ms
        for task in tasks:
            slot_ms[slot_of[task.proc.name]] += task.solo_ms
        if position == head and start.prev_done[request]:
            old_slot = slot_of[old[head].proc.name] if head < len(old) else None
            new_slot = slot_of[new[head].proc.name] if head < len(new) else None
            if old_slot != new_slot:
                ready = start.ready[:]
                bit = 1 << request
                if old_slot is not None:
                    ready[old_slot] &= ~bit
                if new_slot is not None:
                    ready[new_slot] |= bit
                start = start._replace(ready=ready)
        return start


    def _loop(
        self,
        chains: Sequence[Sequence[ChainTask]],
        slot_ms: Sequence[float],
        start: Checkpoint,
        stop_at_ms: float,
        checkpoints: Optional[List[Checkpoint]],
    ) -> float:
        """The loop every probe simulation runs.

        It steps :meth:`DiscreteEventEngine._step`'s arithmetic over
        ``chains``, whose per-slot solo totals are ``slot_ms``, from
        ``start``, on only the state a makespan and the bound read, all
        of it in locals.  With ``checkpoints`` it appends a
        :class:`Checkpoint` before every step and after the last.

        Returns:
            The makespan, or ``inf`` when the bound stopped the run.
        """
        coupling = self._coupling
        exp = math.exp
        slot_of = self._slot
        now = start.now_ms
        next_idx = start.next_idx[:]
        prev_done = start.prev_done[:]
        ready = start.ready[:]
        # Per slot: the running task and its remaining solo time (0.0
        # on an idle slot), and the solo time of the started tasks.
        running = [None if entry is None else entry[0] for entry in start.running]
        left_ms = [0.0 if entry is None else entry[1] for entry in start.running]
        started_ms = start.started_ms[:]
        slots = range(len(running))
        completed = start.completed
        outstanding = sum(map(len, chains)) - completed
        bounded = stop_at_ms < math.inf
        steps = 0
        evaluations = 0
        makespan_ms = math.inf
        while True:
            if checkpoints is not None:
                checkpoints.append(
                    Checkpoint(
                        now,
                        next_idx[:],
                        prev_done[:],
                        tuple(
                            None if task is None else (task, task_ms)
                            for task, task_ms in zip(running, left_ms)
                        ),
                        completed,
                        ready[:],
                        started_ms[:],
                    )
                )
            if outstanding <= 0:
                makespan_ms = now
                break
            if bounded:
                # The bound of the class docstring, less its margin.
                work_ms = 0.0
                for total_ms, done_ms, task_ms in zip(slot_ms, started_ms, left_ms):
                    task_ms += total_ms - done_ms
                    if task_ms > work_ms:
                        work_ms = task_ms
                slack_ms = PRUNE_MARGIN_MS + _DEPARTURE_MS * outstanding
                if now + work_ms - slack_ms >= stop_at_ms:
                    break
            steps += 1
            # _step's start pass with no memory gate and no offline
            # slot; it lists each busy slot with its running slice's
            # workload.  A probe run preempts nothing, so every ready
            # head is unstarted.  FIFO by id takes the lowest set bit.
            busy = []
            for k in slots:
                task = running[k]
                if task is None:
                    mask = ready[k]
                    if not mask:
                        continue
                    low = mask & -mask
                    ready[k] = mask ^ low
                    request = low.bit_length() - 1
                    idx = next_idx[request]
                    task = running[k] = chains[request][idx]
                    left_ms[k] = task.solo_ms
                    started_ms[k] += task.solo_ms
                    next_idx[request] = idx + 1
                    prev_done[request] = False
                busy.append((k, task.workload))
            if not busy:
                raise RuntimeError(
                    "simulation wedged: no running task and no pending event"
                )
            # _step's rates and step to the earliest departure, with
            # slowdown_fraction inlined: the same float operations in
            # the same order, the coupling read from the slot matrix.
            rates: List[float] = []
            dt = math.inf
            for k, workload in busy:
                rate = 1.0
                if workload is not None:
                    row = coupling[k]
                    pressure = 0.0
                    for c, co in busy:
                        if c != k and co is not None:
                            pressure += row[c] * co._intensity
                    if pressure > 0.0:
                        exponent = pressure * workload._sensitivity
                        rate = 1.0 + MAX_SLOWDOWN * (1.0 - exp(-exponent))
                    evaluations += 1
                rates.append(rate)
                task_dt = left_ms[k] * rate
                if task_dt < dt:  # min() and max() without the calls
                    dt = task_dt
            if dt < _EPS:
                dt = _EPS
            for (k, _), rate in zip(busy, rates):
                left_ms[k] -= dt / rate
            now += dt
            for k, _ in busy:
                if left_ms[k] <= _DEPARTURE_MS:
                    request = running[k].request  # type: ignore[union-attr]
                    running[k] = None
                    left_ms[k] = 0.0
                    prev_done[request] = True
                    completed += 1
                    outstanding -= 1
                    chain = chains[request]
                    idx = next_idx[request]
                    if idx < len(chain):
                        ready[slot_of[chain[idx].proc.name]] |= 1 << request
        _count_work(steps, evaluations)
        return makespan_ms

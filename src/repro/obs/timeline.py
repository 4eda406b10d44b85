"""Streaming timelines: fold the engine's event log into time-series.

PR 8's :class:`~repro.runtime.engine.DiscreteEventEngine` emits a full
exogenous-event log (arrival / task_ready / departure / preemption /
cancellation / rate_change) but every latency and queueing number in the
repo is still computed *post hoc* from a finished ``ExecutionResult``.
This module is the live consumer: a :class:`TimelineAggregator` folds
the event stream — incrementally, as ``step()`` produces it — into the
derived time-series a serving front-end watches:

* per-processor **busy/idle utilization** (busy time integrates exactly
  to the engine's ``processor_busy_ms`` accounting — a test pins this);
* instantaneous and time-averaged **queue depth** (arrived, unfinished,
  not currently running) and in-system occupancy ``N(t)``;
* **backlog age** — how stale the oldest waiting request is;
* **throughput**, **completion-latency percentiles** (via the mergeable
  :class:`~repro.obs.sketch.QuantileSketch`) and the **inter-arrival
  coefficient of variation**.

Aggregation is windowed: tumbling windows of ``window_ms`` close as the
stream crosses each boundary, emitting one typed :class:`WindowStats`
row per window (the JSONL/trace/dashboard record; sliding multi-window
views — e.g. SLO burn rates — are built one layer up by folding trailing
``WindowStats`` rows, see :mod:`repro.obs.slo`).  One
:class:`WindowClock` type keeps the windows of this fold and of
:class:`~repro.obs.slo.SloEvaluator`, so the two close the same windows
at the same instants.  A window closes about once per few dozen events
of an open-loop run, so an event tests its time against the clock's
cached boundary and only one that crosses it runs the closing loop; the
waiting count is kept as events change it, not recounted per event.

As a self-check the aggregator verifies **Little's law**: the
time-average occupancy ``L`` must equal arrival rate ``λ`` times mean
sojourn ``W``.  Over a complete horizon this is an exact identity
(both sides equal ``Σ sojourn / T``), so a violation beyond float
tolerance means the fold itself dropped or double-counted state — it
emits a typed :class:`~repro.obs.events.TimelineDiagnostic` through the
provenance log.

Like the rest of ``repro.obs`` this module is a data-only leaf: events
are duck-typed (anything with ``time_ms``/``kind``/``request``/
``processor``/``detail``), so nothing here imports ``runtime``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from .events import TimelineDiagnostic
from .recorder import emit, enabled
from .sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps obs a leaf
    from ..runtime.engine import Event

#: Relative tolerance of the Little's-law identity check.  The two
#: sides are the same sum accumulated in different orders, so only
#: float rounding separates them on a correct fold.
LITTLES_LAW_TOLERANCE_FRAC = 1e-6


@dataclass(frozen=True)
class WindowStats:
    """One tumbling window's derived time-series row.

    Attributes:
        window: Window index (0-based).
        start_ms: Inclusive window start on the simulated clock.
        end_ms: Exclusive window end (the close boundary; the final
            partial window closes at the stream's last timestamp).
        arrivals: Requests that arrived inside the window.
        completions: Requests whose final stage departed inside it.
        drops: Deadline drops (cancellations with detail ``deadline``).
        cancellations: Non-deadline cancellations.
        utilization_frac: Busy fraction per processor over the window.
        mean_queue_depth: Time-averaged waiting-request count.
        queue_depth_end: Instantaneous waiting count at the boundary.
        mean_in_system: Time-averaged in-system occupancy (Little's L).
        backlog_age_ms: Age of the oldest in-system request at the
            boundary; None when the system is empty.
        throughput_per_s: Completions per second of window span.
        interarrival_cv: Coefficient of variation of the inter-arrival
            gaps seen so far (cumulative; None until two gaps exist —
            1.0 is Poisson, 0.0 periodic).
        p50_ms / p95_ms / p99_ms: Completion-latency percentiles of the
            window's completions (sketch estimates; None when the
            window completed nothing).
    """

    window: int
    start_ms: float
    end_ms: float
    arrivals: int
    completions: int
    drops: int
    cancellations: int
    utilization_frac: Dict[str, float]
    mean_queue_depth: float
    queue_depth_end: int
    mean_in_system: float
    backlog_age_ms: Optional[float]
    throughput_per_s: float
    interarrival_cv: Optional[float]
    p50_ms: Optional[float]
    p95_ms: Optional[float]
    p99_ms: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "drops": self.drops,
            "cancellations": self.cancellations,
            "utilization_frac": dict(sorted(self.utilization_frac.items())),
            "mean_queue_depth": self.mean_queue_depth,
            "queue_depth_end": self.queue_depth_end,
            "mean_in_system": self.mean_in_system,
            "backlog_age_ms": self.backlog_age_ms,
            "throughput_per_s": self.throughput_per_s,
            "interarrival_cv": self.interarrival_cv,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
        }


@dataclass(frozen=True)
class LittlesLawCheck:
    """The full-horizon ``L = λW`` self-check result.

    ``observed_l`` is the folded time-average occupancy ``∫N(t)dt / T``;
    ``expected_l`` is ``λW`` computed from per-request sojourns (exited
    requests use their exit time, still-in-system requests the horizon
    end).  On a correct fold the two are the same sum.
    """

    observed_l: float
    expected_l: float
    arrival_rate_per_ms: float
    mean_sojourn_ms: float
    relative_gap_frac: float
    tolerance_frac: float
    ok: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "observed_l": self.observed_l,
            "expected_l": self.expected_l,
            "arrival_rate_per_ms": self.arrival_rate_per_ms,
            "mean_sojourn_ms": self.mean_sojourn_ms,
            "relative_gap_frac": self.relative_gap_frac,
            "tolerance_frac": self.tolerance_frac,
            "ok": self.ok,
        }


class WindowClock:
    """The tumbling windows of a fold over the simulated clock.

    Window ``index`` spans ``[start_ms, end_ms)``, where ``end_ms`` is
    ``start_ms + window_ms``, computed once when the window opens: an
    event at or past ``end_ms`` crosses the boundary and closes the
    window, any earlier one does not.  Both the timeline and the SLO
    fold keep one, so they close the same ``(index, end_ms)`` sequence.

    Raises:
        ValueError: on a non-finite or non-positive window.
    """

    __slots__ = ("window_ms", "index", "start_ms", "end_ms")

    def __init__(self, window_ms: float) -> None:
        if not (math.isfinite(window_ms) and window_ms > 0):
            raise ValueError(f"window must be finite and > 0 ms, got {window_ms}")
        self.window_ms = float(window_ms)
        self.index = 0
        self.start_ms = 0.0
        self.end_ms = self.window_ms

    def close(self, end_ms: float) -> None:
        """Close the current window at ``end_ms`` and open the next there."""
        self.index += 1
        self.start_ms = end_ms
        self.end_ms = end_ms + self.window_ms

    def ends_partial(self, end_ms: float, closed_any: bool) -> bool:
        """Whether a fold finishing at ``end_ms`` closes a last, partial
        window: one that has a positive span, or the only one when the
        finish closed no full window."""
        return end_ms > self.start_ms + 1e-12 or not closed_any


class TimelineAggregator:
    """Fold an engine event stream into windowed time-series rows.

    Feed every processed event (in stream order) to :meth:`observe`;
    each call returns the :class:`WindowStats` rows for any windows the
    stream just crossed.  Call :meth:`finish` once the run is done to
    close the final partial window.

    Args:
        processors: Processor names of the SoC (the utilization keys).
        stages_per_request: Chain length per request — the fold needs
            to know which departure is a request's *last* to track
            completion (the event stream itself does not say).
        window_ms: Tumbling window width on the simulated clock.

    Raises:
        ValueError: on a non-positive window or empty processor list.
    """

    def __init__(
        self,
        processors: Sequence[str],
        stages_per_request: Sequence[int],
        window_ms: float,
    ) -> None:
        self._clock = WindowClock(window_ms)
        if not processors:
            raise ValueError("need at least one processor name")
        self._processors = tuple(processors)
        self._stages = list(stages_per_request)

        # --- fold state
        self._now_ms = 0.0
        self._running_procs: Set[str] = set()
        self._running_requests: Set[int] = set()
        self._in_system: Dict[int, float] = {}  # request -> arrival_ms
        # In-system requests not running: the queue depth.
        self._waiting = 0
        self._departures_seen = [0] * len(self._stages)
        self._last_arrival_ms: Optional[float] = None
        self._gap_count = 0
        self._gap_sum_ms = 0.0
        self._gap_sumsq = 0.0

        # --- cumulative accumulators (full horizon)
        self._busy_total_ms: Dict[str, float] = {p: 0.0 for p in processors}
        self._n_integral_total = 0.0
        self._sojourn_sum_ms = 0.0
        self._exited = 0
        self._arrivals_total = 0
        self._completions_total = 0
        self._drops_total = 0
        self._cancellations_total = 0
        self.latency_sketch = QuantileSketch()

        # --- per-window accumulators
        self._window_busy_ms: Dict[str, float] = {p: 0.0 for p in processors}
        self._window_depth_integral = 0.0
        self._window_n_integral = 0.0
        self._window_arrivals = 0
        self._window_completions = 0
        self._window_drops = 0
        self._window_cancellations = 0
        self._window_sketch = QuantileSketch()
        self._finished = False

    # ------------------------------------------------------- public API

    @property
    def now_ms(self) -> float:
        return self._now_ms

    @property
    def window_ms(self) -> float:
        return self._clock.window_ms

    def busy_ms(self, processor: str) -> float:
        """Cumulative busy time folded for one processor."""
        return self._busy_total_ms.get(processor, 0.0)

    def queue_depth(self) -> int:
        """Instantaneous waiting-request count (arrived, not running)."""
        return self._waiting

    def observe(self, event: "Event") -> List[WindowStats]:
        """Fold one event; returns any windows the stream just closed.

        Raises:
            RuntimeError: when called after :meth:`finish`.
            ValueError: on an event that moves time backwards.
        """
        if self._finished:
            raise RuntimeError("aggregator already finished")
        t = event.time_ms
        if t < self._now_ms - 1e-9:
            raise ValueError(
                f"event at {t} ms is before the fold clock {self._now_ms} ms"
            )
        if t >= self._clock.end_ms:
            closed = self._advance(t)
        else:
            closed = []
            if t > self._now_ms:
                self._integrate_to(t)
        self._apply(event)
        return closed

    def observe_many(self, events: Sequence["Event"]) -> List[WindowStats]:
        closed: List[WindowStats] = []
        for event in events:
            closed.extend(self.observe(event))
        return closed

    def finish(self, now_ms: Optional[float] = None) -> List[WindowStats]:
        """Close the final partial window at ``now_ms`` (default: the
        fold clock) and freeze the aggregator."""
        if self._finished:
            return []
        end_ms = self._now_ms if now_ms is None else max(now_ms, self._now_ms)
        closed = self._advance(end_ms)
        if self._clock.ends_partial(end_ms, bool(closed)):
            closed.append(self._close_window(end_ms))
        self._finished = True
        return closed

    def littles_law(self) -> LittlesLawCheck:
        """Check ``L = λW`` over the folded horizon (see module docs).

        Still-in-system requests contribute their partial sojourn
        (horizon end minus arrival), which keeps the identity exact at
        any stopping point.  A violation beyond
        :data:`LITTLES_LAW_TOLERANCE_FRAC` emits a
        :class:`~repro.obs.events.TimelineDiagnostic`.
        """
        tolerance_frac = LITTLES_LAW_TOLERANCE_FRAC
        horizon_ms = self._now_ms
        if horizon_ms <= 0 or self._arrivals_total == 0:
            return LittlesLawCheck(0.0, 0.0, 0.0, 0.0, 0.0, tolerance_frac, True)
        partial_ms = sum(
            horizon_ms - arrival for arrival in self._in_system.values()
        )
        sojourn_sum_ms = self._sojourn_sum_ms + partial_ms
        observed_l = self._n_integral_total / horizon_ms
        arrival_rate = self._arrivals_total / horizon_ms
        mean_sojourn_ms = sojourn_sum_ms / self._arrivals_total
        # λW with the arrival count cancelled: over a subnormal horizon
        # λ alone overflows to inf and the product is inf or nan.
        expected_l = sojourn_sum_ms / horizon_ms
        scale = max(abs(observed_l), abs(expected_l), 1e-12)
        gap_frac = abs(observed_l - expected_l) / scale
        ok = gap_frac <= tolerance_frac
        check = LittlesLawCheck(
            observed_l=observed_l,
            expected_l=expected_l,
            arrival_rate_per_ms=arrival_rate,
            mean_sojourn_ms=mean_sojourn_ms,
            relative_gap_frac=gap_frac,
            tolerance_frac=tolerance_frac,
            ok=ok,
        )
        if not ok and enabled():
            emit(
                TimelineDiagnostic(
                    check="littles_law",
                    observed=observed_l,
                    expected=expected_l,
                    relative_gap_frac=gap_frac,
                    tolerance_frac=tolerance_frac,
                    time_ms=horizon_ms,
                )
            )
        return check

    # ------------------------------------------------------ fold internals

    def _advance(self, t: float) -> List[WindowStats]:
        """Integrate state up to ``t``, closing any crossed windows."""
        closed: List[WindowStats] = []
        clock = self._clock
        while t >= clock.end_ms:
            boundary = clock.end_ms
            self._integrate_to(boundary)
            closed.append(self._close_window(boundary))
        self._integrate_to(t)
        return closed

    def _integrate_to(self, t: float) -> None:
        dt = t - self._now_ms
        if dt <= 0:
            return
        in_system = len(self._in_system)
        for proc in self._running_procs:
            self._window_busy_ms[proc] += dt
            self._busy_total_ms[proc] += dt
        self._window_depth_integral += self._waiting * dt
        self._window_n_integral += in_system * dt
        self._n_integral_total += in_system * dt
        self._now_ms = t

    def _close_window(self, end_ms: float) -> WindowStats:
        clock = self._clock
        span_ms = end_ms - clock.start_ms
        safe_span = max(span_ms, 1e-12)
        backlog_age_ms: Optional[float] = None
        if self._in_system:
            backlog_age_ms = end_ms - min(self._in_system.values())
        if self._window_sketch.count:
            p50: Optional[float] = self._window_sketch.p50
            p95: Optional[float] = self._window_sketch.p95
            p99: Optional[float] = self._window_sketch.p99
        else:
            p50 = p95 = p99 = None
        stats = WindowStats(
            window=clock.index,
            start_ms=clock.start_ms,
            end_ms=end_ms,
            arrivals=self._window_arrivals,
            completions=self._window_completions,
            drops=self._window_drops,
            cancellations=self._window_cancellations,
            utilization_frac={
                proc: self._window_busy_ms[proc] / safe_span
                for proc in self._processors
            },
            mean_queue_depth=self._window_depth_integral / safe_span,
            queue_depth_end=self._waiting,
            mean_in_system=self._window_n_integral / safe_span,
            backlog_age_ms=backlog_age_ms,
            throughput_per_s=self._window_completions / (safe_span / 1e3),
            interarrival_cv=self._interarrival_cv(),
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
        )
        clock.close(end_ms)
        self._window_busy_ms = {p: 0.0 for p in self._processors}
        self._window_depth_integral = 0.0
        self._window_n_integral = 0.0
        self._window_arrivals = 0
        self._window_completions = 0
        self._window_drops = 0
        self._window_cancellations = 0
        self._window_sketch = QuantileSketch()
        return stats

    def _interarrival_cv(self) -> Optional[float]:
        if self._gap_count < 2:
            return None
        mean = self._gap_sum_ms / self._gap_count
        if mean <= 0:  # also when subnormal gaps underflow to zero
            return None
        variance = max(
            0.0, self._gap_sumsq / self._gap_count - mean * mean
        )
        return math.sqrt(variance) / mean

    def _apply(self, event: "Event") -> None:
        kind = event.kind
        request = event.request
        processor = event.processor
        if kind == "arrival":
            assert request is not None
            if request not in self._in_system and request not in self._running_requests:
                self._waiting += 1
            self._in_system[request] = event.time_ms
            self._window_arrivals += 1
            self._arrivals_total += 1
            if self._last_arrival_ms is not None:
                gap = event.time_ms - self._last_arrival_ms
                self._gap_count += 1
                self._gap_sum_ms += gap
                self._gap_sumsq += gap * gap
            self._last_arrival_ms = event.time_ms
        elif kind == "task_ready":
            assert request is not None and processor is not None
            self._running_procs.add(processor)
            if request not in self._running_requests:
                self._running_requests.add(request)
                if request in self._in_system:
                    self._waiting -= 1
        elif kind == "departure":
            assert request is not None
            if processor is not None:
                self._running_procs.discard(processor)
            self._stop_running(request)
            if 0 <= request < len(self._stages):
                seen = self._departures_seen[request] + 1
                self._departures_seen[request] = seen
                if seen >= self._stages[request]:
                    self._complete(request, event.time_ms)
        elif kind == "preemption":
            if processor is not None:
                self._running_procs.discard(processor)
            if request is not None:
                self._stop_running(request)
        elif kind == "cancellation":
            assert request is not None
            if processor is not None:
                self._running_procs.discard(processor)
            self._stop_running(request)
            self._exit(request, event.time_ms)
            if event.detail == "deadline":
                self._window_drops += 1
                self._drops_total += 1
            else:
                self._window_cancellations += 1
                self._cancellations_total += 1
        # rate_change events carry no occupancy information: the
        # utilization denominator stays the full window span even while
        # a processor is offline (idle-by-fault reads as idle).

    def _stop_running(self, request: int) -> None:
        if request in self._running_requests:
            self._running_requests.remove(request)
            if request in self._in_system:
                self._waiting += 1

    def _complete(self, request: int, time_ms: float) -> None:
        arrival = self._in_system.get(request)
        if arrival is None:
            return
        latency_ms = time_ms - arrival
        self.latency_sketch.insert(latency_ms)
        self._window_sketch.insert(latency_ms)
        self._window_completions += 1
        self._completions_total += 1
        self._exit(request, time_ms)

    def _exit(self, request: int, time_ms: float) -> None:
        arrival = self._in_system.pop(request, None)
        if arrival is None:
            return
        if request not in self._running_requests:
            self._waiting -= 1
        self._sojourn_sum_ms += time_ms - arrival
        self._exited += 1

"""Per-class SLO attainment and multi-window error-budget burn rates.

Hetero2Pipe's whole point is meeting latency targets for concurrent DNN
streams, so the serving-side question is not "what was the p95" but
"is each request class still inside its objective, and if not, how fast
is it burning the error budget?".  This module answers it in the
standard SRE shape:

* An :class:`SloSpec` names a class and states its target — requests
  should complete within ``deadline_ms`` of arrival, and at least
  ``objective_frac`` of them must (the rest is the *error budget*).
* An :class:`SloEvaluator` is a second event tap next to the timeline
  fold: it classifies every terminal request event as *good* (completed
  in time) or *bad* (late completion, deadline drop, cancellation) into
  the same tumbling windows, then evaluates **multi-window burn rates**.
  The burn rate over a span is ``bad_frac / (1 - objective_frac)`` —
  burn 1.0 spends the budget exactly at the sustainable pace, burn ``k``
  spends it ``k`` times too fast.  An alert needs *both* a fast trailing
  window (low detection latency) and a slow trailing window (blip
  filter) above the threshold, and it is edge-triggered: one typed
  :class:`~repro.obs.events.SloBurnAlert` per excursion, re-armed when
  the condition clears.  Alerts go through the provenance recorder, so
  they serialize, replay and diff like every planner decision.

Like the timeline fold this is a duck-typed obs leaf: it consumes
engine events by attribute, never by import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .events import SloBurnAlert
from .recorder import emit, enabled
from .timeline import WindowClock

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps obs a leaf
    from ..runtime.engine import Event

#: Default multi-window configuration: alert when both the last
#: 1 window and the last 12 windows burn faster than 2x sustainable.
DEFAULT_FAST_WINDOWS = 1
DEFAULT_SLOW_WINDOWS = 12
DEFAULT_BURN_THRESHOLD = 2.0


@dataclass(frozen=True)
class SloSpec:
    """One request class's service-level objective.

    Attributes:
        name: Class name (e.g. the model name, or ``"default"``).
        deadline_ms: Completion-latency target, measured from arrival.
        objective_frac: Required fraction of requests meeting the
            deadline (0 < objective < 1; ``1 - objective_frac`` is the
            error budget).
    """

    name: str
    deadline_ms: float
    objective_frac: float = 0.95

    def __post_init__(self) -> None:
        if not (math.isfinite(self.deadline_ms) and self.deadline_ms > 0):
            raise ValueError(
                f"SLO deadline must be finite and > 0 ms, got {self.deadline_ms}"
            )
        if not 0.0 < self.objective_frac < 1.0:
            raise ValueError(
                "SLO objective must be in (0, 1) so the error budget "
                f"is non-empty, got {self.objective_frac}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "deadline_ms": self.deadline_ms,
            "objective_frac": self.objective_frac,
        }


@dataclass
class _ClassState:
    """Mutable per-class fold state (windowed good/bad counts)."""

    spec: SloSpec
    window_good: int = 0
    window_bad: int = 0
    good_total: int = 0
    bad_total: int = 0
    history: List[Tuple[int, int]] = field(default_factory=list)
    alerting: bool = False
    alerts: List[SloBurnAlert] = field(default_factory=list)


@dataclass(frozen=True)
class SloWindowReport:
    """One class's view of one closed tumbling window."""

    class_name: str
    window: int
    end_ms: float
    good: int
    bad: int
    fast_burn: float
    slow_burn: float
    alert_fired: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "class_name": self.class_name,
            "window": self.window,
            "end_ms": self.end_ms,
            "good": self.good,
            "bad": self.bad,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "alert_fired": self.alert_fired,
        }


def check_burn_config(
    window_ms: float,
    fast_windows: int,
    slow_windows: int,
    burn_threshold: float,
) -> None:
    """Validate an evaluator's window and burn-rate settings.

    Raises:
        ValueError: on a non-finite or non-positive window or threshold,
            or unless ``1 <= fast_windows <= slow_windows``.
    """
    if not (math.isfinite(window_ms) and window_ms > 0):
        raise ValueError(f"window must be finite and > 0 ms, got {window_ms}")
    if not 1 <= fast_windows <= slow_windows:
        raise ValueError(
            "need 1 <= fast_windows <= slow_windows, got "
            f"fast={fast_windows} slow={slow_windows}"
        )
    if not (math.isfinite(burn_threshold) and burn_threshold > 0):
        raise ValueError(
            f"burn threshold must be finite and > 0, got {burn_threshold}"
        )


class SloEvaluator:
    """Fold terminal request events into per-class burn-rate windows.

    Feed every engine event to :meth:`observe` (same stream the
    timeline fold consumes); windows close lock-step with the timeline,
    on the same :class:`~repro.obs.timeline.WindowClock` type.  Only an
    event that crosses the clock's boundary runs the closing loop.
    Each close evaluates the fast/slow trailing burn rates per class
    and may emit an :class:`~repro.obs.events.SloBurnAlert`.

    Args:
        request_specs: Per-request resolved SLO spec, indexed by
            request id (how arrivals map to classes is the caller's
            policy — the CLI maps by model name).
        stages_per_request: Chain length per request, to recognise the
            final departure.
        window_ms: Tumbling window width (keep equal to the timeline's).
        fast_windows / slow_windows: Trailing spans, in windows, of the
            two burn-rate views (``fast <= slow``).
        burn_threshold: Both views must exceed this to alert.

    Raises:
        ValueError: on empty specs, a non-positive window, or a
            fast/slow misconfiguration.
    """

    def __init__(
        self,
        request_specs: Sequence[SloSpec],
        stages_per_request: Sequence[int],
        window_ms: float,
        fast_windows: int = DEFAULT_FAST_WINDOWS,
        slow_windows: int = DEFAULT_SLOW_WINDOWS,
        burn_threshold: float = DEFAULT_BURN_THRESHOLD,
    ) -> None:
        if not request_specs:
            raise ValueError("need at least one request spec")
        if len(request_specs) != len(stages_per_request):
            raise ValueError(
                f"{len(request_specs)} specs for "
                f"{len(stages_per_request)} requests"
            )
        check_burn_config(window_ms, fast_windows, slow_windows, burn_threshold)
        self._request_specs = tuple(request_specs)
        self._stages = list(stages_per_request)
        self._clock = WindowClock(window_ms)
        self.fast_windows = fast_windows
        self.slow_windows = slow_windows
        self.burn_threshold = burn_threshold

        self._classes: Dict[str, _ClassState] = {}
        for spec in request_specs:
            state = self._classes.get(spec.name)
            if state is None:
                self._classes[spec.name] = _ClassState(spec)
            elif state.spec != spec:
                raise ValueError(
                    f"conflicting specs for class {spec.name!r}: "
                    f"{state.spec} vs {spec}"
                )

        # Per request: its class's state.
        self._request_states = [self._classes[spec.name] for spec in request_specs]
        self._arrival_ms: Dict[int, float] = {}
        self._departures_seen = [0] * len(self._stages)
        self._now_ms = 0.0
        self._finished = False
        self.window_reports: List[SloWindowReport] = []

    # ------------------------------------------------------- public API

    @property
    def window_ms(self) -> float:
        return self._clock.window_ms

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._classes))

    @property
    def alerts(self) -> List[SloBurnAlert]:
        """All alerts fired so far, in firing order."""
        fired: List[SloBurnAlert] = []
        for state in self._classes.values():
            fired.extend(state.alerts)
        fired.sort(key=lambda alert: (alert.window, alert.class_name))
        return fired

    def observe(self, event: "Event") -> List[SloWindowReport]:
        """Fold one event; returns per-class reports for any windows
        the stream just crossed (may fire alerts as a side effect).

        Raises:
            RuntimeError: when called after :meth:`finish`.
            ValueError: on an event that moves time backwards.
        """
        if self._finished:
            raise RuntimeError("evaluator already finished")
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
                self._now_ms = t
        self._apply(event)
        return closed

    def observe_many(self, events: Sequence["Event"]) -> List[SloWindowReport]:
        closed: List[SloWindowReport] = []
        for event in events:
            closed.extend(self.observe(event))
        return closed

    def finish(self, now_ms: Optional[float] = None) -> List[SloWindowReport]:
        """Close the final partial window; still-in-flight requests at
        the horizon count as *bad* (they did not meet their deadline
        inside the observed run)."""
        if self._finished:
            return []
        end_ms = self._now_ms if now_ms is None else max(now_ms, self._now_ms)
        closed = self._advance(end_ms)
        leftover = bool(self._arrival_ms)
        for request in sorted(self._arrival_ms):
            self._record(self._request_states[request], good=False)
        self._arrival_ms.clear()
        if leftover or self._clock.ends_partial(end_ms, bool(closed)):
            closed.extend(self._close_window(end_ms))
        self._finished = True
        return closed

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Whole-run per-class attainment and budget, for the JSON doc."""
        out: Dict[str, Dict[str, object]] = {}
        for name in self.class_names:
            state = self._classes[name]
            total = state.good_total + state.bad_total
            attainment = state.good_total / total if total else None
            out[name] = {
                "spec": state.spec.to_dict(),
                "requests": total,
                "good": state.good_total,
                "bad": state.bad_total,
                "attainment_frac": attainment,
                "budget_remaining_frac": self._budget_remaining(state),
                "alerts": len(state.alerts),
            }
        return out

    # ------------------------------------------------------ fold internals

    def _record(self, state: _ClassState, good: bool) -> None:
        if good:
            state.window_good += 1
            state.good_total += 1
        else:
            state.window_bad += 1
            state.bad_total += 1

    def _budget_remaining(self, state: _ClassState) -> Optional[float]:
        total = state.good_total + state.bad_total
        if total == 0:
            return None
        budget = 1.0 - state.spec.objective_frac
        spent = state.bad_total / total
        return (budget - spent) / budget

    def _advance(self, t: float) -> List[SloWindowReport]:
        closed: List[SloWindowReport] = []
        clock = self._clock
        while t >= clock.end_ms:
            closed.extend(self._close_window(clock.end_ms))
        self._now_ms = max(self._now_ms, t)
        return closed

    def _burn(self, state: _ClassState, trailing: int) -> float:
        good = bad = 0
        for g, b in state.history[-trailing:]:
            good += g
            bad += b
        total = good + bad
        if total == 0:
            return 0.0
        bad_frac = bad / total
        return bad_frac / (1.0 - state.spec.objective_frac)

    def _close_window(self, end_ms: float) -> List[SloWindowReport]:
        reports: List[SloWindowReport] = []
        window = self._clock.index
        for name in self.class_names:
            state = self._classes[name]
            state.history.append((state.window_good, state.window_bad))
            fast_burn = self._burn(state, self.fast_windows)
            slow_burn = self._burn(state, self.slow_windows)
            firing = (
                fast_burn > self.burn_threshold
                and slow_burn > self.burn_threshold
            )
            fired = False
            if firing and not state.alerting:
                fired = True
                budget = self._budget_remaining(state)
                alert = SloBurnAlert(
                    class_name=name,
                    window=window,
                    time_ms=end_ms,
                    fast_burn=fast_burn,
                    slow_burn=slow_burn,
                    threshold=self.burn_threshold,
                    fast_windows=self.fast_windows,
                    slow_windows=self.slow_windows,
                    objective_frac=state.spec.objective_frac,
                    deadline_ms=state.spec.deadline_ms,
                    budget_remaining_frac=(
                        budget if budget is not None else 1.0
                    ),
                )
                state.alerts.append(alert)
                if enabled():
                    emit(alert)
            state.alerting = firing
            reports.append(
                SloWindowReport(
                    class_name=name,
                    window=window,
                    end_ms=end_ms,
                    good=state.window_good,
                    bad=state.window_bad,
                    fast_burn=fast_burn,
                    slow_burn=slow_burn,
                    alert_fired=fired,
                )
            )
            state.window_good = 0
            state.window_bad = 0
        self._clock.close(end_ms)
        self._now_ms = max(self._now_ms, end_ms)
        self.window_reports.extend(reports)
        return reports

    def _apply(self, event: "Event") -> None:
        # Only arrivals and terminal events of a request with a spec
        # move the fold.
        kind = event.kind
        if kind == "task_ready":
            return
        request = event.request
        if request is None or not 0 <= request < len(self._request_specs):
            return
        if kind == "arrival":
            self._arrival_ms[request] = event.time_ms
        elif kind == "departure":
            seen = self._departures_seen[request] + 1
            self._departures_seen[request] = seen
            if seen < self._stages[request]:
                return
            arrival = self._arrival_ms.pop(request, None)
            if arrival is None:
                return
            latency_ms = event.time_ms - arrival
            spec = self._request_specs[request]
            self._record(
                self._request_states[request], good=latency_ms <= spec.deadline_ms
            )
        elif kind == "cancellation":
            if self._arrival_ms.pop(request, None) is not None:
                self._record(self._request_states[request], good=False)


def parse_class_specs(text: str) -> Dict[str, SloSpec]:
    """Parse the CLI ``--classes`` grammar into specs.

    Grammar: comma-separated ``NAME=DEADLINE_MS[:OBJECTIVE]`` entries;
    ``*`` as NAME is the wildcard class applied to models without an
    explicit entry, and an entry without an objective takes 0.95.
    Example: ``"resnet50=80:0.99,*=120:0.95"``.

    Raises:
        ValueError: on malformed entries or duplicate names.
    """
    specs: Dict[str, SloSpec] = {}
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(
                f"bad --classes entry {entry!r}: expected "
                "NAME=DEADLINE_MS[:OBJECTIVE]"
            )
        name, _, rhs = entry.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"bad --classes entry {entry!r}: empty name")
        if name in specs:
            raise ValueError(f"duplicate --classes entry for {name!r}")
        deadline_text, _, objective_text = rhs.partition(":")
        try:
            deadline_ms = float(deadline_text)
            objective = float(objective_text) if objective_text else 0.95
        except ValueError:
            raise ValueError(
                f"bad --classes entry {entry!r}: expected "
                "NAME=DEADLINE_MS[:OBJECTIVE]"
            ) from None
        specs[name] = SloSpec(
            name=name, deadline_ms=deadline_ms, objective_frac=objective
        )
    if not specs:
        raise ValueError("--classes parsed to no specs")
    return specs


def resolve_request_specs(
    model_names: Sequence[str], specs: Dict[str, SloSpec]
) -> List[SloSpec]:
    """Map each request's model name to its SLO spec.

    A request's class is its model's explicit entry, else the ``*``
    wildcard.  The returned specs carry the *model* name as the class
    name when matched through the wildcard, so per-class reporting
    stays per-model.

    Raises:
        KeyError: when a model has no entry and no wildcard exists.
    """
    resolved: List[SloSpec] = []
    wildcard = specs.get("*")
    for model in model_names:
        spec = specs.get(model)
        if spec is None:
            if wildcard is None:
                raise KeyError(
                    f"no SLO class for model {model!r} and no '*' wildcard"
                )
            spec = SloSpec(
                name=model,
                deadline_ms=wildcard.deadline_ms,
                objective_frac=wildcard.objective_frac,
            )
        resolved.append(spec)
    return resolved

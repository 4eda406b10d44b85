"""Typed decision-provenance events emitted by the planner stages.

Each event is an immutable record of one decision the planner *committed
to*: which slices Algorithm 1 chose, which Low request Algorithm 2
relocated, which boundary layer Algorithm 3 stole, how the draining tail
was re-placed.  Together, replayed in order, they reconstruct the final
:class:`~repro.core.plan.PipelinePlan` (see
:func:`repro.obs.provenance.reconstruct_plan`) — so a plan can be
*explained* end to end instead of reverse-engineered from its slices.

Conventions:

* ``request`` on :class:`SliceChosen` / :class:`RequestRelocated` is the
  *original arrival index*; on post-ordering events (:class:`LayerStolen`,
  :class:`PlacementChanged`, :class:`TailReplaced`) it is the *execution
  position* in the committed order (the index :class:`OrderCommitted`
  maps back to arrival indices).
* Slices are per-stage ``(start, end)`` inclusive layer bounds, ``None``
  for an empty stage — the same shape ``StageAssignment.slices`` uses.

This module is a data-only leaf: no clocks, no planner imports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, Optional, Tuple

#: One stage's inclusive layer bounds (or None for an empty stage).
Slice = Optional[Tuple[int, int]]
Slices = Tuple[Slice, ...]


@dataclass(frozen=True)
class ProvenanceEvent:
    """Base class: every event carries a ``kind`` discriminator."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        doc["kind"] = self.kind
        return doc


@dataclass(frozen=True)
class SliceChosen(ProvenanceEvent):
    """Algorithm 1 committed a horizontal partition for one request.

    Attributes:
        request: Original arrival index.
        model: Model name (display identity of the request).
        slices: The chosen per-stage slices.
        stage_times_ms: Per-stage cost (exec + boundary copy).
        makespan_ms: The DP's min-max objective for this request alone.
    """

    kind: ClassVar[str] = "slice_chosen"

    request: int
    model: str
    slices: Slices
    stage_times_ms: Tuple[float, ...]
    makespan_ms: float


@dataclass(frozen=True)
class RequestRelocated(ProvenanceEvent):
    """Algorithm 2 moved a Low request between two conflicting Highs.

    Attributes:
        request: Original arrival index of the relocated (Low) request.
        source_position: Its position before the move.
        target_position: Its position after the move.
        displacement: ``|target - source|`` (the Eq. 10 cost).
    """

    kind: ClassVar[str] = "request_relocated"

    request: int
    source_position: int
    target_position: int
    displacement: int


@dataclass(frozen=True)
class OrderCommitted(ProvenanceEvent):
    """The planner chose between the arrival and the mitigated order.

    Attributes:
        order: Execution position -> original arrival index.
        arrival_makespan_ms: Contention-aware makespan of the arrival
            order after its own vertical phase.
        chosen_makespan_ms: Makespan of the committed order.
        mitigated: True when the Algorithm 2 re-ordering won.
    """

    kind: ClassVar[str] = "order_committed"

    order: Tuple[int, ...]
    arrival_makespan_ms: float
    chosen_makespan_ms: float
    mitigated: bool


@dataclass(frozen=True)
class LayerStolen(ProvenanceEvent):
    """Algorithm 3 moved one boundary layer between adjacent stages.

    Attributes:
        request: Execution position of the donor/recipient request.
        from_stage: Stage the layer left.
        to_stage: Adjacent stage the layer joined.
        layer: The moved layer's index in the model.
        phase: ``"window-steal"`` (phase 1 critical-path alignment) or
            ``"global-refine"`` (the descent on the async makespan).
        gain_ms: Objective improvement this single move bought.
    """

    kind: ClassVar[str] = "layer_stolen"

    request: int
    from_stage: int
    to_stage: int
    layer: int
    phase: str
    gain_ms: float


@dataclass(frozen=True)
class PlacementChanged(ProvenanceEvent):
    """The per-request placement search moved a request wholesale.

    Attributes:
        request: Execution position.
        slices_before: Partition before the change.
        slices_after: The committed single-processor placement.
        makespan_before_ms: Plan makespan before the change.
        makespan_after_ms: Plan makespan after the change.
    """

    kind: ClassVar[str] = "placement_changed"

    request: int
    slices_before: Slices
    slices_after: Slices
    makespan_before_ms: float
    makespan_after_ms: float


@dataclass(frozen=True)
class TailReplaced(ProvenanceEvent):
    """Phase 2 re-allocated the draining tail request.

    Same fields as :class:`PlacementChanged`; kept as its own type
    because the paper singles the tail out ("the search space is only
    K") and the explain report calls it out separately.
    """

    kind: ClassVar[str] = "tail_replaced"

    request: int
    slices_before: Slices
    slices_after: Slices
    makespan_before_ms: float
    makespan_after_ms: float


@dataclass(frozen=True)
class DriftDetected(ProvenanceEvent):
    """A streaming drift detector fired on prediction residuals.

    Unlike the planner events above, this event is emitted by the
    *accuracy* side of observability (:mod:`repro.obs.drift`): the
    planner's predictions for one processor or model have been drifting
    away from executed reality for long enough that a detector tripped.
    Consumers (``StreamingPlanner``) treat it as a replan/re-profile
    trigger.

    Attributes:
        scope: What drifted — ``"processor"`` or ``"model"``.
        key: The drifting processor/model name.
        detector: ``"ewma"`` or ``"cusum"``.
        statistic: The detector statistic at the moment it fired.
        threshold: The firing threshold the statistic exceeded.
        samples: Residual samples this key had consumed when it fired.
        window: Streaming window index (-1 outside a windowed run).
    """

    kind: ClassVar[str] = "drift_detected"

    scope: str
    key: str
    detector: str
    statistic: float
    threshold: float
    samples: int
    window: int = -1


@dataclass(frozen=True)
class SloBurnAlert(ProvenanceEvent):
    """A per-class SLO error budget is burning too fast.

    Emitted by :class:`repro.obs.slo.SloEvaluator` when both the fast
    and the slow trailing-window burn rates exceed the threshold (the
    standard multi-window burn-rate alert: the fast window gives low
    detection latency, the slow window filters transient blips).
    Edge-triggered: one alert per excursion, re-armed when the
    condition clears.

    Attributes:
        class_name: The SLO class that is burning budget.
        window: Index of the tumbling window whose close fired it.
        time_ms: Simulated time of that window boundary.
        fast_burn: Burn rate over the trailing fast-window span.
        slow_burn: Burn rate over the trailing slow-window span.
        threshold: The burn-rate threshold both sides exceeded.
        fast_windows: Trailing windows in the fast view.
        slow_windows: Trailing windows in the slow view.
        objective_frac: The class's attainment objective (e.g. 0.95).
        deadline_ms: The class's latency deadline target.
        budget_remaining_frac: Whole-run error budget left (can go
            negative once the budget is exhausted).
    """

    kind: ClassVar[str] = "slo_burn_alert"

    class_name: str
    window: int
    time_ms: float
    fast_burn: float
    slow_burn: float
    threshold: float
    fast_windows: int
    slow_windows: int
    objective_frac: float
    deadline_ms: float
    budget_remaining_frac: float


@dataclass(frozen=True)
class TimelineDiagnostic(ProvenanceEvent):
    """A timeline self-check failed — the fold disagrees with itself.

    Emitted by :class:`repro.obs.timeline.TimelineAggregator` when an
    internal consistency identity (today only Little's law, ``L = λW``)
    is violated beyond float tolerance.  Over a complete horizon the
    identity is exact, so this firing means the fold dropped or
    double-counted state — a telemetry bug, not a workload property.

    Attributes:
        check: The identity that failed (``"littles_law"``).
        observed: The directly folded side (time-average occupancy L).
        expected: The independently derived side (λ · W).
        relative_gap_frac: ``|observed - expected|`` over their scale.
        tolerance_frac: The tolerance the gap exceeded.
        time_ms: Horizon end when the check ran.
    """

    kind: ClassVar[str] = "timeline_diagnostic"

    check: str
    observed: float
    expected: float
    relative_gap_frac: float
    tolerance_frac: float
    time_ms: float


#: kind string -> event class, for deserialization and filtering.
EVENT_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        SliceChosen,
        RequestRelocated,
        OrderCommitted,
        LayerStolen,
        PlacementChanged,
        TailReplaced,
        DriftDetected,
        SloBurnAlert,
        TimelineDiagnostic,
    )
}


def _tuplify(value: object) -> object:
    """JSON arrays back to the tuples the frozen events carry."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def event_from_dict(doc: Dict[str, object]) -> ProvenanceEvent:
    """Rebuild an event from its :meth:`ProvenanceEvent.to_dict` form.

    Raises:
        KeyError: on a missing or unknown ``kind``.
    """
    kind = doc["kind"]
    cls = EVENT_KINDS[str(kind)]
    kwargs = {k: _tuplify(v) for k, v in doc.items() if k != "kind"}
    return cls(**kwargs)  # type: ignore[no-any-return]

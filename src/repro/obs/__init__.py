"""``repro.obs`` — observability: spans, metrics, decision provenance.

The planner is a four-stage decision pipeline (Algorithm 1 DP → Eq. 1
contention scoring → Algorithm 2 LAP mitigation → Algorithm 3 work
stealing); this package makes every stage observable without a
debugger:

* **Spans** (:func:`span`): a wall-time span tree of the planner's own
  execution ("how long did mitigation spend in Kuhn-Munkres?").
* **Metrics** (:func:`add` / :func:`observe` / :func:`set_gauge`, all
  flushing through :class:`~repro.obs.metrics.MetricsRegistry`):
  aggregate work counters — DP cells evaluated, LAP assignments,
  boundary layers stolen, 2-High contention windows.
* **Decision provenance** (:func:`emit` + the typed events in
  :mod:`repro.obs.events`): the committed decisions themselves, replayable
  into the final plan (:func:`~repro.obs.provenance.reconstruct_plan`)
  and narratable as a terminal report
  (:func:`~repro.obs.provenance.render_explanation`).
* **Export** (:mod:`repro.obs.export`, merged by
  :func:`repro.runtime.tracing.to_chrome_trace`): everything above in
  one Perfetto/Chrome trace next to the simulated execution.

Everything funnels through one process-global, swappable recorder; the
default :class:`NullRecorder` makes every instrumentation site cost a
global load plus an attribute check.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from .accuracy import (
    RequestResidual,
    ResidualReport,
    ResidualSummary,
    SliceResidual,
    join_execution,
    report_from_dict,
    summarize,
)
from .blame import (
    BLAME_COMPONENTS,
    CriticalPath,
    PathSegment,
    RequestBlame,
    aggregate_blame,
    blame_requests,
    compute_slack,
    extract_critical_path,
)
from .causality import CAUSE_KINDS, TaskCausality
from .drift import CusumDetector, DriftMonitor, EwmaDetector
from .events import (
    EVENT_KINDS,
    DriftDetected,
    LayerStolen,
    OrderCommitted,
    PlacementChanged,
    ProvenanceEvent,
    RequestRelocated,
    SliceChosen,
    SloBurnAlert,
    TailReplaced,
    TimelineDiagnostic,
    event_from_dict,
)
from .export import slo_telemetry_rows, telemetry_rows, write_jsonl
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prof import (
    PROFILE_SCHEMA,
    PhaseProfile,
    PhaseStat,
    ProfilingRecorder,
    SpanStat,
    collapsed_stacks,
    profile_spans,
    profiling_session,
    render_phase_table,
    speedscope_document,
)
from .provenance import reconstruct_plan, render_explanation
from .sketch import QuantileSketch, merge_all
from .slo import (
    SloEvaluator,
    SloSpec,
    SloWindowReport,
    parse_class_specs,
    resolve_request_specs,
)
from .timeline import LittlesLawCheck, TimelineAggregator, WindowStats
from .recorder import (
    InMemoryRecorder,
    NullRecorder,
    Recorder,
    add,
    emit,
    enabled,
    get_recorder,
    observe,
    set_gauge,
    set_recorder,
    span,
    use_recorder,
)
from .spans import NULL_SPAN, NullSpan, Span, set_clock

__all__ = [
    # recorder + fast-path API
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "span",
    "emit",
    "add",
    "observe",
    "set_gauge",
    "enabled",
    # spans
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "set_clock",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # provenance
    "ProvenanceEvent",
    "SliceChosen",
    "RequestRelocated",
    "OrderCommitted",
    "LayerStolen",
    "PlacementChanged",
    "TailReplaced",
    "DriftDetected",
    "SloBurnAlert",
    "TimelineDiagnostic",
    "EVENT_KINDS",
    "event_from_dict",
    "reconstruct_plan",
    "render_explanation",
    # streaming telemetry (sketch + timeline + SLO burn rates)
    "QuantileSketch",
    "merge_all",
    "TimelineAggregator",
    "WindowStats",
    "LittlesLawCheck",
    "SloSpec",
    "SloEvaluator",
    "SloWindowReport",
    "parse_class_specs",
    "resolve_request_specs",
    "slo_telemetry_rows",
    # causal latency attribution (the what-if counterfactuals live in
    # repro.obs.whatif, above runtime — import it explicitly)
    "CAUSE_KINDS",
    "TaskCausality",
    "BLAME_COMPONENTS",
    "RequestBlame",
    "blame_requests",
    "PathSegment",
    "CriticalPath",
    "extract_critical_path",
    "compute_slack",
    "aggregate_blame",
    # prediction accuracy + drift
    "SliceResidual",
    "RequestResidual",
    "ResidualSummary",
    "ResidualReport",
    "summarize",
    "join_execution",
    "report_from_dict",
    "EwmaDetector",
    "CusumDetector",
    "DriftMonitor",
    "telemetry_rows",
    "write_jsonl",
    # self-profiling (software wall time; repro.profiling is the
    # *hardware latency* profiler — see docs/ARCHITECTURE.md)
    "PROFILE_SCHEMA",
    "PhaseProfile",
    "PhaseStat",
    "SpanStat",
    "ProfilingRecorder",
    "profiling_session",
    "profile_spans",
    "render_phase_table",
    "collapsed_stacks",
    "speedscope_document",
]

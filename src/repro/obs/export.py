"""Chrome/Perfetto trace-event builders for observability data.

Pure functions from recorder contents to Chrome-tracing ``traceEvents``
dicts.  The merge with the *executor's* slice records happens one layer
up in :func:`repro.runtime.tracing.to_chrome_trace` (runtime may import
obs, never the reverse); this module only knows spans, metrics and flow
arrows.

Only the event phases ``X`` (complete slice), ``M`` (metadata), ``C``
(counter) and ``s``/``f`` (flow start/finish) are ever emitted — the
schema the export tests validate.

Time bases: planner spans are wall time normalized so the earliest root
span starts at ts 0; the executor timeline is simulated time, also
starting at 0.  The two live in separate trace *processes* (pids), so
Perfetto renders them as distinct tracks instead of pretending the
clocks are comparable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .accuracy import ResidualReport
from .blame import CriticalPath, RequestBlame
from .events import DriftDetected, SloBurnAlert
from .metrics import MetricsRegistry
from .slo import SloWindowReport
from .spans import Span
from .timeline import WindowStats

#: pid of the simulated-execution timeline in merged traces.
EXECUTION_PID = 0
#: pid of the planner wall-time timeline in merged traces.
PLANNER_PID = 1

TraceEvent = Dict[str, object]


def process_metadata(pid: int, name: str, sort_index: int = 0) -> List[TraceEvent]:
    """``process_name`` (+ sort index) metadata events for one pid."""
    events: List[TraceEvent] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        }
    ]
    if sort_index:
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": sort_index},
            }
        )
    return events


def thread_metadata(pid: int, tid: int, name: str) -> TraceEvent:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def span_trace_events(
    roots: Sequence[Span],
    pid: int = PLANNER_PID,
) -> List[TraceEvent]:
    """Flatten span trees into ``X`` events (µs, earliest root at 0)."""
    if not roots:
        return []
    t0 = min(root.start_s for root in roots)
    events: List[TraceEvent] = []
    for root in roots:
        for span in root.walk():
            end_s = span.end_s if span.end_s is not None else span.start_s
            events.append(
                {
                    "name": span.name,
                    "cat": "planner",
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": (span.start_s - t0) * 1e6,
                    "dur": max(0.0, (end_s - span.start_s) * 1e6),
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
    events.sort(key=lambda e: e["ts"])  # type: ignore[arg-type, return-value]
    return events


def metric_counter_events(
    registry: MetricsRegistry,
    pid: int = PLANNER_PID,
    ts_us: float = 0.0,
) -> List[TraceEvent]:
    """One ``C`` sample per counter/gauge (final values as tracks)."""
    snap = registry.snapshot()
    events: List[TraceEvent] = []
    for section in ("counters", "gauges"):
        values = snap[section]
        for name, value in values.items():  # type: ignore[union-attr]
            events.append(
                {
                    "name": name,
                    "cat": "metrics",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts_us,
                    "args": {"value": value},
                }
            )
    return events


def flow_pair(
    name: str,
    flow_id: int,
    start: Dict[str, float],
    finish: Dict[str, float],
    args: Optional[Dict[str, object]] = None,
) -> List[TraceEvent]:
    """A flow arrow: ``s`` at ``start`` and ``f`` at ``finish``.

    ``start`` / ``finish`` supply ``pid``, ``tid`` and ``ts`` (µs); the
    ts of each endpoint must fall inside an ``X`` slice on that track
    for viewers to bind the arrow.
    """
    base = {"name": name, "cat": "provenance", "id": flow_id, "args": args or {}}
    s: TraceEvent = dict(base)
    s.update({"ph": "s", **start})
    f: TraceEvent = dict(base)
    f.update({"ph": "f", "bp": "e", **finish})
    return [s, f]


def residual_counter_events(
    reports: Sequence[ResidualReport],
    pid: int = EXECUTION_PID,
) -> List[TraceEvent]:
    """``C`` counter samples tracking the prediction residual over time.

    One sample per executed slice, anchored at the slice's *actual*
    finish time on the simulated-execution timeline — so the residual
    track lines up under the execution Gantt in Perfetto and a drifting
    run shows as a rising staircase.
    """
    events: List[TraceEvent] = []
    for report in reports:
        for s in sorted(report.slices, key=lambda r: r.finish_ms):
            events.append(
                {
                    "name": "prediction_residual_ms",
                    "cat": "accuracy",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": s.finish_ms * 1e3,
                    "args": {"residual_ms": s.residual_ms},
                }
            )
    return events


def telemetry_rows(
    reports: Sequence[ResidualReport],
    drift_events: Sequence[DriftDetected] = (),
) -> List[Dict[str, object]]:
    """Flatten residual reports + drift events into JSONL telemetry rows.

    Every row carries a ``type`` discriminator — ``window_summary``,
    ``slice_residual``, ``request_residual`` or ``drift_detected`` — so
    consumers can stream-filter without schema knowledge.  The schema is
    documented in docs/OBSERVABILITY.md.
    """
    rows: List[Dict[str, object]] = []
    for report in reports:
        rows.extend(report.to_rows())
    for event in drift_events:
        row = event.to_dict()
        row["type"] = "drift_detected"
        rows.append(row)
    return rows


def slo_telemetry_rows(
    windows: Sequence[WindowStats],
    slo_reports: Sequence[SloWindowReport] = (),
    alerts: Sequence[SloBurnAlert] = (),
) -> List[Dict[str, object]]:
    """Flatten timeline windows + SLO views + alerts into JSONL rows.

    Same contract as :func:`telemetry_rows`: every row carries a
    ``type`` discriminator — ``window_stats``, ``slo_window`` or
    ``slo_burn_alert`` — so a consumer can stream-filter without
    schema knowledge.
    """
    rows: List[Dict[str, object]] = []
    for window in windows:
        row = window.to_dict()
        row["type"] = "window_stats"
        rows.append(row)
    for report in slo_reports:
        row = report.to_dict()
        row["type"] = "slo_window"
        rows.append(row)
    for alert in alerts:
        row = alert.to_dict()
        row["type"] = "slo_burn_alert"
        rows.append(row)
    return rows


def timeline_counter_events(
    windows: Sequence[WindowStats],
    pid: int = EXECUTION_PID,
) -> List[TraceEvent]:
    """``C`` counter tracks from closed timeline windows.

    One sample per window boundary: per-processor utilization (one
    merged multi-series track), the time-averaged queue depth, and
    throughput — anchored on the simulated-execution timeline so they
    line up under the Gantt.
    """
    events: List[TraceEvent] = []
    for window in windows:
        ts_us = window.end_ms * 1e3
        events.append(
            {
                "name": "utilization_frac",
                "cat": "timeline",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": ts_us,
                "args": {
                    proc: frac
                    for proc, frac in sorted(
                        window.utilization_frac.items()
                    )
                },
            }
        )
        events.append(
            {
                "name": "queue_depth",
                "cat": "timeline",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": ts_us,
                "args": {
                    "mean": window.mean_queue_depth,
                    "end": window.queue_depth_end,
                },
            }
        )
        events.append(
            {
                "name": "throughput_per_s",
                "cat": "timeline",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": ts_us,
                "args": {"value": window.throughput_per_s},
            }
        )
    return events


def burn_rate_counter_events(
    slo_reports: Sequence[SloWindowReport],
    pid: int = EXECUTION_PID,
) -> List[TraceEvent]:
    """``C`` burn-rate tracks, one per SLO class, per window boundary."""
    events: List[TraceEvent] = []
    for report in slo_reports:
        events.append(
            {
                "name": f"slo_burn:{report.class_name}",
                "cat": "slo",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": report.end_ms * 1e3,
                "args": {
                    "fast": report.fast_burn,
                    "slow": report.slow_burn,
                },
            }
        )
    return events


def blame_telemetry_rows(
    requests: Sequence[RequestBlame],
    critical_path: Optional[CriticalPath] = None,
    whatifs: Sequence[object] = (),
) -> List[Dict[str, object]]:
    """Flatten blame output into JSONL rows.

    Same contract as :func:`telemetry_rows`: every row carries a
    ``type`` discriminator — ``request_blame``,
    ``critical_path_segment`` or ``whatif_delta`` — so a consumer can
    stream-filter without schema knowledge.  ``whatifs`` duck-types
    anything with ``to_dict()`` (the
    :class:`repro.obs.whatif.WhatIfReport` rows; typed as ``object``
    so this module stays below ``whatif`` in the layering).
    """
    rows: List[Dict[str, object]] = []
    for blame in requests:
        row = blame.to_dict()
        row["type"] = "request_blame"
        rows.append(row)
    if critical_path is not None:
        for position, segment in enumerate(critical_path.segments):
            row = segment.to_dict()
            row["type"] = "critical_path_segment"
            row["position"] = position
            rows.append(row)
    for report in whatifs:
        row = report.to_dict()  # type: ignore[attr-defined]
        row["type"] = "whatif_delta"
        rows.append(row)
    return rows


def write_jsonl(path: str, rows: Sequence[Dict[str, object]]) -> int:
    """Write telemetry rows to ``path`` as JSONL; returns the row count.

    One JSON object per line, keys sorted.  The rows come from
    :func:`telemetry_rows`, :func:`slo_telemetry_rows` or
    :func:`blame_telemetry_rows`.
    """
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(rows)


def read_telemetry_jsonl(path: str) -> List[Dict[str, object]]:
    """Load telemetry rows back from a JSONL file (blank lines skipped)."""
    rows: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _jsonable(value: object) -> object:
    """Clamp attribute values to JSON-safe primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)

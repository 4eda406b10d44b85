"""Execution-trace export: Chrome trace JSON and ASCII Gantt charts.

Turns an :class:`~repro.runtime.executor.ExecutionResult` into artifacts
a human can inspect: the Chrome tracing format (open ``chrome://tracing``
or Perfetto and drop the file in) and a terminal Gantt rendering used by
the examples.  Both views make pipeline bubbles visible as gaps in a
processor's row.

When an :class:`~repro.obs.InMemoryRecorder` that watched the planning
run is passed in, :func:`to_chrome_trace` merges everything it captured
into the same document:

* planner span trees as ``X`` slices on a second trace process
  (``pid 1``, wall time — kept apart from the simulated-time execution
  process so Perfetto never pretends the clocks are comparable);
* the metrics registry as ``C`` counter tracks;
* decision provenance as ``s``/``f`` flow arrows — a stolen boundary
  layer draws an arrow between the donor and recipient stage slices
  (falling back to planner-span → request-slice when a later phase
  erased the stage), a mitigation relocation draws one from the
  ``plan.mitigate`` span to the relocated request's first executed
  slice;
* the self-profile as a phase track — a second planner thread
  (``phases (self-profile)``) holding one back-to-back ``X`` slice per
  phase with the phase's *exclusive* wall time (see
  :func:`repro.obs.prof.phase_track_events`), so where the planner's
  time went is readable without leaving Perfetto.

With ``blame=True`` (on a result run with ``track_causality=True``)
the trace additionally renders the *blame view*: the exact critical
path's slices are highlighted (``cname: terrible`` + a ``critical_path``
arg) and each slice's wait interval is drawn on a per-processor
``<proc> waits`` thread, colored by wait state — processor-busy waits as
``thread_state_runnable``, memory-residency waits as
``thread_state_iowait``, the scheduler residual as ``grey`` and
preemption time as ``yellow`` (the legend documented in
docs/OBSERVABILITY.md).

Only the phases ``X``/``M``/``C``/``s``/``f`` are ever emitted; the
export tests schema-validate this.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .. import obs
from ..obs import export as obs_export
from ..obs import prof as obs_prof

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionResult

_EPS_MS = 1e-9


def _queue_depth(result: "ExecutionResult", time_ms: float) -> int:
    """Requests waiting at ``time_ms``: arrived, unfinished, not running."""
    depth = 0
    for r in range(result.num_requests):
        if result.request_arrival_ms[r] > time_ms + _EPS_MS:
            continue
        if result.request_finish_ms[r] <= time_ms + _EPS_MS:
            continue
        running = any(
            rec.request == r
            and rec.start_ms - _EPS_MS <= time_ms < rec.finish_ms - _EPS_MS
            for rec in result.records
        )
        if not running:
            depth += 1
    return depth


def _trace_counter_events(result: "ExecutionResult") -> List[Dict]:
    """Counter tracks sampled at every TracePoint (queue depth & memory)."""
    events: List[Dict] = []
    for point in result.trace:
        ts = point.time_ms * 1000.0
        events.append(
            {
                "name": "queue_depth",
                "cat": "runtime",
                "ph": "C",
                "pid": obs_export.EXECUTION_PID,
                "tid": 0,
                "ts": ts,
                "args": {"requests": _queue_depth(result, point.time_ms)},
            }
        )
        events.append(
            {
                "name": "bandwidth_demand_gbps",
                "cat": "runtime",
                "ph": "C",
                "pid": obs_export.EXECUTION_PID,
                "tid": 0,
                "ts": ts,
                "args": {"gbps": round(point.bandwidth_demand_gbps, 4)},
            }
        )
        events.append(
            {
                "name": "memory_used_mb",
                "cat": "runtime",
                "ph": "C",
                "pid": obs_export.EXECUTION_PID,
                "tid": 0,
                "ts": ts,
                "args": {"mb": round(point.used_bytes / 1e6, 3)},
            }
        )
    return events


def _slice_anchor(
    records_by: Dict[Tuple[int, int], "object"],
    tids: Dict[str, int],
    request: int,
    stage: int,
) -> Optional[Dict[str, float]]:
    """Flow endpoint (pid/tid/ts) at the midpoint of one executed slice."""
    rec = records_by.get((request, stage))
    if rec is None:
        return None
    return {
        "pid": obs_export.EXECUTION_PID,
        "tid": tids[rec.processor],  # type: ignore[attr-defined]
        "ts": (rec.start_ms + rec.finish_ms) / 2.0 * 1000.0,  # type: ignore[attr-defined]
    }


def _provenance_flows(
    result: "ExecutionResult",
    recorder: "obs.InMemoryRecorder",
    tids: Dict[str, int],
    planner_events: List[Dict],
) -> List[Dict]:
    """Flow arrows for committed steal/relocate decisions.

    ``LayerStolen`` arrows connect the donor stage's slice to the
    recipient stage's slice of the same request.  When an endpoint
    stage no longer exists in the executed plan (the steal emptied it,
    or a later placement/tail phase replaced the whole assignment) the
    arrow falls back to planner-to-execution: from the winning
    ``plan.vertical`` span to the request's first executed slice.
    ``RequestRelocated`` arrows run from the ``plan.mitigate`` planner
    span to the relocated request's first executed slice, crossing the
    two trace processes.
    """
    records_by: Dict[Tuple[int, int], object] = {}
    for rec in result.records:
        records_by[(rec.request, rec.stage)] = rec

    order: Optional[Tuple[int, ...]] = None
    for event in recorder.events:
        if event.kind == "order_committed":
            order = event.order  # type: ignore[attr-defined]

    def _planner_anchor(span_name: str) -> Optional[Dict[str, float]]:
        for pe in planner_events:
            if pe.get("name") == span_name:
                ts = float(pe["ts"]) + float(pe["dur"]) / 2.0  # type: ignore[arg-type]
                return {
                    "pid": obs_export.PLANNER_PID,
                    "tid": 0,
                    "ts": ts,
                }
        return None

    def _first_slice_anchor(exec_pos: int) -> Optional[Dict[str, float]]:
        first = min(
            (r for r in result.records if r.request == exec_pos),
            key=lambda r: r.start_ms,
            default=None,
        )
        if first is None:
            return None
        return {
            "pid": obs_export.EXECUTION_PID,
            "tid": tids[first.processor],
            "ts": (first.start_ms + first.finish_ms) / 2.0 * 1000.0,
        }

    mitigate_anchor = _planner_anchor("plan.mitigate")
    vertical_anchor = _planner_anchor("plan.vertical")

    flows: List[Dict] = []
    flow_id = 1
    for event in recorder.events:
        if event.kind == "layer_stolen":
            start = _slice_anchor(
                records_by, tids, event.request, event.from_stage  # type: ignore[attr-defined]
            )
            finish = _slice_anchor(
                records_by, tids, event.request, event.to_stage  # type: ignore[attr-defined]
            )
            if start is not None and finish is not None:
                # Same-process arrow: keep it pointing forward in time.
                if finish["ts"] < start["ts"]:
                    start, finish = finish, start
            else:
                # Stage endpoint gone from the final plan — bind the
                # decision to the planner span and the request's slice
                # (cross-process, so the clocks are not comparable).
                start = vertical_anchor
                finish = _first_slice_anchor(event.request)  # type: ignore[attr-defined]
            if start is None or finish is None:
                continue
            flows.extend(
                obs_export.flow_pair(
                    "layer_stolen",
                    flow_id,
                    start,
                    finish,
                    args={
                        "layer": event.layer,  # type: ignore[attr-defined]
                        "phase": event.phase,  # type: ignore[attr-defined]
                        "gain_ms": round(event.gain_ms, 4),  # type: ignore[attr-defined]
                    },
                )
            )
            flow_id += 1
        elif event.kind == "request_relocated":
            if mitigate_anchor is None or order is None:
                continue
            item = event.request  # type: ignore[attr-defined]
            if item not in order:
                continue
            exec_pos = order.index(item)
            finish = _first_slice_anchor(exec_pos)
            if finish is None:
                continue
            flows.extend(
                obs_export.flow_pair(
                    "request_relocated",
                    flow_id,
                    dict(mitigate_anchor),
                    finish,
                    args={
                        "request": item,
                        "from_position": event.source_position,  # type: ignore[attr-defined]
                        "to_position": event.target_position,  # type: ignore[attr-defined]
                    },
                )
            )
            flow_id += 1
    return flows


#: Chrome-trace reserved color (``cname``) per wait state / highlight.
WAIT_STATE_COLORS = {
    "processor_busy": "thread_state_runnable",
    "residency": "thread_state_iowait",
    "scheduler": "grey",
    "preempted": "yellow",
}
CRITICAL_PATH_COLOR = "terrible"

#: Wait components thinner than this render as noise; skip them.
_MIN_WAIT_SLICE_MS = 1e-6


def _blame_wait_events(
    result: "ExecutionResult",
    tids: Dict[str, int],
    name_of,
) -> List[Dict]:
    """Wait-state-colored ``X`` slices on per-processor wait threads.

    Each causality row's wait interval ``[ready, start]`` is rendered
    as back-to-back sub-slices in bucket order (busy → residency →
    scheduler, then any preemption time inside ``[start, finish]``).
    The bucket *totals* are exact; their ordering inside the interval
    is a rendering convention.
    """
    events: List[Dict] = []
    wait_tid = {proc: len(tids) + tid for proc, tid in tids.items()}
    for row in result.causality:
        if row.processor not in wait_tid:
            continue
        cursor = row.ready_ms
        parts = [
            ("processor_busy", row.processor_busy_wait_ms),
            ("residency", row.residency_wait_ms),
            ("scheduler", row.scheduler_wait_ms),
        ]
        if row.preempted_ms > _MIN_WAIT_SLICE_MS and row.start_ms is not None:
            parts.append(("preempted", row.preempted_ms))
        for state, dur_ms in parts:
            if dur_ms <= _MIN_WAIT_SLICE_MS:
                continue
            events.append(
                {
                    "name": (
                        f"{name_of(row.request)} / stage {row.stage} "
                        f"({state} wait)"
                    ),
                    "cat": "blame",
                    "ph": "X",
                    "pid": obs_export.EXECUTION_PID,
                    "tid": wait_tid[row.processor],
                    "ts": cursor * 1000.0,
                    "dur": dur_ms * 1000.0,
                    "cname": WAIT_STATE_COLORS[state],
                    "args": {
                        "request": row.request,
                        "wait_state": state,
                        "cause": row.cause,
                    },
                }
            )
            cursor += dur_ms
    return events


def to_chrome_trace(
    result: "ExecutionResult",
    request_names: Optional[Sequence[str]] = None,
    recorder: Optional["obs.InMemoryRecorder"] = None,
    residuals: Optional[Sequence["obs.ResidualReport"]] = None,
    timeline_windows: Optional[Sequence["obs.WindowStats"]] = None,
    slo_reports: Optional[Sequence["obs.SloWindowReport"]] = None,
    blame: bool = False,
) -> str:
    """Serialize a run as a Chrome trace (JSON string).

    Args:
        result: The simulated execution.
        request_names: Optional display names per request (model names);
            defaults to ``request <i>``.
        recorder: An :class:`~repro.obs.InMemoryRecorder` that watched
            the planning run; when given, planner spans, metric counter
            tracks and provenance flow arrows are merged in (see module
            docstring).
        residuals: Prediction-accuracy reports for this run (see
            :func:`repro.obs.accuracy.join_execution`); when given, a
            ``prediction_residual_ms`` counter track is drawn on the
            execution timeline, one sample per slice at its finish
            time — drift renders as a rising staircase under the Gantt.
        timeline_windows: Closed :class:`~repro.obs.WindowStats` rows
            from a :class:`~repro.obs.TimelineAggregator` fold; when
            given, per-processor utilization, time-averaged queue depth
            and throughput counter tracks sample at each window
            boundary on the execution timeline.
        slo_reports: Closed :class:`~repro.obs.SloWindowReport` rows
            from an :class:`~repro.obs.SloEvaluator`; when given, one
            fast/slow burn-rate counter track per SLO class is drawn.
        blame: Render the blame view (requires a result run with
            ``track_causality=True``): critical-path slices are
            highlighted and per-processor ``<proc> waits`` threads draw
            each slice's wait interval colored by wait state (see module
            docstring for the legend).

    Returns:
        A JSON document in the Chrome tracing "traceEvents" format with
        one track (tid) per processor; durations are microseconds.

    Raises:
        ValueError: if ``request_names`` has the wrong length, or on
            ``blame=True`` when the result has records but no causality
            data.
    """
    if request_names is not None and len(request_names) != result.num_requests:
        raise ValueError(
            f"expected {result.num_requests} names, got {len(request_names)}"
        )
    if blame and result.records and not result.causality:
        raise ValueError(
            "blame view needs causality data: run the engine with "
            "track_causality=True"
        )

    def name_of(request: int) -> str:
        if request_names is not None:
            return request_names[request]
        return f"request {request}"

    processors = sorted({r.processor for r in result.records})
    tids = {name: i for i, name in enumerate(processors)}
    events: List[Dict] = []
    events.extend(
        obs_export.process_metadata(
            obs_export.EXECUTION_PID, "execution (simulated time)"
        )
    )
    events.extend(
        obs_export.thread_metadata(obs_export.EXECUTION_PID, tid, proc)
        for proc, tid in tids.items()
    )
    path_keys: set = set()
    if blame:
        # Late import: obs.blame is a data-only leaf, but keeping it out
        # of module scope mirrors replay.py and keeps import time flat.
        from ..obs.blame import extract_critical_path

        path_keys = {
            (seg.request, seg.start_ms, seg.finish_ms)
            for seg in extract_critical_path(result).segments
            if seg.start_ms is not None
        }
    for rec in sorted(result.records, key=lambda r: r.start_ms):
        event = {
            "name": f"{name_of(rec.request)} / stage {rec.stage}",
            "cat": "slice",
            "ph": "X",
            "pid": obs_export.EXECUTION_PID,
            "tid": tids[rec.processor],
            "ts": rec.start_ms * 1000.0,
            "dur": rec.duration_ms * 1000.0,
            "args": {
                "request": rec.request,
                "solo_ms": rec.solo_ms,
                "slowdown": round(rec.slowdown, 4),
            },
        }
        if (rec.request, rec.start_ms, rec.finish_ms) in path_keys:
            event["cname"] = CRITICAL_PATH_COLOR
            event["args"]["critical_path"] = True  # type: ignore[index]
        events.append(event)
    if blame:
        wait_events = _blame_wait_events(result, tids, name_of)
        waiting_tids = {e["tid"] for e in wait_events}
        events.extend(
            obs_export.thread_metadata(
                obs_export.EXECUTION_PID,
                len(tids) + tid,
                f"{proc} waits",
            )
            for proc, tid in tids.items()
            if len(tids) + tid in waiting_tids
        )
        events.extend(wait_events)
    events.extend(_trace_counter_events(result))
    if residuals:
        events.extend(
            obs_export.residual_counter_events(
                residuals, pid=obs_export.EXECUTION_PID
            )
        )
    if timeline_windows:
        events.extend(
            obs_export.timeline_counter_events(
                timeline_windows, pid=obs_export.EXECUTION_PID
            )
        )
    if slo_reports:
        events.extend(
            obs_export.burn_rate_counter_events(
                slo_reports, pid=obs_export.EXECUTION_PID
            )
        )

    if recorder is not None and recorder.enabled:
        planner_events = obs_export.span_trace_events(
            recorder.spans, pid=obs_export.PLANNER_PID
        )
        if planner_events:
            events.extend(
                obs_export.process_metadata(
                    obs_export.PLANNER_PID,
                    "planner (wall time)",
                    sort_index=1,
                )
            )
            events.append(
                obs_export.thread_metadata(
                    obs_export.PLANNER_PID, 0, "planner"
                )
            )
            events.extend(planner_events)
            phase_events = obs_prof.phase_track_events(
                obs_prof.profile_spans(recorder.spans),
                pid=obs_export.PLANNER_PID,
                tid=1,
            )
            if phase_events:
                events.append(
                    obs_export.thread_metadata(
                        obs_export.PLANNER_PID, 1, "phases (self-profile)"
                    )
                )
                events.extend(phase_events)
        last_ts = max(
            (float(e["ts"]) + float(e.get("dur", 0.0)) for e in planner_events),
            default=0.0,
        )
        events.extend(
            obs_export.metric_counter_events(
                recorder.metrics, pid=obs_export.PLANNER_PID, ts_us=last_ts
            )
        )
        events.extend(
            _provenance_flows(result, recorder, tids, planner_events)
        )

    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def ascii_gantt(
    result: "ExecutionResult",
    request_names: Optional[Sequence[str]] = None,
    width: int = 72,
) -> str:
    """Render the run as a terminal Gantt chart.

    One row per processor; each request's slices are drawn with its
    digit/letter; idle time shows as dots (the visible bubbles).

    Raises:
        ValueError: for non-positive width or misfit names.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    if request_names is not None and len(request_names) != result.num_requests:
        raise ValueError(
            f"expected {result.num_requests} names, got {len(request_names)}"
        )
    span = result.makespan_ms
    if span <= 0:
        return "(empty run)"

    glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
    processors = sorted({r.processor for r in result.records})
    label_width = max(len(p) for p in processors)
    lines = []
    for proc in processors:
        row = ["."] * width
        for rec in result.records:
            if rec.processor != proc:
                continue
            lo = int(rec.start_ms / span * width)
            hi = max(lo + 1, int(rec.finish_ms / span * width))
            glyph = glyphs[rec.request % len(glyphs)]
            for pos in range(lo, min(hi, width)):
                row[pos] = glyph
        lines.append(f"{proc:<{label_width}s} |{''.join(row)}|")
    legend = ", ".join(
        f"{glyphs[i % len(glyphs)]}={request_names[i] if request_names else i}"
        for i in range(result.num_requests)
    )
    # The ruler spans the chart body; at small widths the dashes shrink
    # to (at least) one instead of going negative.
    left, right = "0 ms", f"{span:.0f} ms"
    dashes = max(1, width - len(left) - len(right) - 2)
    lines.append(f"{'':<{label_width}s}  {left} {'-' * dashes} {right}")
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def write_chrome_trace(
    result: "ExecutionResult",
    path: str,
    request_names: Optional[Sequence[str]] = None,
    recorder: Optional["obs.InMemoryRecorder"] = None,
    residuals: Optional[Sequence["obs.ResidualReport"]] = None,
    timeline_windows: Optional[Sequence["obs.WindowStats"]] = None,
    slo_reports: Optional[Sequence["obs.SloWindowReport"]] = None,
    blame: bool = False,
) -> None:
    """Write the (optionally merged, see :func:`to_chrome_trace`)
    Chrome trace JSON to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            to_chrome_trace(
                result,
                request_names,
                recorder=recorder,
                residuals=residuals,
                timeline_windows=timeline_windows,
                slo_reports=slo_reports,
                blame=blame,
            )
        )

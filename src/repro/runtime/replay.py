"""The run archive: serialization of executed schedules.

:func:`save_run` / :func:`load_run` round-trip a full run to JSON
(``hetero2pipe.run.v2``) — execution records, trace samples, causality
rows, the prediction-accuracy telemetry (residual reports + drift
events), timeline window stats and per-request blame breakdowns — so
accuracy and blame analysis can run offline, long after the run that
produced it.  v1 archives (no causality/windows/blame sections) still
load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Sequence, TYPE_CHECKING

from ..obs import (
    DriftDetected,
    RequestBlame,
    ResidualReport,
    TaskCausality,
    WindowStats,
    event_from_dict,
    report_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionResult


#: Schema identifier stamped into every serialized run document.
RUN_SCHEMA = "hetero2pipe.run.v2"

#: The previous schema (no causality/windows/blame sections); archives
#: stamped with it still load, with those sections empty.
RUN_SCHEMA_V1 = "hetero2pipe.run.v1"


@dataclass(frozen=True)
class RunArchive:
    """Everything :func:`load_run` rebuilds from one archive document.

    Unpacks like the historical 3-tuple (``result, residuals,
    drift_events = load_run(...)``); the v2 sections — timeline window
    stats and per-request blame breakdowns — ride along as extra
    fields (empty for v1 archives).
    """

    result: "ExecutionResult"
    residuals: List[ResidualReport] = field(default_factory=list)
    drift_events: List[DriftDetected] = field(default_factory=list)
    windows: List[WindowStats] = field(default_factory=list)
    blame: List[RequestBlame] = field(default_factory=list)

    def __iter__(self):
        return iter((self.result, self.residuals, self.drift_events))


def run_to_dict(
    result: "ExecutionResult",
    residuals: Sequence[ResidualReport] = (),
    drift_events: Sequence[DriftDetected] = (),
    windows: Sequence[WindowStats] = (),
    blame: Sequence[RequestBlame] = (),
) -> Dict[str, object]:
    """Serialize a run (+ telemetry) to a JSON-safe v2 document."""
    return {
        "schema": RUN_SCHEMA,
        "makespan_ms": result.makespan_ms,
        "request_arrival_ms": list(result.request_arrival_ms),
        "request_finish_ms": list(result.request_finish_ms),
        "processor_busy_ms": dict(result.processor_busy_ms),
        "memory_pressure_events": result.memory_pressure_events,
        "records": [r._asdict() for r in result.records],
        "trace": [asdict(p) for p in result.trace],
        "causality": [asdict(c) for c in result.causality],
        "corun_inflation_ms": [
            {"processor": a, "co_runner": b, "inflation_ms": v}
            for (a, b), v in sorted(result.corun_inflation_ms.items())
        ],
        "residuals": [r.to_dict() for r in residuals],
        "drift_events": [e.to_dict() for e in drift_events],
        "windows": [w.to_dict() for w in windows],
        "blame": [b.to_dict() for b in blame],
    }


def _from_fields(cls, doc: Dict[str, object]):
    """Rebuild a dataclass row, ignoring derived keys (residue etc.)."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in doc.items() if k in names})


def run_from_dict(doc: Dict[str, object]) -> RunArchive:
    """Rebuild a run (+ telemetry) from :func:`run_to_dict`.

    Accepts both the current ``hetero2pipe.run.v2`` schema and legacy
    ``...v1`` documents (whose causality / window / blame sections are
    simply absent).

    Raises:
        ValueError: on an unknown schema identifier.
    """
    from .executor import ExecutionResult, TaskRecord, TracePoint

    schema = doc.get("schema", RUN_SCHEMA)
    if schema not in (RUN_SCHEMA, RUN_SCHEMA_V1):
        raise ValueError(f"unsupported run schema {schema!r}")
    result = ExecutionResult(
        records=[
            TaskRecord(
                request=int(r["request"]),
                stage=int(r["stage"]),
                processor=str(r["processor"]),
                start_ms=float(r["start_ms"]),
                finish_ms=float(r["finish_ms"]),
                solo_ms=float(r["solo_ms"]),
                traffic_bytes=float(r.get("traffic_bytes", 0.0)),
            )
            for r in doc.get("records", [])  # type: ignore[union-attr]
        ],
        makespan_ms=float(doc["makespan_ms"]),  # type: ignore[arg-type]
        request_arrival_ms=[
            float(t) for t in doc.get("request_arrival_ms", [])  # type: ignore[union-attr]
        ],
        request_finish_ms=[
            float(t) for t in doc.get("request_finish_ms", [])  # type: ignore[union-attr]
        ],
        trace=[
            TracePoint(
                time_ms=float(p["time_ms"]),
                bandwidth_demand_gbps=float(p["bandwidth_demand_gbps"]),
                memory_freq_mhz=int(p["memory_freq_mhz"]),
                used_bytes=float(p["used_bytes"]),
                active_processors=tuple(p.get("active_processors", ())),
            )
            for p in doc.get("trace", [])  # type: ignore[union-attr]
        ],
        processor_busy_ms={
            str(k): float(v)
            for k, v in doc.get("processor_busy_ms", {}).items()  # type: ignore[union-attr]
        },
        memory_pressure_events=int(doc.get("memory_pressure_events", 0)),  # type: ignore[arg-type]
        causality=[
            TaskCausality(
                request=int(c["request"]),
                stage=int(c["stage"]),
                index=int(c["index"]),
                processor=str(c["processor"]),
                cause=str(c["cause"]),
                enabled_by=tuple(c["enabled_by"])  # type: ignore[arg-type]
                if c.get("enabled_by") is not None
                else None,
                ready_ms=float(c["ready_ms"]),
                start_ms=float(c["start_ms"])
                if c.get("start_ms") is not None
                else None,
                finish_ms=float(c["finish_ms"]),
                solo_ms=float(c["solo_ms"]),
                executed_solo_ms=float(c["executed_solo_ms"]),
                processor_busy_wait_ms=float(c["processor_busy_wait_ms"]),
                residency_wait_ms=float(c["residency_wait_ms"]),
                scheduler_wait_ms=float(c["scheduler_wait_ms"]),
                preempted_ms=float(c["preempted_ms"]),
                truncated=bool(c.get("truncated", False)),
            )
            for c in doc.get("causality", [])  # type: ignore[union-attr]
        ],
        corun_inflation_ms={
            (str(p["processor"]), str(p["co_runner"])): float(
                p["inflation_ms"]
            )
            for p in doc.get("corun_inflation_ms", [])  # type: ignore[union-attr]
        },
    )
    residuals = [
        report_from_dict(r) for r in doc.get("residuals", [])  # type: ignore[union-attr]
    ]
    drift_events = []
    for e in doc.get("drift_events", []):  # type: ignore[union-attr]
        event = event_from_dict(e)
        if not isinstance(event, DriftDetected):
            raise ValueError(f"expected drift_detected event, got {event.kind}")
        drift_events.append(event)
    windows = [
        _from_fields(WindowStats, w)
        for w in doc.get("windows", [])  # type: ignore[union-attr]
    ]
    blame = [
        _from_fields(RequestBlame, b)
        for b in doc.get("blame", [])  # type: ignore[union-attr]
    ]
    return RunArchive(
        result=result,
        residuals=residuals,
        drift_events=drift_events,
        windows=windows,
        blame=blame,
    )


def save_run(
    path: str,
    result: "ExecutionResult",
    residuals: Sequence[ResidualReport] = (),
    drift_events: Sequence[DriftDetected] = (),
    windows: Sequence[WindowStats] = (),
    blame: Sequence[RequestBlame] = (),
) -> None:
    """Write a run (+ telemetry) as a JSON ``hetero2pipe.run.v2`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            run_to_dict(
                result,
                residuals,
                drift_events,
                windows=windows,
                blame=blame,
            ),
            handle,
        )


def load_run(path: str) -> RunArchive:
    """Load a run written by :func:`save_run` (v1 or v2)."""
    with open(path, "r", encoding="utf-8") as handle:
        return run_from_dict(json.load(handle))


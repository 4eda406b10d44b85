"""Per-layer tracing from outside the program under test.

The benchmark does not instrument ``repro``: it wraps the public entry
points that callers resolve at call time (module attributes and class
attributes) for the duration of one traced pass, then restores them.
Every wrapped call becomes a frame on one stack, so each entry point
gets its call count, inclusive time and self time (duration minus the
time its wrapped children took).  Coarse entry points are also kept as
spans ``(id, name, start, end, parent, op)`` in memory and written out
as one Chrome-trace JSON document; per-event entry points (engine
steps, slowdown evaluations, telemetry folds) are only aggregated,
because a cold plan makes tens of thousands of them.

:func:`layer_metrics` turns the aggregates into the ``per_layer``
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hosttime import host_clock

#: Bound on kept spans; later spans are counted in ``dropped_spans``.
MAX_SPANS = 200_000

# Entry points: (span name, module, attribute path, keep spans).  A span
# name is its layer, or maps to it in ``LAYER_OF`` when a layer has
# several entry points.  ``repro.core.online`` imports ``execute_plan``
# by name, so that binding is wrapped as well.
ENTRY_POINTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("core.planner.plan", "repro.core.planner", "Hetero2PipePlanner.plan", True),
    (
        "core.planner.invalidate_caches",
        "repro.core.planner",
        "Hetero2PipePlanner.invalidate_caches",
        True,
    ),
    ("core.partition", "repro.core.planner", "partition_model", True),
    ("core.mitigation", "repro.core.planner", "mitigate_sequence", True),
    ("core.stealing", "repro.core.planner", "vertical_alignment", True),
    ("core.objective", "repro.core.objective", "ObjectiveCache.__call__", True),
    (
        "core.contention.classify",
        "repro.core.contention",
        "ContentionEstimator.classify",
        True,
    ),
    (
        "core.contention.fit",
        "repro.core.contention",
        "ContentionEstimator.fit_from_zoo",
        True,
    ),
    ("profiling.profile", "repro.profiling.profiler", "SocProfiler.profile", True),
    ("runtime.executor.execute", "repro.runtime.executor", "execute_plan", True),
    ("runtime.executor.execute", "repro.core.online", "execute_plan", True),
    (
        "runtime.executor.execute",
        "repro.runtime.executor",
        "execute_plan_perturbed",
        True,
    ),
    (
        "runtime.executor.plan_to_chains",
        "repro.runtime.executor",
        "plan_to_chains",
        True,
    ),
    (
        "runtime.executor.replicate_chains",
        "repro.runtime.executor",
        "replicate_chains",
        True,
    ),
    (
        "runtime.engine.init",
        "repro.runtime.engine",
        "DiscreteEventEngine.__init__",
        False,
    ),
    ("runtime.engine.run", "repro.runtime.engine", "DiscreteEventEngine.run", True),
    (
        "runtime.engine.step",
        "repro.runtime.engine",
        "DiscreteEventEngine.step",
        False,
    ),
    (
        "runtime.engine.result",
        "repro.runtime.engine",
        "DiscreteEventEngine.result",
        True,
    ),
    ("profiling.slowdown", "repro.runtime.engine", "slowdown_fraction", False),
    ("core.online", "repro.core.online", "StreamingPlanner.run", True),
    ("obs.accuracy", "repro.obs", "join_execution", True),
    ("obs.drift", "repro.obs.drift", "DriftMonitor.observe_report", True),
    (
        "obs.timeline.init",
        "repro.obs.timeline",
        "TimelineAggregator.__init__",
        True,
    ),
    (
        "obs.timeline.observe",
        "repro.obs.timeline",
        "TimelineAggregator.observe",
        False,
    ),
    ("obs.timeline.finish", "repro.obs.timeline", "TimelineAggregator.finish", True),
    (
        "obs.timeline.littles_law",
        "repro.obs.timeline",
        "TimelineAggregator.littles_law",
        True,
    ),
    ("obs.slo.init", "repro.obs.slo", "SloEvaluator.__init__", True),
    ("obs.slo.observe", "repro.obs.slo", "SloEvaluator.observe", False),
    ("obs.slo.finish", "repro.obs.slo", "SloEvaluator.finish", True),
    ("obs.blame.requests", "repro.obs.blame", "blame_requests", True),
    ("obs.blame.aggregate", "repro.obs.blame", "aggregate_blame", True),
    ("obs.blame.critical_path", "repro.obs.blame", "extract_critical_path", True),
)

#: Span name -> layer (the module whose work the span measures).
LAYER_OF: Dict[str, str] = {
    "core.planner.plan": "core.planner",
    "core.planner.invalidate_caches": "core.planner",
    "core.contention.classify": "core.contention",
    "core.contention.fit": "core.contention",
    "runtime.executor.execute": "runtime.executor",
    "runtime.executor.plan_to_chains": "runtime.executor",
    "runtime.executor.replicate_chains": "runtime.executor",
    "runtime.engine.init": "runtime.engine",
    "runtime.engine.run": "runtime.engine",
    "runtime.engine.step": "runtime.engine",
    "runtime.engine.result": "runtime.engine",
    "obs.timeline.init": "obs.timeline",
    "obs.timeline.observe": "obs.timeline",
    "obs.timeline.finish": "obs.timeline",
    "obs.timeline.littles_law": "obs.timeline",
    "obs.slo.init": "obs.slo",
    "obs.slo.observe": "obs.slo",
    "obs.slo.finish": "obs.slo",
    "obs.blame.requests": "obs.blame",
    "obs.blame.aggregate": "obs.blame",
    "obs.blame.critical_path": "obs.blame",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name)


class _Frame:
    __slots__ = ("name", "layer", "start", "child_s", "children", "id", "parent", "outer")

    def __init__(self, name: str, layer: str, span_id: Optional[int], parent: Optional[int]):
        self.name = name
        self.layer = layer
        self.child_s = 0.0
        self.children = 0
        self.id = span_id
        self.parent = parent
        self.outer = False
        self.start = 0.0


class Tracer:
    """Call stack, per-entry aggregates and kept spans of one traced pass.

    ``op`` is set by the caller to the id of the benchmark operation in
    progress; every kept span carries it, so the spans of one operation
    can be selected in the trace viewer.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.layer_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.dropped_spans = 0
        self.op = 0
        self._stack: List[_Frame] = []
        self._depth: Counter = Counter()
        self._next_id = 0

    def inside(self, layer: str) -> bool:
        """True while a frame of ``layer`` is on the stack."""
        return self._depth[layer] > 0

    def _push(self, name: str, keepable: bool) -> _Frame:
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top.id if top.id is not None else top.parent
        span_id = None
        if keepable:
            span_id = self._next_id
            self._next_id += 1
        layer = layer_of(name)
        frame = _Frame(name, layer, span_id, parent)
        frame.outer = self._depth[layer] == 0
        self._depth[layer] += 1
        self._stack.append(frame)
        frame.start = host_clock()
        return frame

    def _pop(self, frame: _Frame, keep: bool) -> None:
        end = host_clock()
        duration = end - frame.start
        self._stack.pop()
        self._depth[frame.layer] -= 1
        name = frame.name
        self.calls[name] += 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child_s
        if frame.outer:
            self.layer_s[frame.layer] = self.layer_s.get(frame.layer, 0.0) + duration
        if self._stack:
            top = self._stack[-1]
            top.child_s += duration
            top.children += 1
        if keep and frame.id is not None:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame.id, name, frame.start, end, frame.parent, self.op))
            else:
                self.dropped_spans += 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        keepable: bool,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a frame; ``after(tracer, frame, args, kwargs,
        result)`` may count outcomes and returns whether to keep the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(name, keepable)
            keep = keepable
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._pop(frame, keep)
                raise
            if after is not None:
                keep = after(tracer, frame, args, kwargs, result) and keep
            tracer._pop(frame, keep)
            return result

        return traced

    def chrome_trace(self, meta: Dict[str, object]) -> Dict[str, object]:
        """The kept spans as a Chrome-trace (``traceEvents``) document."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for span_id, name, start, end, parent, op in sorted(
                self.spans, key=lambda s: (s[2], -s[3])
            )
        ]
        other = dict(meta)
        other["dropped_spans"] = self.dropped_spans
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


# ------------------------------------------------------------ outcome hooks


def _objective_after(tracer, frame, args, kwargs, result):
    # A probe that ran a simulation has the simulation as a child; a
    # cache hit is a dictionary lookup with no wrapped children.
    tracer.counts["objective.probes"] += 1
    if frame.children:
        tracer.counts["objective.misses"] += 1
        return True
    return False


def _plan_after(tracer, frame, args, kwargs, result):
    # A plan-cache hit clones the cached report without profiling,
    # partitioning or probing anything.
    if frame.children == 0:
        tracer.counts["planner.plan_cache_hits"] += 1
    return True


def _invalidate_after(tracer, frame, args, kwargs, result):
    if tracer.inside("core.online"):
        tracer.counts["online.invalidations"] += 1
    return True


def _execute_after(tracer, frame, args, kwargs, result):
    if kwargs.get("record", True) is False:
        tracer.counts["executor.probe_calls"] += 1
    return True


def _result_after(tracer, frame, args, kwargs, result):
    tracer.counts["engine.runs"] += 1
    tracer.counts["engine.tasks"] += len(result.records)
    tracer.counts["engine.memory_pressure_events"] += result.memory_pressure_events
    tracer.counts["engine.deadline_drops"] += len(result.dropped_requests)
    return True


def _online_after(tracer, frame, args, kwargs, result):
    tracer.counts["online.windows"] += len(result.windows)
    tracer.counts["online.replans"] += result.replans
    return True


def _drift_after(tracer, frame, args, kwargs, result):
    tracer.counts["drift.fired"] += len(result)
    return True


AFTER: Dict[str, Callable] = {
    "core.objective": _objective_after,
    "core.planner.plan": _plan_after,
    "core.planner.invalidate_caches": _invalidate_after,
    "runtime.executor.execute": _execute_after,
    "runtime.engine.result": _result_after,
    "core.online": _online_after,
    "obs.drift": _drift_after,
}


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the duration of the block."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for name, module_name, path, keepable in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            after = AFTER.get(name)
            if isinstance(raw, classmethod):
                wrapped: object = classmethod(tracer.wrap(name, raw.__func__, keepable, after))
            else:
                wrapped = tracer.wrap(name, raw, keepable, after)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ------------------------------------------------------------ the metrics


def layer_metrics(
    tracer: Tracer,
    traced_s: float,
    overhead_frac: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of ``traced_s`` host seconds.

    Host times are shares of the traced pass's host time: ``.frac`` is
    the time inside a layer (nested calls counted once) and
    ``.self_frac`` its self time.  ``overhead_frac`` is the traced pass's
    cost over the untraced one's, both at the reference speed; ``extra``
    carries the values the workload's output checks computed
    (optimality gap, largest blame residue, highest sustainable rate).
    """
    c, n = tracer.counts, tracer.calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def frac(layer: str) -> float:
        return ratio(tracer.layer_s.get(layer, 0.0), traced_s)

    def self_frac(*names: str) -> float:
        return ratio(sum(tracer.self_s.get(x, 0.0) for x in names), traced_s)

    def entry_frac(name: str) -> float:
        return ratio(tracer.total_s.get(name, 0.0), traced_s)

    plans = n["core.planner.plan"]
    plan_misses = plans - c["planner.plan_cache_hits"]
    tasks = c["engine.tasks"]
    out = {
        "core.planner.calls": plans,
        "core.planner.self_frac": self_frac(
            "core.planner.plan", "core.planner.invalidate_caches"
        ),
        "core.planner.plan_cache_hit_frac": ratio(c["planner.plan_cache_hits"], plans),
        "core.planner.optimality_gap": extra["optimality_gap"],
        "core.objective.probes": c["objective.probes"],
        "core.objective.misses": c["objective.misses"],
        "core.objective.hit_frac": ratio(
            c["objective.probes"] - c["objective.misses"], c["objective.probes"]
        ),
        "core.objective.misses_per_plan": ratio(c["objective.misses"], plan_misses),
        "core.objective.frac": frac("core.objective"),
        "core.stealing.calls": n["core.stealing"],
        "core.stealing.self_frac": self_frac("core.stealing"),
        "core.partition.calls": n["core.partition"],
        "core.partition.frac": frac("core.partition"),
        "core.mitigation.calls": n["core.mitigation"],
        "core.mitigation.frac": frac("core.mitigation"),
        "core.contention.calls": n["core.contention.classify"],
        "core.contention.frac": entry_frac("core.contention.classify"),
        "core.contention.fit_frac": entry_frac("core.contention.fit"),
        "profiling.profile.calls": n["profiling.profile"],
        "profiling.profile.frac": frac("profiling.profile"),
        "runtime.executor.calls": n["runtime.executor.execute"],
        "runtime.executor.probe_calls": c["executor.probe_calls"],
        "runtime.executor.self_frac": self_frac(
            "runtime.executor.execute",
            "runtime.executor.plan_to_chains",
            "runtime.executor.replicate_chains",
        ),
        "runtime.executor.plan_to_chains.calls": n["runtime.executor.plan_to_chains"],
        "runtime.executor.plan_to_chains.frac": entry_frac(
            "runtime.executor.plan_to_chains"
        ),
        "runtime.engine.runs": c["engine.runs"],
        "runtime.engine.steps": n["runtime.engine.step"],
        "runtime.engine.frac": frac("runtime.engine"),
        "runtime.engine.tasks": tasks,
        "runtime.engine.us_per_task": ratio(
            tracer.layer_s.get("runtime.engine", 0.0) * 1e6, tasks
        ),
        "runtime.engine.memory_pressure_events": c["engine.memory_pressure_events"],
        "runtime.engine.deadline_drops": c["engine.deadline_drops"],
        "profiling.slowdown.calls": n["profiling.slowdown"],
        "profiling.slowdown.calls_per_task": ratio(n["profiling.slowdown"], tasks),
        "profiling.slowdown.frac": frac("profiling.slowdown"),
        "core.online.windows": c["online.windows"],
        "core.online.self_frac": self_frac("core.online"),
        "core.online.replans": c["online.replans"],
        "core.online.invalidations": c["online.invalidations"],
        "obs.accuracy.calls": n["obs.accuracy"],
        "obs.accuracy.frac": frac("obs.accuracy"),
        "obs.drift.calls": n["obs.drift"],
        "obs.drift.frac": frac("obs.drift"),
        "obs.drift.fired": c["drift.fired"],
        "obs.timeline.events": n["obs.timeline.observe"],
        "obs.timeline.frac": frac("obs.timeline"),
        "obs.slo.events": n["obs.slo.observe"],
        "obs.slo.frac": frac("obs.slo"),
        "obs.slo.max_rate_per_s": extra["max_rate_per_s"],
        "obs.blame.calls": n["obs.blame.requests"]
        + n["obs.blame.aggregate"]
        + n["obs.blame.critical_path"],
        "obs.blame.frac": frac("obs.blame"),
        "obs.blame.max_residue_frac": extra["max_residue_frac"],
        "trace.overhead_frac": overhead_frac,
        "trace.coverage_frac": ratio(sum(tracer.self_s.values()), traced_s),
        "trace.spans": len(tracer.spans),
    }
    return {k: float(v) for k, v in out.items()}


def write_chrome_trace(tracer: Tracer, path: str, meta: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(meta), fh, separators=(",", ":"))


def self_times_us(document: Dict[str, object]) -> Dict[int, float]:
    """Self time of every span in a Chrome-trace document written by
    :func:`write_chrome_trace`: its duration minus its kept children's."""
    events = document["traceEvents"]
    child_us: Dict[int, float] = {}
    for ev in events:  # type: ignore[union-attr]
        parent = ev["args"]["parent"]
        if parent is not None:
            child_us[parent] = child_us.get(parent, 0.0) + ev["dur"]
    return {
        ev["args"]["id"]: ev["dur"] - child_us.get(ev["args"]["id"], 0.0)
        for ev in events  # type: ignore[union-attr]
    }

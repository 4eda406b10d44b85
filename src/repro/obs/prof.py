"""Phase-attributed self-profiling over the obs span tree.

Naming note — two "profilers" live in this repo and they are *not* the
same thing: :mod:`repro.profiling` is **hardware latency profiling**
(the paper's offline step — solo latencies, PMU features, co-execution
slowdowns of the *simulated SoC*), while this module is **software
self-profiling** — where does the *planner's own wall time* go?  See
``docs/ARCHITECTURE.md`` for the disambiguation.

The profiler rides the span tree PR 2 already records: every planner
stage opens a span (``plan.partition``, ``plan.mitigate``,
``plan.vertical``, ``plan.objective``, ...), so attributing wall time is
a pure function of an :class:`~repro.obs.recorder.InMemoryRecorder`'s
``spans`` list — no new instrumentation sites, no second clock, and the
disabled path stays exactly as cheap as before.

Three layers:

* :func:`profile_spans` — fold span trees into per-phase and per-span
  statistics: call counts, *inclusive* time (span duration) and
  *exclusive* time (duration minus children; exclusive times across all
  spans sum exactly to the root total, so attribution never double
  counts).  Span names map to coarse phases (``partition`` /
  ``objective`` / ``stealing`` / ``mitigation`` / ``online`` / ...)
  through :data:`DEFAULT_PHASES`.
* Exporters — :func:`collapsed_stacks` (flamegraph.pl format),
  :func:`speedscope_document` (speedscope "evented" JSON) and
  :func:`phase_track_events` (Chrome-trace ``X`` slices merged into the
  Perfetto export by :func:`repro.runtime.tracing.to_chrome_trace`).
* :class:`ProfilingRecorder` — an :class:`InMemoryRecorder` that can
  additionally scope a ``cProfile`` capture to one span name and
  attribute net ``tracemalloc`` allocations to every span (and hence to
  phases).

The ``hetero2pipe profile`` CLI verb fronts all of it; the JSON schema
is ``hetero2pipe.profile.v1`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .recorder import InMemoryRecorder
from .spans import Span

#: Stable schema marker of the ``hetero2pipe profile --json`` document.
PROFILE_SCHEMA = "hetero2pipe.profile.v1"

#: Span name -> coarse phase.  Unknown spans fall into ``other``.
DEFAULT_PHASES: Dict[str, str] = {
    "plan.profile": "profiling",
    "plan.partition": "partition",
    "plan.classify": "classify",
    "plan.mitigate": "mitigation",
    "plan.objective": "objective",
    "plan.vertical": "stealing",
    "plan.steal": "stealing",
    "plan.refine_global": "stealing",
    "plan.placements": "stealing",
    "plan.tail": "stealing",
    "stream.window": "online",
    "execute": "execute",
}

#: Phase assigned to spans with no mapping (root ``plan`` glue, etc.).
OTHER_PHASE = "other"


def phase_of(span_name: str) -> str:
    """Coarse phase of a span name under :data:`DEFAULT_PHASES`."""
    return DEFAULT_PHASES.get(span_name, OTHER_PHASE)


@dataclass
class SpanStat:
    """Aggregate statistics for one span *name* across all occurrences."""

    name: str
    phase: str
    calls: int = 0
    inclusive_ms: float = 0.0
    exclusive_ms: float = 0.0
    min_ms: float = float("inf")
    max_ms: float = 0.0
    alloc_net_bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "calls": self.calls,
            "inclusive_ms": self.inclusive_ms,
            "exclusive_ms": self.exclusive_ms,
            "min_ms": self.min_ms if self.calls else 0.0,
            "max_ms": self.max_ms,
            "alloc_net_bytes": self.alloc_net_bytes,
        }


@dataclass
class PhaseStat:
    """Aggregate statistics for one phase.

    ``inclusive_ms`` sums only *top-most* spans of the phase (a
    ``plan.steal`` nested under ``plan.vertical`` — both ``stealing`` —
    is not counted twice); ``exclusive_ms`` sums every span's
    self-time, so exclusive totals across phases partition the run.
    """

    phase: str
    calls: int = 0
    inclusive_ms: float = 0.0
    exclusive_ms: float = 0.0
    alloc_net_bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "inclusive_ms": self.inclusive_ms,
            "exclusive_ms": self.exclusive_ms,
            "alloc_net_bytes": self.alloc_net_bytes,
        }


@dataclass
class PhaseProfile:
    """The folded profile of one recorded run."""

    total_ms: float
    phases: Dict[str, PhaseStat] = field(default_factory=dict, init=False)
    spans: Dict[str, SpanStat] = field(default_factory=dict, init=False)

    @property
    def attributed_ms(self) -> float:
        """Exclusive time landing in a *named* phase (not ``other``)."""
        return sum(
            p.exclusive_ms for p in self.phases.values()
            if p.phase != OTHER_PHASE
        )

    @property
    def attributed_frac(self) -> float:
        """Fraction of total inclusive wall time attributed to named
        phases; the acceptance bar for a cold plan is >= 0.9."""
        if self.total_ms <= 0.0:
            return 0.0
        return self.attributed_ms / self.total_ms

    def phases_by_exclusive(self) -> List[PhaseStat]:
        return sorted(
            self.phases.values(), key=lambda p: p.exclusive_ms, reverse=True
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_ms": self.total_ms,
            "attributed_frac": self.attributed_frac,
            "phases": {
                name: stat.to_dict()
                for name, stat in sorted(self.phases.items())
            },
            "spans": {
                name: stat.to_dict()
                for name, stat in sorted(self.spans.items())
            },
        }


def _span_exclusive_ms(span: Span) -> float:
    """Self-time: duration minus the children's durations (>= 0)."""
    child_ms = sum(c.duration_ms for c in span.children)
    return max(0.0, span.duration_ms - child_ms)


def _alloc_net_bytes(span: Span) -> int:
    value = span.attrs.get("alloc_net_bytes")
    return int(value) if isinstance(value, (int, float)) else 0


def profile_spans(roots: Sequence[Span]) -> PhaseProfile:
    """Fold span trees into the per-phase / per-span profile.

    Args:
        roots: Root spans (e.g. ``recorder.spans``); the whole trees are
            walked.  Each span's phase is :func:`phase_of` its name.
    """
    total_ms = sum(root.duration_ms for root in roots)
    profile = PhaseProfile(total_ms=total_ms)

    def visit(span: Span, ancestor_phases: Tuple[str, ...]) -> None:
        phase = phase_of(span.name)
        exclusive = _span_exclusive_ms(span)
        inclusive = span.duration_ms
        alloc = _alloc_net_bytes(span)

        stat = profile.spans.get(span.name)
        if stat is None:
            stat = profile.spans[span.name] = SpanStat(span.name, phase)
        stat.calls += 1
        stat.inclusive_ms += inclusive
        stat.exclusive_ms += exclusive
        stat.min_ms = min(stat.min_ms, inclusive)
        stat.max_ms = max(stat.max_ms, inclusive)
        stat.alloc_net_bytes += alloc

        pstat = profile.phases.get(phase)
        if pstat is None:
            pstat = profile.phases[phase] = PhaseStat(phase)
        pstat.calls += 1
        pstat.exclusive_ms += exclusive
        if phase not in ancestor_phases:
            # Top-most span of its phase on this path: count inclusive
            # once, and attribute the *net* allocation here too (the
            # children's nets are already inside the parent's delta).
            pstat.inclusive_ms += inclusive
            pstat.alloc_net_bytes += alloc

        for child in span.children:
            visit(child, ancestor_phases + (phase,))

    for root in roots:
        visit(root, ())
    return profile


def render_phase_table(profile: PhaseProfile) -> str:
    """The terminal phase table ``hetero2pipe profile`` prints.

    One row per phase (descending exclusive time) with an inline bar,
    then the attribution summary line; 72 columns wide.
    """
    lines = [
        f"{'phase':<12s} {'calls':>7s} {'excl ms':>10s} {'incl ms':>10s} "
        f"{'excl %':>7s}"
    ]
    bar_width = 20  # 72 columns less the 52 of the numeric columns
    for stat in profile.phases_by_exclusive():
        frac = (
            stat.exclusive_ms / profile.total_ms if profile.total_ms else 0.0
        )
        bar = "#" * max(0, round(frac * bar_width))
        lines.append(
            f"{stat.phase:<12s} {stat.calls:>7d} {stat.exclusive_ms:>10.2f} "
            f"{stat.inclusive_ms:>10.2f} {frac * 100:>6.1f}% {bar}"
        )
    lines.append(
        f"total {profile.total_ms:.2f} ms, "
        f"{profile.attributed_frac * 100:.1f}% attributed to named phases"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------- exports


def collapsed_stacks(roots: Sequence[Span]) -> str:
    """Spans as collapsed stacks (``flamegraph.pl`` input format).

    One line per distinct span path — ``plan;plan.candidate;plan.steal
    1234`` — whose value is the path's summed *exclusive* time in
    integer microseconds, so the flame graph's widths add up exactly to
    the recorded total.  Zero-weight lines are dropped.  Stacks are by
    span name; phases are a separate view (:func:`profile_spans`).
    """
    weights: Dict[Tuple[str, ...], int] = {}

    def visit(span: Span, path: Tuple[str, ...]) -> None:
        stack = path + (span.name,)
        weight = round(_span_exclusive_ms(span) * 1e3)
        if weight > 0:
            weights[stack] = weights.get(stack, 0) + weight
        for child in span.children:
            visit(child, stack)

    for root in roots:
        visit(root, ())
    lines = [
        ";".join(stack) + f" {weight}"
        for stack, weight in sorted(weights.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


#: Schema URL speedscope documents self-identify with.
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def speedscope_document(roots: Sequence[Span]) -> Dict[str, object]:
    """Spans as a speedscope ``evented`` profile (JSON-ready dict).

    Frames are keyed by span name; open/close events follow the span
    tree's nesting in microseconds relative to the earliest root, so the
    document drags straight into https://www.speedscope.app.
    """
    name = "hetero2pipe profile"
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, object]] = []
    events: List[Dict[str, object]] = []
    if not roots:
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "shared": {"frames": []},
            "profiles": [],
        }
    t0 = min(root.start_s for root in roots)
    end_value = 0.0

    def frame_of(span_name: str) -> int:
        idx = frame_index.get(span_name)
        if idx is None:
            idx = frame_index[span_name] = len(frames)
            frames.append({"name": span_name})
        return idx

    def visit(span: Span) -> None:
        nonlocal end_value
        start_us = (span.start_s - t0) * 1e6
        end_s = span.end_s if span.end_s is not None else span.start_s
        end_us = max(start_us, (end_s - t0) * 1e6)
        end_value = max(end_value, end_us)
        events.append({"type": "O", "frame": frame_of(span.name), "at": start_us})
        for child in span.children:
            visit(child)
        events.append({"type": "C", "frame": frame_of(span.name), "at": end_us})

    for root in sorted(roots, key=lambda r: r.start_s):
        visit(root)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "microseconds",
                "startValue": 0.0,
                "endValue": end_value,
                "events": events,
            }
        ],
    }


def phase_track_events(
    profile: PhaseProfile,
    pid: int,
    tid: int = 1,
) -> List[Dict[str, object]]:
    """The profile as a Chrome-trace phase track (``X`` slices).

    Phases are laid out back-to-back from ts 0 (descending exclusive
    time) so the track reads as a one-row flame summary of where the
    planner's wall time went; merged under the planner pid by
    :func:`repro.runtime.tracing.to_chrome_trace`.
    """
    events: List[Dict[str, object]] = []
    cursor_us = 0.0
    for stat in profile.phases_by_exclusive():
        dur_us = stat.exclusive_ms * 1e3
        if dur_us <= 0.0:
            continue
        frac = (
            stat.exclusive_ms / profile.total_ms if profile.total_ms else 0.0
        )
        events.append(
            {
                "name": f"phase:{stat.phase}",
                "cat": "profile",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": cursor_us,
                "dur": dur_us,
                "args": {
                    "calls": stat.calls,
                    "inclusive_ms": round(stat.inclusive_ms, 4),
                    "exclusive_frac": round(frac, 4),
                },
            }
        )
        cursor_us += dur_us
    return events


# ------------------------------------------------- capturing recorder


class ProfilingRecorder(InMemoryRecorder):
    """An in-memory recorder with optional deep-capture hooks.

    Args:
        cprofile_span: When set, a single :class:`cProfile.Profile` is
            enabled while a span of this *name* is open (nested
            occurrences share one capture), so the function-level
            profile covers exactly that region — pass ``"plan"`` to
            profile planning and nothing else.
        trace_allocations: When true (and :mod:`tracemalloc` is
            tracing — see :func:`profiling_session`), every closed span
            carries ``alloc_net_bytes``: the net traced-memory delta
            across its lifetime, which :func:`profile_spans` rolls up
            into per-phase allocation attribution.
    """

    def __init__(
        self,
        cprofile_span: Optional[str] = None,
        trace_allocations: bool = False,
    ) -> None:
        super().__init__()
        self.cprofile_span = cprofile_span
        self.trace_allocations = trace_allocations
        self.cprofile: Optional[cProfile.Profile] = (
            cProfile.Profile() if cprofile_span else None
        )
        self._capture_depth = 0
        self._alloc_start: Dict[int, int] = {}

    def start_span(self, name: str, attrs: Dict[str, object]) -> Span:
        span = super().start_span(name, attrs)
        if self.trace_allocations and tracemalloc.is_tracing():
            self._alloc_start[id(span)] = tracemalloc.get_traced_memory()[0]
        if self.cprofile is not None and name == self.cprofile_span:
            if self._capture_depth == 0:
                self.cprofile.enable()
            self._capture_depth += 1
        return span

    def _close_span(self, span: Span) -> None:
        if self.cprofile is not None and span.name == self.cprofile_span:
            self._capture_depth = max(0, self._capture_depth - 1)
            if self._capture_depth == 0:
                self.cprofile.disable()
        start = self._alloc_start.pop(id(span), None)
        if start is not None and tracemalloc.is_tracing():
            span.attrs["alloc_net_bytes"] = (
                tracemalloc.get_traced_memory()[0] - start
            )
        super()._close_span(span)

    def cprofile_rows(self, top: int = 15) -> List[Dict[str, object]]:
        """The hottest functions of the scoped capture (by cumulative
        time), as JSON-ready rows; empty when capture was off."""
        if self.cprofile is None:
            return []
        stats = pstats.Stats(self.cprofile)
        rows: List[Dict[str, object]] = []
        entries = sorted(
            stats.stats.items(),  # type: ignore[attr-defined]
            key=lambda item: item[1][3],  # cumulative seconds
            reverse=True,
        )
        for (filename, lineno, func), row in entries[: max(0, top)]:
            cc, ncalls, tottime, cumtime = row[0], row[1], row[2], row[3]
            del cc
            rows.append(
                {
                    "function": f"{filename}:{lineno}({func})",
                    "calls": ncalls,
                    "self_s": tottime,
                    "cumulative_s": cumtime,
                }
            )
        return rows


class _ProfilingSession:
    """Context manager pairing a :class:`ProfilingRecorder` with the
    process-global recorder slot and the tracemalloc lifecycle."""

    def __init__(
        self, cprofile_span: Optional[str], trace_allocations: bool
    ) -> None:
        self.recorder = ProfilingRecorder(
            cprofile_span=cprofile_span,
            trace_allocations=trace_allocations,
        )
        self._trace_allocations = trace_allocations
        self._started_tracemalloc = False
        self._previous: Optional[object] = None

    def __enter__(self) -> ProfilingRecorder:
        from .recorder import set_recorder

        if self._trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._previous = set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: object) -> None:
        from .recorder import Recorder, set_recorder

        assert isinstance(self._previous, Recorder)
        set_recorder(self._previous)
        if self._started_tracemalloc:
            tracemalloc.stop()


def profiling_session(
    cprofile_span: Optional[str] = None,
    trace_allocations: bool = False,
) -> _ProfilingSession:
    """Scoped self-profiling: installs a :class:`ProfilingRecorder`
    process-wide and manages :mod:`tracemalloc` start/stop::

        with prof.profiling_session(cprofile_span="plan") as rec:
            planner.plan(models)
        table = prof.render_phase_table(prof.profile_spans(rec.spans))
    """
    return _ProfilingSession(cprofile_span, trace_allocations)

"""The process-global, swappable recorder and its fast-path helpers.

Instrumented code never talks to a recorder instance directly — it calls
the module-level helpers (:func:`span`, :func:`emit`, :func:`add`,
:func:`observe`, :func:`set_gauge`), each of which reads the global
recorder once and bails out on ``enabled`` immediately.  With the
default :class:`NullRecorder` installed, the cost of an instrumentation
site is one global load plus one attribute check — cheap enough to live
inside the planner's inner loops (the CI overhead guard enforces <5%
on the full-planner benchmark).

Swap recorders with :func:`set_recorder` or, scoped, with
:func:`use_recorder`::

    with use_recorder(InMemoryRecorder()) as rec:
        report = planner.plan(models)
    print(rec.metrics.render_text())

Event buffering (:meth:`Recorder.buffered` / :meth:`Recorder.commit`)
exists for the planner's candidate-order evaluation: provenance events
produced while scoring a *candidate* plan are held in a buffer and only
committed for the winning candidate, so the provenance log always
describes the plan that shipped.  Metrics deliberately bypass the
buffer — they count work performed, discarded candidates included.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List

from .events import ProvenanceEvent
from .metrics import MetricsRegistry
from .spans import NULL_SPAN, NullSpan, Span


class Recorder:
    """Base recorder: the disabled/no-op behaviour.

    Subclasses flip :attr:`enabled` and override the record hooks.
    """

    #: The single flag every fast-path helper checks.
    enabled: bool = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    # -- hooks (no-ops here) ---------------------------------------------

    def start_span(self, name: str, attrs: Dict[str, object]) -> "Span | NullSpan":
        return NULL_SPAN

    def record_event(self, event: ProvenanceEvent) -> None:
        return None

    # -- event buffering -------------------------------------------------

    @contextmanager
    def buffered(self) -> Iterator[List[ProvenanceEvent]]:
        """Collect events into a buffer instead of the main log.

        Yields the buffer; pass it to :meth:`commit` to append its
        contents to the main log (typically after deciding the buffered
        work is the committed plan).  Nested buffers stack.
        """
        yield []

    def commit(self, buffer: List[ProvenanceEvent]) -> None:
        return None


class NullRecorder(Recorder):
    """The default: everything off, everything free."""


class InMemoryRecorder(Recorder):
    """Records spans, provenance events and metrics in process memory.

    Span nesting uses a per-thread stack, so concurrent planners on
    different threads each build their own trees under the shared root
    list.
    """

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Span] = []  # completed + open root spans
        self.events: List[ProvenanceEvent] = []
        self._local = threading.local()
        self._sink_local = threading.local()

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(self, name: str, attrs: Dict[str, object]) -> Span:
        stack = self._stack()
        span = Span(name, attrs, on_close=self._close_span)
        if stack:
            stack[-1].children.append(span)
        else:
            self.spans.append(span)
        stack.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        stack = self._stack()
        # Pop through mis-nested closes defensively (a span closed out
        # of order takes its open descendants with it).
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.close()

    def all_spans(self) -> List[Span]:
        """Every recorded span, depth-first across all roots."""
        out: List[Span] = []
        for root in self.spans:
            out.extend(root.walk())
        return out

    # -- provenance ------------------------------------------------------

    def _sinks(self) -> List[List[ProvenanceEvent]]:
        sinks = getattr(self._sink_local, "sinks", None)
        if sinks is None:
            sinks = self._sink_local.sinks = []
        return sinks

    def record_event(self, event: ProvenanceEvent) -> None:
        sinks = self._sinks()
        if sinks:
            sinks[-1].append(event)
        else:
            self.events.append(event)

    @contextmanager
    def buffered(self) -> Iterator[List[ProvenanceEvent]]:
        buffer: List[ProvenanceEvent] = []
        sinks = self._sinks()
        sinks.append(buffer)
        try:
            yield buffer
        finally:
            sinks.pop()

    def commit(self, buffer: List[ProvenanceEvent]) -> None:
        for event in buffer:
            self.record_event(event)

    def reset(self) -> None:
        self.spans.clear()
        self.events.clear()
        self.metrics.reset()


#: The process-global recorder; default disabled.
_RECORDER: Recorder = NullRecorder()


def get_recorder() -> Recorder:
    """The currently installed recorder."""
    return _RECORDER


def set_recorder(recorder: Recorder) -> Recorder:
    """Install a recorder process-wide; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Scoped :func:`set_recorder`: restores the previous on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


# -- fast-path helpers (the only API instrumented code calls) ------------


def span(name: str, **attrs: object) -> "Span | NullSpan":
    """Open a span under the current parent; no-op when disabled.

    Usage::

        with obs.span("plan.partition", model=name) as sp:
            ...
            sp.set(makespan_ms=result.makespan_ms)
    """
    rec = _RECORDER
    if not rec.enabled:
        return NULL_SPAN
    return rec.start_span(name, attrs)


def emit(event: ProvenanceEvent) -> None:
    """Record a provenance event; no-op when disabled."""
    rec = _RECORDER
    if rec.enabled:
        rec.record_event(event)


def add(name: str, amount: float = 1.0) -> None:
    """Increment a counter; no-op when disabled."""
    rec = _RECORDER
    if rec.enabled:
        rec.metrics.counter(name).add(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram sample; no-op when disabled."""
    rec = _RECORDER
    if rec.enabled:
        rec.metrics.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge; no-op when disabled."""
    rec = _RECORDER
    if rec.enabled:
        rec.metrics.gauge(name).set(value)


def enabled() -> bool:
    """Whether the installed recorder is recording."""
    return _RECORDER.enabled

"""Streaming-request queueing analysis (Fig. 2a).

The paper motivates heterogeneous execution by showing queueing delay
accumulating under serial CPU-Big execution: requests arrive faster than
the single processor drains them, so waiting time grows with position in
the stream.  Bringing in heterogeneous processors removes the backlog.

This module runs both configurations on the shared simulator and
reports per-request queueing delay (start time minus arrival time of the
request's first slice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..baselines.mnn_serial import plan_mnn_serial
from ..core.planner import Hetero2PipePlanner
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.profiler import SocProfiler
from .executor import ExecutionResult, execute_plan


@dataclass(frozen=True)
class QueueingReport:
    """Per-request delays of one execution configuration."""

    label: str
    arrival_ms: List[float]
    start_ms: List[float]
    finish_ms: List[float]

    @property
    def queueing_delay_ms(self) -> List[float]:
        """Wait between arrival and first execution, per request."""
        return [s - a for s, a in zip(self.start_ms, self.arrival_ms)]

    @property
    def completion_latency_ms(self) -> List[float]:
        return [f - a for f, a in zip(self.finish_ms, self.arrival_ms)]

    @property
    def mean_queueing_delay_ms(self) -> float:
        delays = self.queueing_delay_ms
        return sum(delays) / len(delays) if delays else 0.0


def _first_starts(result: ExecutionResult) -> List[float]:
    starts: List[float] = []
    for i in range(result.num_requests):
        start = result.first_start_ms(i)
        if start is None:
            raise ValueError(f"request {i} never started: no queueing delay")
        starts.append(start)
    return starts


def serial_queueing(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    arrivals: Sequence[float],
) -> QueueingReport:
    """Queueing behaviour of serial CPU-Big execution."""
    plan = plan_mnn_serial(soc, models, SocProfiler(soc))
    result = execute_plan(plan, arrivals=list(arrivals))
    return QueueingReport(
        label="serial_cpu_big",
        arrival_ms=list(arrivals),
        start_ms=_first_starts(result),
        finish_ms=list(result.request_finish_ms),
    )


def heterogeneous_queueing(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    arrivals: Sequence[float],
    planner: Optional[Hetero2PipePlanner] = None,
) -> QueueingReport:
    """Queueing behaviour with the full heterogeneous pipeline."""
    planner = planner or Hetero2PipePlanner(soc)
    report = planner.plan(list(models))
    # Mitigation may permute requests: plan.assignments[pos] serves the
    # original request plan.order[pos], so the simulator must see the
    # arrivals in execution order...
    ordered_arrivals = [arrivals[i] for i in report.plan.order]
    result = execute_plan(report.plan, arrivals=ordered_arrivals)
    # ...and the report must map the simulator's execution-position
    # outputs *back* to original request indices, or a reordered plan
    # pairs request A's arrival with request B's start (and positional
    # comparisons against serial_queueing silently cross-match).
    starts = _first_starts(result)
    start_ms = [0.0] * result.num_requests
    finish_ms = [0.0] * result.num_requests
    for exec_pos, original in enumerate(report.plan.order):
        start_ms[original] = starts[exec_pos]
        finish_ms[original] = result.request_finish_ms[exec_pos]
    return QueueingReport(
        label="hetero2pipe",
        arrival_ms=list(arrivals),
        start_ms=start_ms,
        finish_ms=finish_ms,
    )

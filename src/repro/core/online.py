"""Windowed streaming planner (extension of Sec. V's complexity remark).

The paper's planner works on a fixed request batch; its complexity
analysis notes that for longer request streams "the planner should be
scheduled more frequently to avoid enlarged search space".  This module
operationalizes that: requests are consumed from an arrival stream in
*planning windows*; each window is planned with the full two-step
Hetero2Pipe flow (optionally after coalescing runs of identical
lightweight requests into batches, Appendix D) and dispatched as soon as
the previous window drains.

The result aggregates per-request completion latency across windows so
streaming behaviour (backlog, window-boundary bubbles) is measurable.

When accuracy tracking is on, each window also closes the predict →
execute → compare loop: the planner's own deterministic simulation of
the committed plan (its prediction) is joined against the executed run
(:func:`repro.obs.accuracy.join_execution`), the residuals feed the
per-processor/per-model drift detectors
(:class:`repro.obs.drift.DriftMonitor`), and a fired detector triggers
the replan path — planner caches invalidated, the SoC spec recalibrated
from the observed slowdown, and the planner rebuilt so the *next*
window is planned against reality instead of the stale model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..runtime.executor import ExecutionResult, execute_plan
from ..workloads.batching import coalesce_stream
from .objective import Fingerprint, plan_fingerprint
from .planner import Hetero2PipePlanner, PlannerConfig

#: Recalibration clamps: per-drift throughput scale stays within this
#: band so one noisy window cannot wreck the spec.
_MIN_RECALIBRATION_SCALE = 0.25
_MAX_RECALIBRATION_SCALE = 4.0
#: Processors whose mean relative error is inside the deadband are left
#: alone — re-deriving the spec from noise would itself inject drift.
_RECALIBRATION_DEADBAND = 0.05


@dataclass(frozen=True)
class WindowOutcome:
    """One planning window's dispatch and execution."""

    first_request: int
    num_requests: int
    dispatch_ms: float
    makespan_ms: float

    @property
    def finish_ms(self) -> float:
        return self.dispatch_ms + self.makespan_ms


@dataclass
class StreamingResult:
    """Aggregated outcome of a streamed execution.

    The accuracy fields stay empty unless the planner ran with
    ``track_accuracy``: one :class:`~repro.obs.ResidualReport` and one
    plan fingerprint per window, every :class:`~repro.obs.DriftDetected`
    event the monitor fired, and the count of drift-triggered replans.
    """

    windows: List[WindowOutcome]
    request_arrival_ms: List[float]
    request_finish_ms: List[float]
    residuals: List["obs.ResidualReport"] = field(default_factory=list)
    drift_events: List["obs.DriftDetected"] = field(default_factory=list)
    plan_fingerprints: List[Fingerprint] = field(default_factory=list)
    replans: int = 0

    @property
    def num_requests(self) -> int:
        return len(self.request_finish_ms)

    @property
    def makespan_ms(self) -> float:
        return max((w.finish_ms for w in self.windows), default=0.0)

    @property
    def throughput_per_s(self) -> float:
        seconds = self.makespan_ms / 1e3
        if seconds <= 0:
            return 0.0
        return self.num_requests / seconds

    def request_latency_ms(self, request: int) -> float:
        return (
            self.request_finish_ms[request] - self.request_arrival_ms[request]
        )

    def mean_latency_ms(self) -> float:
        if not self.request_finish_ms:
            return 0.0
        return sum(
            self.request_latency_ms(i) for i in range(self.num_requests)
        ) / self.num_requests


class StreamingPlanner:
    """Plans an arrival stream window by window.

    Args:
        soc: Target platform.
        window_size: Requests per planning window (the paper's "how often
            the pipelining plan is made" knob).
        config: Planner feature switches.
        coalesce_batches: Fold runs of identical requests into batched
            requests before planning each window (Appendix D).
        max_batch: Batch-size cap for coalescing.
        track_accuracy: Join each window's predicted execution against
            the actual one, keep the residual reports (see module
            docstring) and feed them to a :class:`~repro.obs.DriftMonitor`.
            On a fired detector the planner invalidates its caches,
            rescales drifting processors' throughput from the observed
            residuals, and rebuilds the planner (reusing the fitted
            contention estimator) so the next window replans against
            the corrected spec.
        execute: The *actual* execution of a committed plan — a callable
            ``plan -> ExecutionResult`` (default
            :func:`~repro.runtime.executor.execute_plan`).  Tests and
            what-if studies inject perturbed executors here
            (:func:`~repro.runtime.executor.execute_plan_perturbed`);
            the planner's *prediction* always remains its own clean
            simulation, so the injected divergence shows up as residual.
    """

    def __init__(
        self,
        soc: SocSpec,
        window_size: int = 8,
        config: Optional[PlannerConfig] = None,
        coalesce_batches: bool = False,
        max_batch: int = 8,
        track_accuracy: bool = False,
        execute: Optional[Callable[..., ExecutionResult]] = None,
    ) -> None:
        if window_size < 1:
            raise ValueError("window size must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.soc = soc
        self.window_size = window_size
        self.coalesce_batches = coalesce_batches
        self.max_batch = max_batch
        self.planner = Hetero2PipePlanner(soc, config)
        self.track_accuracy = track_accuracy
        self.drift_monitor = obs.DriftMonitor() if track_accuracy else None
        self.execute = execute or execute_plan
        self.replans = 0
        #: Cumulative per-processor throughput scale applied by replans.
        self.recalibration_scales: Dict[str, float] = {
            p.name: 1.0 for p in soc.processors
        }

    def _handle_drift(self, report: "obs.ResidualReport") -> None:
        """The replan/re-profile trigger (module docstring, step 3).

        Every cached prediction is now suspect, so the planner's
        memoization layers are dropped wholesale; then each processor
        whose residuals sit outside the deadband has its throughput
        rescaled by the inverse of the observed actual/predicted ratio
        (clamped), and the planner is rebuilt against the corrected SoC.
        The contention estimator is reused: its PMU-derived intensity
        labels describe *interference structure*, not throughput, and
        refitting the zoo per drift would dwarf the planning budget.
        """
        self.replans += 1
        self.planner.invalidate_caches()
        scales: Dict[str, float] = {}
        for name, summary in report.by_processor().items():
            error = summary.mean_relative_error
            if abs(error) <= _RECALIBRATION_DEADBAND:
                continue
            scale = 1.0 / (1.0 + error)
            scales[name] = min(
                _MAX_RECALIBRATION_SCALE,
                max(_MIN_RECALIBRATION_SCALE, scale),
            )
        if not scales:
            return
        self.soc = dataclasses.replace(
            self.soc,
            processors=tuple(
                dataclasses.replace(
                    p, peak_gflops=p.peak_gflops * scales[p.name]
                )
                if p.name in scales
                else p
                for p in self.soc.processors
            ),
        )
        for name, scale in scales.items():
            self.recalibration_scales[name] = (
                self.recalibration_scales.get(name, 1.0) * scale
            )
            obs.observe("recalibration_scale", scale)
        self.planner = Hetero2PipePlanner(
            self.soc, self.planner.config, estimator=self.planner.estimator
        )
        obs.add("drift_replans")

    def run(
        self,
        stream: Sequence[ModelGraph],
        arrivals: Optional[Sequence[float]] = None,
    ) -> StreamingResult:
        """Plan and simulate the whole stream.

        Args:
            stream: Requests in arrival order.
            arrivals: Arrival times (ms); defaults to all zero.

        Returns:
            The :class:`StreamingResult` with per-request latencies.

        Raises:
            ValueError: on empty stream or arrival-length mismatch.
        """
        if not stream:
            raise ValueError("stream must be non-empty")
        if arrivals is None:
            arrivals = [0.0] * len(stream)
        if len(arrivals) != len(stream):
            raise ValueError(
                f"expected {len(stream)} arrivals, got {len(arrivals)}"
            )

        windows: List[WindowOutcome] = []
        finish = [0.0] * len(stream)
        ready_ms = 0.0  # when the pipeline is free for the next window
        residuals: List["obs.ResidualReport"] = []
        fingerprints: List[Fingerprint] = []
        drift_events: List["obs.DriftDetected"] = []
        window_index = -1

        for start in range(0, len(stream), self.window_size):
            window_index += 1
            window_models = list(stream[start : start + self.window_size])
            window_arrivals = list(
                arrivals[start : start + self.window_size]
            )
            raw_count = len(window_models)
            group_sizes = [1] * len(window_models)
            if self.coalesce_batches:
                window_models, group_sizes = coalesce_stream(
                    window_models, max_batch=self.max_batch
                )

            # The window dispatches when the pipeline is free and its
            # last member has arrived (window-based planning needs the
            # whole window known).
            dispatch = max(ready_ms, max(window_arrivals))
            with obs.span(
                "stream.window", first_request=start, requests=raw_count
            ) as sp:
                report = self.planner.plan(window_models)
                result = self.execute(report.plan)
                sp.set(makespan_ms=result.makespan_ms)
            obs.add("windows_planned")
            obs.add("requests_coalesced", raw_count - len(window_models))
            fingerprints.append(plan_fingerprint(report.plan))

            if self.track_accuracy:
                # The prediction is the planner's own clean simulation of
                # the committed plan with memory enforced, as the executed
                # run is (the objective scores plans without the memory
                # gate, so it is not this number).  On an unperturbed run
                # the residuals are therefore identically zero and any
                # deviation is real environment drift.
                predicted = execute_plan(report.plan, record=False)
                # TaskRecord.request is the execution position, so the
                # name list is permuted by the committed order.
                residual = obs.join_execution(
                    predicted,
                    result,
                    model_names=[
                        window_models[i].name for i in report.plan.order
                    ],
                    window=window_index,
                )
                residuals.append(residual)
                if self.drift_monitor is not None:
                    fired = self.drift_monitor.observe_report(residual)
                    drift_events.extend(fired)
                    if fired:
                        self._handle_drift(residual)
            windows.append(
                WindowOutcome(
                    first_request=start,
                    num_requests=len(window_arrivals),
                    dispatch_ms=dispatch,
                    makespan_ms=result.makespan_ms,
                )
            )
            ready_ms = dispatch + result.makespan_ms

            # Map batched-request finishes back to original requests:
            # every member of a coalesced group completes when its
            # batched request does.  ``report.plan.order`` permutes the
            # (possibly coalesced) window.
            group_start = []
            acc = start
            for size in group_sizes:
                group_start.append(acc)
                acc += size
            for exec_pos, original_pos in enumerate(report.plan.order):
                done = dispatch + result.request_finish_ms[exec_pos]
                first = group_start[original_pos]
                for offset in range(group_sizes[original_pos]):
                    finish[first + offset] = done

        return StreamingResult(
            windows=windows,
            request_arrival_ms=list(arrivals),
            request_finish_ms=finish,
            residuals=residuals,
            drift_events=drift_events,
            plan_fingerprints=fingerprints,
            replans=self.replans,
        )

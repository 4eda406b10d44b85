"""Streaming drift detection over prediction residuals.

:mod:`repro.obs.accuracy` produces per-slice residuals; this module
watches them *online* and decides when the planner's model has stopped
describing reality.  Two classic detectors run side by side per key
(one pair per processor and per model):

* **EWMA** (:class:`EwmaDetector`) — an exponentially-weighted moving
  average of the relative residual; fires when the smoothed error
  exceeds a threshold.  Catches sustained level shifts fast.
* **CUSUM** (:class:`CusumDetector`) — tabular cumulative sums with a
  slack ``k``; fires when the one-sided cumulative drift exceeds ``h``.
  Catches slow ramps the EWMA's smoothing can hide.

:class:`DriftMonitor` multiplexes both over the residual stream, keyed
by processor and by model, emits typed
:class:`~repro.obs.events.DriftDetected` provenance events through the
recorder, and returns each window's detections — on which
``StreamingPlanner`` invalidates planner caches and re-profiles before
the next contention window.

Detectors are tuned for *relative* residuals (fractions, not ms): on a
clean run the planner's predictions are exact (the objective and the
executor share one simulator), so the stream sits at 0.0 and any
sustained deviation is genuine environment drift (thermal throttling, a
co-runner outside the plan, device aging) rather than model noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .events import DriftDetected
from .recorder import add, emit
from .accuracy import ResidualReport, SliceResidual

#: EWMA smoothing weight of the newest sample.
EWMA_ALPHA = 0.3
#: EWMA fire threshold (relative error).
EWMA_THRESHOLD = 0.15
#: CUSUM per-sample slack ``k``.
CUSUM_SLACK = 0.05
#: CUSUM decision interval ``h``.
CUSUM_THRESHOLD = 0.5
#: Residuals a key consumes before either of its detectors may fire.
MIN_SAMPLES = 3


@dataclass
class EwmaDetector:
    """Exponentially-weighted moving average level detector.

    Args:
        alpha: Smoothing weight of the newest sample.
        threshold: Fire when ``|ewma| > threshold`` (relative error).
        min_samples: Samples required before the detector may fire.
    """

    alpha: float
    threshold: float
    min_samples: int
    value: float = 0.0
    samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @property
    def statistic(self) -> float:
        return self.value

    def observe(self, x: float) -> bool:
        """Consume one residual; True when the detector fires."""
        self.samples += 1
        if self.samples == 1:
            self.value = x
        else:
            self.value = self.alpha * x + (1.0 - self.alpha) * self.value
        return self.samples >= self.min_samples and abs(self.value) > self.threshold

    def reset(self) -> None:
        self.value = 0.0
        self.samples = 0


@dataclass
class CusumDetector:
    """Two-sided tabular CUSUM drift detector.

    Args:
        slack: Per-sample allowance ``k`` — drift smaller than this is
            absorbed, so benign jitter never accumulates.
        threshold: Decision interval ``h``; fire when either one-sided
            cumulative sum exceeds it.
        min_samples: Samples required before the detector may fire.
    """

    slack: float
    threshold: float
    min_samples: int
    positive: float = 0.0
    negative: float = 0.0
    samples: int = 0

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @property
    def statistic(self) -> float:
        return max(self.positive, self.negative)

    def observe(self, x: float) -> bool:
        """Consume one residual; True when either side trips."""
        self.samples += 1
        self.positive = max(0.0, self.positive + x - self.slack)
        self.negative = max(0.0, self.negative - x - self.slack)
        return self.samples >= self.min_samples and (
            self.positive > self.threshold or self.negative > self.threshold
        )

    def reset(self) -> None:
        self.positive = 0.0
        self.negative = 0.0
        self.samples = 0


@dataclass
class _KeyedDetectors:
    ewma: EwmaDetector
    cusum: CusumDetector


class DriftMonitor:
    """Per-processor / per-model drift detection over residual streams.

    One EWMA + CUSUM pair, with the module's detector settings, is
    lazily created per ``(scope, key)`` — ``("processor", "gpu")``,
    ``("model", "resnet50")`` — and fed every slice residual touching
    that key.  When either detector fires the monitor emits a
    :class:`~repro.obs.events.DriftDetected` provenance event and resets
    that key's detectors (built-in cooldown: the same key cannot re-fire
    until it has re-accumulated :data:`MIN_SAMPLES` fresh residuals).
    """

    def __init__(self) -> None:
        self._detectors: Dict[Tuple[str, str], _KeyedDetectors] = {}
        self.events: List[DriftDetected] = []

    def keys(self) -> List[Tuple[str, str]]:
        """Every (scope, key) pair that has consumed residuals."""
        return sorted(self._detectors)

    def detectors_for(self, scope: str, key: str) -> _KeyedDetectors:
        """The (lazily created) detector pair of one key."""
        pair = self._detectors.get((scope, key))
        if pair is None:
            pair = _KeyedDetectors(
                ewma=EwmaDetector(EWMA_ALPHA, EWMA_THRESHOLD, MIN_SAMPLES),
                cusum=CusumDetector(CUSUM_SLACK, CUSUM_THRESHOLD, MIN_SAMPLES),
            )
            self._detectors[(scope, key)] = pair
        return pair

    def observe_residual(
        self, residual: SliceResidual, window: int = -1
    ) -> List[DriftDetected]:
        """Feed one slice residual; returns any detections it caused."""
        fired: List[DriftDetected] = []
        keys = [("processor", residual.processor)]
        if residual.model:
            keys.append(("model", residual.model))
        for scope, key in keys:
            event = self._observe_key(
                scope, key, residual.relative_error, window
            )
            if event is not None:
                fired.append(event)
        return fired

    def observe_report(self, report: ResidualReport) -> List[DriftDetected]:
        """Feed every slice residual of one run/window, in slice order."""
        fired: List[DriftDetected] = []
        for residual in report.slices:
            fired.extend(self.observe_residual(residual, window=report.window))
        return fired

    def _observe_key(
        self, scope: str, key: str, x: float, window: int
    ) -> Optional[DriftDetected]:
        pair = self.detectors_for(scope, key)
        detector = ""
        statistic = threshold = 0.0
        if pair.ewma.observe(x):
            detector = "ewma"
            statistic = pair.ewma.statistic
            threshold = pair.ewma.threshold
        if pair.cusum.observe(x) and not detector:
            detector = "cusum"
            statistic = pair.cusum.statistic
            threshold = pair.cusum.threshold
        if not detector:
            return None
        event = DriftDetected(
            scope=scope,
            key=key,
            detector=detector,
            statistic=statistic,
            threshold=threshold,
            samples=max(pair.ewma.samples, pair.cusum.samples),
            window=window,
        )
        pair.ewma.reset()
        pair.cusum.reset()
        self.events.append(event)
        emit(event)
        add("drift_detections")
        return event

    def reset(self) -> None:
        """Drop all detector state (fired events are kept)."""
        self._detectors.clear()


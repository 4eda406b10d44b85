"""Contention-intensity estimation and High/Low classification (Eq. 1).

The planner must know, for each incoming request, how aggressively it
will contend on the shared memory bus — *without* profiling co-execution
pairs.  Observation 1 (slowdown consistency under fairness-aware memory
controllers) justifies learning a regression from solo-execution PMU
features (IPC, cache-miss rate, stalled-cycles backend) to a scalar
contention intensity.

:class:`ContentionEstimator` fits the ridge regression of Eq. 1 on a
training set of profiled models and then scores new requests from their
perf counters alone.  Scores above a percentile threshold mark a request
High-contention (the paper's H/L split feeding Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..analysis.regression import RidgeModel, fit_ridge
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.pmu import PerfCounters, ground_truth_intensity, measure_counters
from ..profiling.profiler import ModelProfile, SocProfiler

#: Percentile of the training predictions above which a request is High
#: contention (the paper's "percentage threshold").
THRESHOLD_PERCENTILE = 60.0

#: Ridge penalty of the Eq. 1 fit.
RIDGE_ALPHA = 1.0


@dataclass(frozen=True)
class ContentionScore:
    """One request's estimated intensity and its H/L label."""

    model_name: str
    intensity: float
    is_high: bool


class ContentionEstimator:
    """Ridge-regression contention-intensity model (Eq. 1).

    Typical use::

        estimator = ContentionEstimator.fit_from_zoo(soc, models)
        score = estimator.score(profile)        # uses PMU features only
        labels = estimator.classify(profiles)   # H/L split for Algorithm 2
    """

    def __init__(
        self, model: RidgeModel, training_intensities: Sequence[float]
    ) -> None:
        self._model = model
        self._training = tuple(training_intensities)

    @property
    def ridge(self) -> RidgeModel:
        return self._model

    @property
    def threshold(self) -> float:
        """Intensity above which a request is labelled High contention.

        Computed as the :data:`THRESHOLD_PERCENTILE` percentile of the
        training-set predictions, so 'High' means 'high relative to the
        workload population' — the paper's "percentage threshold".
        """
        if not self._training:
            raise ValueError("estimator fitted without training intensities")
        return float(np.percentile(self._training, THRESHOLD_PERCENTILE))

    @classmethod
    def fit(
        cls,
        counters: Sequence[PerfCounters],
        intensities: Sequence[float],
    ) -> "ContentionEstimator":
        """Fit from explicit (features, target) pairs.

        Raises:
            ValueError: on length mismatch or fewer than 2 samples.
        """
        if len(counters) != len(intensities):
            raise ValueError("counters and intensities must align")
        if len(counters) < 2:
            raise ValueError("need at least two training samples")
        x = np.array([c.as_features() for c in counters], dtype=float)
        y = np.asarray(intensities, dtype=float)
        ridge = fit_ridge(x, y, alpha=RIDGE_ALPHA)
        predictions = ridge.predict(x)
        return cls(ridge, list(np.atleast_1d(predictions)))

    @classmethod
    def fit_from_zoo(
        cls,
        soc: SocSpec,
        models: Sequence[ModelGraph],
        profiler: Optional[SocProfiler] = None,
    ) -> "ContentionEstimator":
        """Fit from solo profiles of a model zoo on one SoC.

        The training target is the ground-truth bus-demand intensity of
        each model's solo run on the Big CPU (the processor whose PMU
        the paper reads); the features are the synthesized counters.

        Args:
            profiler: Profile cache to measure through; pass the
                planner's own :class:`SocProfiler` so the zoo profiles
                are built once and shared (it must be bound to ``soc``).

        Raises:
            ValueError: when ``profiler`` is bound to a different SoC.
        """
        if profiler is None:
            profiler = SocProfiler(soc)
        elif profiler.soc is not soc:
            raise ValueError(
                f"profiler is bound to {profiler.soc.name!r}, "
                f"cannot fit estimator for {soc.name!r}"
            )
        cpu = soc.cpu_big
        counters: List[PerfCounters] = []
        targets: List[float] = []
        for model in models:
            profile = profiler.profile(model)
            counters.append(measure_counters(profile, cpu))
            targets.append(ground_truth_intensity(profile, cpu))
        return cls.fit(counters, targets)

    def predict(self, counters: PerfCounters) -> float:
        """Estimated contention intensity from PMU features alone."""
        return float(self._model.predict(counters.as_features()))

    def score(self, profile: ModelProfile) -> ContentionScore:
        """Score one request: measure counters, predict, threshold."""
        cpu = profile.soc.cpu_big
        counters = measure_counters(profile, cpu)
        intensity = self.predict(counters)
        return ContentionScore(
            model_name=profile.model.name,
            intensity=intensity,
            is_high=intensity >= self.threshold,
        )

    def classify(
        self, profiles: Sequence[ModelProfile]
    ) -> List[ContentionScore]:
        """Score a request sequence, preserving order."""
        with obs.span("plan.classify", requests=len(profiles)) as span:
            scores = [self.score(p) for p in profiles]
            if obs.enabled():
                high = sum(1 for s in scores if s.is_high)
                obs.add("requests_scored", len(scores))
                obs.add("requests_high", high)
                for s in scores:
                    obs.observe("contention_intensity", s.intensity)
                span.set(high=high, low=len(scores) - high)
        return scores

    def labels(self, profiles: Sequence[ModelProfile]) -> List[bool]:
        """The H/L boolean sequence Algorithm 2 consumes (True = High)."""
        return [s.is_high for s in self.classify(profiles)]

"""Tests for contention scoring (Eq. 1) and contention windows (Def. 4)."""

import numpy as np
import pytest

from repro.core.contention import THRESHOLD_PERCENTILE, ContentionEstimator
from repro.core.window import (
    conflicting_high_pairs,
    deficit,
    high_positions,
    is_mitigated,
    iter_windows,
    violating_windows,
    window_bounds,
    window_high_count,
)
from repro.hardware.soc import get_soc
from repro.models.zoo import all_models, get_model
from repro.profiling.pmu import PerfCounters, ground_truth_intensity
from repro.profiling.profiler import SocProfiler


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def estimator(kirin):
    return ContentionEstimator.fit_from_zoo(kirin, all_models())


class TestEstimator:
    def test_prediction_tracks_ground_truth(self, kirin, estimator):
        profiler = SocProfiler(kirin)
        preds, truths = [], []
        for model in all_models():
            profile = profiler.profile(model)
            preds.append(estimator.score(profile).intensity)
            truths.append(ground_truth_intensity(profile, kirin.cpu_big))
        corr = np.corrcoef(preds, truths)[0, 1]
        assert corr > 0.8, f"regression too weak: r={corr:.2f}"

    def test_classification_splits_population(self, kirin, estimator):
        profiler = SocProfiler(kirin)
        labels = estimator.labels(
            [profiler.profile(m) for m in all_models()]
        )
        assert any(labels) and not all(labels)

    def test_alexnet_is_high_contention(self, kirin, estimator):
        # Observation 2: FC-heavy AlexNet tops the demand ranking.
        profiler = SocProfiler(kirin)
        score = estimator.score(profiler.profile(get_model("alexnet")))
        assert score.is_high

    def test_squeezenet_scores_above_vit(self, kirin, estimator):
        # Observation 3: the lightweight outlier.
        profiler = SocProfiler(kirin)
        sq = estimator.score(profiler.profile(get_model("squeezenet")))
        vit = estimator.score(profiler.profile(get_model("vit")))
        assert sq.intensity > vit.intensity

    def test_fit_validates_inputs(self):
        counters = [PerfCounters(1.0, 0.1, 0.2)]
        with pytest.raises(ValueError):
            ContentionEstimator.fit(counters, [0.5])  # too few samples
        with pytest.raises(ValueError):
            ContentionEstimator.fit(counters * 3, [0.5, 0.6])  # mismatch

    def test_threshold_percentile_validated(self):
        from repro.analysis.regression import fit_ridge

        assert 0.0 < THRESHOLD_PERCENTILE < 100.0
        ridge = fit_ridge(np.eye(3), np.ones(3))
        training = [float(i) for i in range(11)]
        estimator = ContentionEstimator(ridge, training)
        assert estimator.threshold == np.percentile(training, THRESHOLD_PERCENTILE)

    def test_threshold_requires_training_data(self):
        from repro.analysis.regression import fit_ridge

        ridge = fit_ridge(np.eye(3), np.ones(3))
        estimator = ContentionEstimator(ridge, ())
        with pytest.raises(ValueError):
            _ = estimator.threshold

    def test_predict_from_counters_directly(self, estimator):
        value = estimator.predict(PerfCounters(2.0, 0.05, 0.3))
        assert np.isfinite(value)


class TestWindows:
    def test_window_bounds_clipped_at_end(self):
        assert window_bounds(3, 4, 5) == (3, 4)

    def test_window_bounds_full(self):
        assert window_bounds(0, 3, 10) == (0, 2)

    def test_invalid_anchor(self):
        with pytest.raises(ValueError):
            window_bounds(5, 2, 5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            window_bounds(0, 0, 5)

    def test_iter_windows_count(self):
        assert len(iter_windows(6, 3)) == 6

    def test_high_positions(self):
        assert high_positions([True, False, True]) == [0, 2]

    def test_window_high_count(self):
        labels = [True, False, True, False]
        assert window_high_count(labels, 0, 3) == 2
        assert window_high_count(labels, 1, 3) == 1

    def test_violating_windows(self):
        labels = [True, True, False, False, False]
        assert 0 in violating_windows(labels, 2)
        assert violating_windows([True, False, False, True], 2) == []

    def test_conflicting_pairs(self):
        labels = [True, False, True, False, True]
        assert conflicting_high_pairs(labels, 3) == [(0, 2), (2, 4)]
        assert conflicting_high_pairs(labels, 2) == []

    def test_deficit(self):
        assert deficit((0, 2), 4) == 2
        assert deficit((0, 4), 4) == 0

    def test_deficit_unordered_pair(self):
        with pytest.raises(ValueError):
            deficit((3, 3), 4)

    def test_is_mitigated(self):
        assert is_mitigated([True, False, False, True], 3)
        assert not is_mitigated([True, False, True], 3)

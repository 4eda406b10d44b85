"""Tests for the ridge regression and statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regression import RidgeModel, fit_ridge
from repro.analysis.stats import linear_fit


class TestRidge:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        true_w = np.array([2.0, -1.0, 0.5])
        y = x @ true_w + 3.0
        model = fit_ridge(x, y, alpha=1e-6)
        assert np.allclose(model.weights, true_w, atol=1e-3)
        assert model.intercept == pytest.approx(3.0, abs=1e-3)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        alpha = 2.5
        model = fit_ridge(x, y, alpha=alpha)
        xc, yc = x - x.mean(axis=0), y - y.mean()
        expected = np.linalg.solve(xc.T @ xc + alpha * np.eye(2), xc.T @ yc)
        assert np.allclose(model.weights, expected)
        assert model.intercept == pytest.approx(
            y.mean() - x.mean(axis=0) @ expected
        )

    def test_regularization_shrinks_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([5.0, 5.0, 5.0])
        small = fit_ridge(x, y, alpha=1e-6)
        large = fit_ridge(x, y, alpha=1e3)
        assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)

    def test_predict_single_and_batch(self):
        model = RidgeModel(weights=np.array([1.0, 2.0]), intercept=0.5, alpha=1.0)
        assert model.predict([1.0, 1.0]) == pytest.approx(3.5)
        batch = model.predict(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(batch, [3.5, 0.5])

    def test_predict_wrong_width(self):
        model = RidgeModel(weights=np.array([1.0, 2.0]), intercept=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            model.predict([1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_ridge(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            fit_ridge(np.ones((5, 2)), np.ones(4))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            fit_ridge(np.ones((3, 1)), np.ones(3), alpha=-1e-9)

    def test_alpha_zero_is_ordinary_least_squares(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([2.0, -1.0, 0.5]) + 3.0
        model = fit_ridge(x, y, alpha=0.0)
        assert np.allclose(model.predict(x), y, atol=1e-8)

    def test_alpha_zero_singular_gram_falls_back(self):
        # Two identical columns: X^T X is singular; alpha=0 must not
        # raise, and the minimum-norm solution still fits the data.
        col = np.arange(1.0, 7.0)
        x = np.column_stack([col, col])
        y = 3.0 * col + 1.0
        model = fit_ridge(x, y, alpha=0.0)
        assert np.allclose(model.predict(x), y, atol=1e-8)
        # Minimum-norm splits the weight evenly across the clones.
        assert model.weights[0] == pytest.approx(model.weights[1])

    def test_alpha_zero_underdetermined(self):
        # Fewer samples than features: rank-deficient by construction.
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        y = np.array([1.0, 2.0])
        model = fit_ridge(x, y, alpha=0.0)
        assert np.allclose(model.predict(x), y, atol=1e-8)

    def test_single_sample_fit(self):
        # One centred sample is all zeros — degenerate for any design.
        x = np.array([[2.0, 4.0]])
        y = np.array([10.0])
        for alpha in (0.0, 1.0):
            model = fit_ridge(x, y, alpha=alpha)
            # The intercept alone must reproduce the single target.
            assert model.predict(x[0]) == pytest.approx(10.0)

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(np.empty((0, 2)), np.empty(0))

    def test_predict_vector_matrix_round_trip(self):
        model = RidgeModel(
            weights=np.array([1.5, -0.5]), intercept=2.0, alpha=1.0
        )
        batch = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        batched = model.predict(batch)
        assert isinstance(batched, np.ndarray)
        assert batched.shape == (3,)
        singles = [model.predict(row) for row in batch]
        assert all(isinstance(s, float) for s in singles)
        assert np.allclose(batched, singles)

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(-5, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_recovery_property(self, weights, intercept):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(100, 3))
        y = x @ np.asarray(weights) + intercept
        model = fit_ridge(x, y, alpha=1e-9)
        prediction = model.predict(x[0])
        assert prediction == pytest.approx(float(y[0]), abs=1e-4)


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_noisy_line_good_r2(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 10, 50)
        y = 3 * x + 1 + rng.normal(scale=0.1, size=50)
        fit = linear_fit(x, y)
        assert fit.r_squared > 0.99

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [2.0])

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1.0, 1.0], [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2, 3], [1, 2])


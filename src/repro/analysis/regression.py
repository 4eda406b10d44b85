"""Ridge regression, closed form — the learning piece of Eq. 1.

The paper characterizes model-specific contention footprints "via an
effective regression model, without external efforts to profile a large
number of co-execution combinations":

    W = argmin_w 1/2 (XW - Y)^T (XW - Y) + 1/2 * alpha * ||W||^2

with the closed-form solution ``W = (X^T X + alpha I)^{-1} X^T Y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RidgeModel:
    """A fitted ridge regression ``y ~ X @ weights + intercept``."""

    weights: np.ndarray
    intercept: float
    alpha: float

    def predict(self, features: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """Predict targets for one feature vector or a feature matrix."""
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            if x.shape[0] != self.weights.shape[0]:
                raise ValueError(
                    f"expected {self.weights.shape[0]} features, got {x.shape[0]}"
                )
            return float(x @ self.weights + self.intercept)
        return x @ self.weights + self.intercept


def fit_ridge(
    features: np.ndarray,
    targets: np.ndarray,
    alpha: float = 1.0,
) -> RidgeModel:
    """Fit ridge regression via the closed-form normal equations.

    The data are centred first, so the intercept is not regularized.

    Args:
        features: (n_samples, n_features) design matrix X.
        targets: (n_samples,) target vector Y.
        alpha: L2 regularization strength (the paper's alpha).
            ``alpha=0`` is ordinary least squares; with a singular Gram
            matrix (collinear features, fewer samples than features)
            the fit falls back to the minimum-norm ``lstsq`` solution
            instead of raising.

    Returns:
        The fitted :class:`RidgeModel`.

    Raises:
        ValueError: on shape mismatches or negative alpha.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError(
            f"targets shape {y.shape} incompatible with features {x.shape}"
        )
    if x.shape[0] < 1:
        raise ValueError("need at least one sample")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")

    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean

    gram = xc.T @ xc + alpha * np.eye(x.shape[1])
    try:
        weights = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError:
        # alpha=0 with a rank-deficient design (collinear columns, or a
        # single centred sample, which is all zeros): take the
        # minimum-norm least-squares solution.  Any alpha > 0 makes the
        # Gram matrix positive definite, so solve() cannot get here.
        weights, _, _, _ = np.linalg.lstsq(gram, xc.T @ yc, rcond=None)
    intercept = y_mean - float(x_mean @ weights)
    return RidgeModel(weights=weights, intercept=intercept, alpha=alpha)

"""Small statistics helpers used by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..util import approx_eq


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares line ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit a straight line and report R^2 (Fig. 12 / Fig. 13 analyses).

    Raises:
        ValueError: with fewer than two points or zero x-variance.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-D sequences of equal length")
    if x.shape[0] < 2:
        raise ValueError("need at least two points for a line")
    x_var = float(np.var(x))
    if approx_eq(x_var, 0.0):
        raise ValueError("x values are constant; slope undefined")
    slope = float(np.cov(x, y, bias=True)[0, 1] / x_var)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    total = float(np.sum((y - y.mean()) ** 2))
    r_squared = (
        1.0 if approx_eq(total, 0.0) else 1.0 - float(np.sum(residuals**2)) / total
    )
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


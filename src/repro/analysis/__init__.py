"""Regression and statistics utilities."""

from .regression import RidgeModel, fit_ridge
from .stats import LinearFit, linear_fit

__all__ = [
    "RidgeModel",
    "fit_ridge",
    "LinearFit",
    "linear_fit",
]

"""Dependency-free leaf helpers shared across every layer.

This module sits at the bottom of the DESIGN.md import DAG (layer 0):
anything may import it, it imports only the stdlib.  It exists because
two helpers kept being re-invented upward in the tree — ``geomean``
lived in ``experiments.common`` and was imported *down* by
``runtime.metrics`` (the layering violation H2P201 now bans), and float
tolerance comparisons were open-coded as ``== 0.0`` (H2P102).
"""

from __future__ import annotations

import math
from typing import Sequence

#: The tolerances of :func:`approx_eq`.  Relative 1e-9 matches
#: ``math.isclose``; the absolute floor makes comparisons against 0.0
#: meaningful for quantities that are sums of roofline ms/mJ terms.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def approx_eq(a: float, b: float) -> bool:
    """Tolerant float equality for scheduling math.

    Use this instead of ``==``/``!=`` on floats (lint rule H2P102):
    slice costs and makespans are accumulated roofline terms, so exact
    equality is machine- and order-dependent.
    """
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


#: The two percentile definitions this repo publishes (see
#: :func:`percentile`).  ``linear`` is numpy's default interpolation and
#: backs ``ExecutionResult.latency_percentile_ms`` (the ``stats``/
#: ``accuracy`` latency blocks); ``nearest_rank`` is the classic
#: ceil-rank definition and backs ``repro.obs.bench.percentile_ms``
#: (the ``hetero2pipe.bench.v1`` ``p50_ms`` column).  Both published
#: ``--json`` schemas are pinned by tests against this one function.
PERCENTILE_METHODS = ("linear", "nearest_rank")


def percentile(
    values: Sequence[float], q: float, method: str = "linear"
) -> float:
    """Percentile of a sample, under one of two published definitions.

    Args:
        values: The sample (any order; sorted internally).
        q: Percentile in [0, 100].
        method: ``"linear"`` — linear interpolation over the sorted
            sample (numpy's default): q=0 is the minimum, q=100 the
            maximum, q=50 the median.  ``"nearest_rank"`` — classic
            ``ceil(q/100 * n) - 1`` rank, clamped; the result is always
            an observed sample.

    Raises:
        ValueError: on an empty sample, ``q`` outside [0, 100], or an
            unknown method.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if method == "linear":
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
    if method == "nearest_rank":
        rank = math.ceil(q / 100.0 * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, int(rank)))]
    raise ValueError(
        f"unknown percentile method {method!r}; options: {PERCENTILE_METHODS}"
    )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (speedup aggregation).

    Raises:
        ValueError: on empty input or non-positive entries.
    """
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

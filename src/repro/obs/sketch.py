"""Mergeable DDSketch-style quantile sketch for streaming latencies.

Rolling p50/p95/p99 over an event stream must not retain raw samples:
an open-loop serving run produces unbounded completions, and the
fleet-scale roadmap item needs per-device tail summaries that *merge*
into one fleet summary without raw-data shipping.  This module is the
standard answer — a DDSketch-style sketch with relative-error
guarantees (Masson, Rim & Lee, VLDB 2019):

* Values are hashed into logarithmic buckets: bucket ``i`` covers
  ``(γ^(i-1), γ^i]`` with ``γ = (1 + α) / (1 - α)`` for a configured
  relative accuracy ``α``.  Any value in a bucket differs from the
  bucket's midpoint estimate ``2γ^i / (γ + 1)`` by at most a factor
  ``α`` — so every reported quantile is within ``α`` *relative* error
  of an exact sample quantile, at any scale from microseconds to
  minutes, with O(1) insertion.
* ``merge`` adds bucket counts — exact, associative and commutative, so
  per-shard (per-device, per-window) sketches merged in any order equal
  the sketch of the concatenated stream.  The property tests pin this.
* count/sum/min/max are tracked exactly alongside the buckets, and the
  whole sketch serializes to a plain dict for JSONL/replay transport.

Quantiles use the *nearest-rank* definition (``ceil(q/100·n) - 1``, the
same convention as ``repro.util.percentile(..., method="nearest_rank")``)
— the returned estimate always describes one observed sample's bucket,
which is what makes the per-quantile relative-error bound provable.

This module is a dependency-free obs leaf: stdlib only, no clocks.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

from ..util import approx_eq

#: Values at or below this threshold land in the exact zero bucket —
#: the logarithm is undefined at 0 and latencies this small are noise.
MIN_TRACKABLE_VALUE = 1e-9

#: Default relative accuracy: reported quantiles within ±1%.
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    Args:
        relative_accuracy: The guarantee ``α``: every quantile estimate
            ``est`` satisfies ``|est - exact| <= α * exact`` where
            ``exact`` is the nearest-rank sample quantile.  Must be in
            (0, 1).

    Raises:
        ValueError: on an out-of-range ``relative_accuracy``.
    """

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "count",
        "total",
        "low",
        "high",
    )

    def __init__(
        self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf

    # ------------------------------------------------------------ insert

    def insert(self, value: float) -> None:
        """O(1) insert of one non-negative sample.

        Raises:
            ValueError: on a negative or non-finite value (latencies
                and queue depths are non-negative by construction).
        """
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"sketch values must be finite and >= 0, got {value}")
        if value <= MIN_TRACKABLE_VALUE:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        # min() and max() without the calls (equal values keep the old).
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.insert(value)

    # --------------------------------------------------------- quantiles

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (q in [0, 100]).

        Nearest-rank semantics: the estimate describes the bucket of
        the sample at rank ``ceil(q/100 · n) - 1`` in sorted order, so
        it is within ``relative_accuracy`` of that sample's true value
        (exactly equal at the tracked min/max).

        Raises:
            ValueError: on an empty sketch or ``q`` outside [0, 100].
        """
        if self.count == 0:
            raise ValueError("percentile of an empty sketch")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = math.ceil(q / 100.0 * self.count) - 1
        rank = max(0, min(self.count - 1, rank))
        # The extreme ranks *are* the tracked min/max — return them
        # exactly rather than their bucket midpoints.
        if rank == 0:
            return self.low
        if rank == self.count - 1:
            return self.high
        if rank < self._zero_count:
            return self.low  # all zero-bucket samples are <= 1e-9
        cumulative = self._zero_count
        estimate = self.high
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank < cumulative:
                estimate = 2.0 * self._gamma ** index / (self._gamma + 1.0)
                break
        # min/max are exact; clamping can only tighten the estimate.
        return min(max(estimate, self.low), self.high)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    # ------------------------------------------------------------- merge

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place; returns ``self``.

        Merging adds bucket counts, so it is exact: associative,
        commutative, and shard-merge equals the single-stream sketch.

        Raises:
            ValueError: when the two sketches were built with different
                ``relative_accuracy`` (their buckets are incompatible).
        """
        if not approx_eq(self.relative_accuracy, other.relative_accuracy):
            raise ValueError(
                "cannot merge sketches with different relative accuracy: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self._zero_count += other._zero_count
        self.count += other.count
        self.total += other.total
        self.low = min(self.low, other.low)
        self.high = max(self.high, other.high)
        return self

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(self.relative_accuracy)
        clone._buckets = dict(self._buckets)
        clone._zero_count = self._zero_count
        clone.count = self.count
        clone.total = self.total
        clone.low = self.low
        clone.high = self.high
        return clone

    # ----------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict form (bucket keys as strings)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "sum": self.total,
            "min": self.low if self.count else None,
            "max": self.high if self.count else None,
            "zero_count": self._zero_count,
            "buckets": {
                str(index): n for index, n in sorted(self._buckets.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output.

        Raises:
            KeyError: on a missing required field.
            ValueError: on malformed counts/accuracy.
        """
        sketch = cls(float(doc["relative_accuracy"]))  # type: ignore[arg-type]
        buckets = doc.get("buckets", {})
        assert isinstance(buckets, dict)
        for key, n in buckets.items():
            count = int(n)  # type: ignore[arg-type]
            if count < 0:
                raise ValueError(f"bucket {key!r} has negative count {count}")
            sketch._buckets[int(key)] = count
        sketch._zero_count = int(doc.get("zero_count", 0))  # type: ignore[arg-type]
        sketch.count = int(doc["count"])  # type: ignore[arg-type]
        sketch.total = float(doc["sum"])  # type: ignore[arg-type]
        low = doc.get("min")
        high = doc.get("max")
        sketch.low = math.inf if low is None else float(low)  # type: ignore[arg-type]
        sketch.high = -math.inf if high is None else float(high)  # type: ignore[arg-type]
        return sketch

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "QuantileSketch(empty)"
        return (
            f"QuantileSketch(n={self.count}, p50={self.p50:.3g}, "
            f"p95={self.p95:.3g}, min={self.low:.3g}, max={self.high:.3g})"
        )


def merge_all(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    """Merge an iterable of sketches into a fresh one.

    Raises:
        ValueError: on an empty iterable or mismatched accuracies.
    """
    result: QuantileSketch = None  # type: ignore[assignment]
    for sketch in sketches:
        if result is None:
            result = sketch.copy()
        else:
            result.merge(sketch)
    if result is None:
        raise ValueError("merge_all of no sketches")
    return result

"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the aggregate side of observability: where spans answer
"how long did this call take", the registry answers "how much work did
the planner do overall" — DP cells evaluated, LAP assignments applied,
boundary layers stolen, windows violating the 2-High rule.  Metrics
count *work performed*, including work on candidate plans the planner
later discards; the provenance log (``repro.obs.events``) is the record
of what was committed.

Everything is plain stdlib; snapshots flush to JSON or aligned text.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Dict, List, Sequence, Tuple

#: Default histogram buckets (upper bounds); the last bucket is +inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative add {amount}")
        self.value += amount


class Gauge:
    """Last-set value (e.g. the most recent makespan)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are upper bounds of the finite buckets; one overflow
    bucket (+inf) is always appended.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "low", "high")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r}: need at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r}: duplicate bucket bounds")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf

    def observe(self, value: float) -> None:
        # First bound >= value; past the last bound -> overflow bucket.
        idx = bisect.bisect_left(self.buckets, value)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        self.low = min(self.low, value)
        self.high = max(self.high, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.low if self.count else None,
            "max": self.high if self.count else None,
            "buckets": {
                (f"le_{bound:g}" if i < len(self.buckets) else "inf"): n
                for i, (bound, n) in enumerate(
                    zip(self.buckets + (math.inf,), self.counts)
                )
            },
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, created lazily on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors (create on first use) --------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, DEFAULT_BUCKETS)
        return h

    # -- flush -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view of every metric (JSON-serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Aligned terminal dump, one metric per line."""
        lines: List[str] = []
        snap = self.snapshot()
        counters = snap["counters"]
        gauges = snap["gauges"]
        if counters:
            lines.append("counters:")
            width = max(len(n) for n in counters)
            for name, value in counters.items():  # type: ignore[union-attr]
                lines.append(f"  {name:<{width}s} {value:g}")
        if gauges:
            lines.append("gauges:")
            width = max(len(n) for n in gauges)
            for name, value in gauges.items():  # type: ignore[union-attr]
                lines.append(f"  {name:<{width}s} {value:g}")
        if self._histograms:
            lines.append("histograms:")
            for name, hist in sorted(self._histograms.items()):
                if hist.count:
                    lines.append(
                        f"  {name}: n={hist.count} mean={hist.mean:.3g} "
                        f"min={hist.low:.3g} max={hist.high:.3g}"
                    )
                else:
                    lines.append(f"  {name}: n=0")
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

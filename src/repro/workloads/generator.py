"""Random multi-DNN workload generation (Fig. 7 / Fig. 8 inputs).

The paper evaluates "samples of 100 random model combinations" drawn
from the ten-model zoo.  This module reproduces that workload source
with explicit seeding so every experiment is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..models.ir import ModelGraph
from ..models.zoo import MODEL_NAMES, get_model


@dataclass(frozen=True)
class WorkloadSpec:
    """One sampled request sequence."""

    index: int
    model_names: Tuple[str, ...]

    def models(self) -> List[ModelGraph]:
        return [get_model(name) for name in self.model_names]

    def __len__(self) -> int:
        return len(self.model_names)


def sample_combinations(
    count: int = 100,
    min_size: int = 3,
    max_size: int = 8,
    seed: int = 2025,
) -> List[WorkloadSpec]:
    """Sample random model combinations from the zoo.

    A sequence may repeat a model: real request streams repeat popular
    models.

    Args:
        count: Number of combinations (the paper uses 100).
        min_size: Smallest request-sequence length.
        max_size: Largest request-sequence length.
        seed: RNG seed.

    Returns:
        ``count`` :class:`WorkloadSpec` objects.

    Raises:
        ValueError: on invalid sizes.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 1 <= min_size <= max_size:
        raise ValueError("need 1 <= min_size <= max_size")

    rng = np.random.default_rng(seed)
    specs: List[WorkloadSpec] = []
    for index in range(count):
        size = int(rng.integers(min_size, max_size + 1))
        names = rng.choice(
            np.asarray(MODEL_NAMES, dtype=object), size=size, replace=True
        )
        specs.append(WorkloadSpec(index=index, model_names=tuple(names)))
    return specs


def arrival_times_ms(
    num_requests: int, interval_ms: float, jitter: float = 0.0, seed: int = 0
) -> List[float]:
    """Deterministic (optionally jittered) arrival schedule.

    Used by the queueing experiments (Fig. 2a): requests arrive every
    ``interval_ms`` with uniform jitter of ``± jitter * interval_ms``.

    Raises:
        ValueError: on a non-finite or non-positive interval, or jitter
            outside [0, 1).
    """
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if not (math.isfinite(interval_ms) and interval_ms > 0):
        raise ValueError(f"interval must be finite and positive, got {interval_ms}")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")
    rng = np.random.default_rng(seed)
    times = []
    for i in range(num_requests):
        base = i * interval_ms
        if jitter:
            base += float(rng.uniform(-jitter, jitter)) * interval_ms
        times.append(max(0.0, base))
    return sorted(times)

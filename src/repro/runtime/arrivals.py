"""Injectable arrival processes for the discrete-event engine.

The legacy executor only accepted a pre-materialized list of arrival
times, which is fine for closed-loop plan evaluation but not for the
serving workloads the ROADMAP targets: open-loop traffic is described
by a *process* (periodic cameras, Poisson app launches), and the same simulation must be reproducible bit-for-bit across
runs (lint rule H2P121: every RNG is explicitly seeded).

An :class:`ArrivalProcess` materializes arrival timestamps for ``n``
requests; :func:`resolve_arrivals` is the adapter the engine and
:func:`~repro.runtime.executor.simulate_chains` use so call sites may
pass a plain sequence, a process, or nothing (all-zero closed loop).

Processes are deliberately *pure generators of timestamps* — admission,
deadlines and cancellation are engine concerns
(:mod:`repro.runtime.engine`), not arrival concerns.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Union

_PROCESS_NAMES = ("closed", "periodic", "poisson")


class ArrivalProcess:
    """Base class: materialize ``n`` monotone arrival timestamps (ms)."""

    #: Process family name (used by the CLI and telemetry documents).
    name = "closed"

    def times_ms(self, n: int) -> List[float]:
        """``n`` non-decreasing arrival times in ms, starting at >= 0.

        Raises:
            ValueError: when ``n`` is negative.
        """
        if n < 0:
            raise ValueError(f"need n >= 0 requests, got {n}")
        return [0.0] * n


class DeterministicArrivals(ArrivalProcess):
    """Periodic arrivals: request ``i`` arrives at ``i * interval_ms``.

    The open-loop analogue of ``workloads.generator.arrival_times_ms``
    with zero jitter, kept here so the runtime layer does not import
    the (numpy-based) workload generator.
    """

    name = "periodic"

    def __init__(self, interval_ms: float) -> None:
        if not (math.isfinite(interval_ms) and interval_ms > 0):
            raise ValueError(f"interval must be finite and > 0 ms, got {interval_ms}")
        self.interval_ms = interval_ms

    def times_ms(self, n: int) -> List[float]:
        if n < 0:
            raise ValueError(f"need n >= 0 requests, got {n}")
        return [i * self.interval_ms for i in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson arrivals with exponential inter-arrival gaps.

    The mean inter-arrival time is ``interval_ms`` (i.e. the rate is
    ``1000 / interval_ms`` requests per second).  The RNG seed is a
    required constructor input so two simulations of the same schedule
    are identical (H2P121); the process is stateless across calls —
    ``times_ms(n)`` always replays the same prefix.
    """

    name = "poisson"

    def __init__(self, interval_ms: float, seed: int = 0) -> None:
        if not (math.isfinite(interval_ms) and interval_ms > 0):
            raise ValueError(f"interval must be finite and > 0 ms, got {interval_ms}")
        self.interval_ms = interval_ms
        self.seed = seed

    def times_ms(self, n: int) -> List[float]:
        if n < 0:
            raise ValueError(f"need n >= 0 requests, got {n}")
        rng = random.Random(self.seed)
        times: List[float] = []
        now_ms = 0.0
        for _ in range(n):
            now_ms += rng.expovariate(1.0 / self.interval_ms)
            times.append(now_ms)
        return times


#: What engine entry points accept wherever arrivals are expected.
ArrivalsLike = Union[Sequence[float], ArrivalProcess, None]


def resolve_arrivals(n: int, arrivals: ArrivalsLike) -> List[float]:
    """Materialize an arrivals argument into ``n`` timestamps.

    Args:
        n: Number of requests the simulation runs.
        arrivals: ``None`` (closed loop, all zero), a plain sequence of
            per-request times, or an :class:`ArrivalProcess`.

    Raises:
        ValueError: when a plain sequence has the wrong length.
    """
    if arrivals is None:
        return [0.0] * n
    if isinstance(arrivals, ArrivalProcess):
        return arrivals.times_ms(n)
    times = list(arrivals)
    if len(times) != n:
        raise ValueError(f"expected {n} arrival times, got {len(times)}")
    return times


def make_arrival_process(
    name: str,
    interval_ms: float = 30.0,
    seed: int = 0,
) -> Optional[ArrivalProcess]:
    """CLI factory: build a process from its family name.

    Raises:
        ValueError: on an unknown name.
    """
    if name == "closed":
        return None
    if name == "periodic":
        return DeterministicArrivals(interval_ms)
    if name == "poisson":
        return PoissonArrivals(interval_ms, seed=seed)
    raise ValueError(
        f"unknown arrival process {name!r}; options: {_PROCESS_NAMES}"
    )

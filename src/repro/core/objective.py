"""Planner hot-path caching: memoized objective and plan lookups.

Every probe the planner's vertical phase makes — a trial boundary move
in the stealing descent, a candidate placement in the tail search, the
arrival-vs-mitigated comparison — is answered by a *full* event-driven
re-simulation (:func:`repro.runtime.schedule.async_makespan_ms`, which
delegates to ``execute_plan``).  A five-model plan runs ~400 of these
silent simulations; a twenty-model plan runs thousands.  The greedy
descents re-visit identical configurations constantly (every rejected
neighbour is re-probed on the next iteration, the committed plan is
re-scored at the end), so the simulations are heavily redundant.

This module removes the redundancy without weakening the search:

* :func:`plan_fingerprint` — a cheap, exact identity for a
  :class:`~repro.core.plan.PipelinePlan` configuration: the SoC,
  the processor order, the request order and every request's
  ``(model, slices)`` assignment.  Two plans with equal fingerprints
  have byte-identical simulated makespans, because the simulation is a
  deterministic function of exactly those inputs.
* :class:`ObjectiveCache` — memoizes any plan-level objective (by
  default :func:`~repro.runtime.schedule.async_makespan_ms`) under that
  fingerprint, in a bounded LRU.  Cached probes return the *identical*
  float the simulation produced, so every accept/reject comparison in
  the descent is unchanged and cached vs uncached planners emit
  byte-identical plans.
* :class:`LRUCache` — the bounded mapping both caches above and the
  planner's front-door plan cache build on, with hit/miss/eviction
  accounting that works even when the observability recorder is off.

Cache-effectiveness counters flow through :mod:`repro.obs`
(``objective_cache_hits`` / ``objective_cache_misses``; the planner
adds ``plan_cache_hits`` / ``plan_cache_misses``) and surface in
``hetero2pipe stats``.  See ``docs/PERFORMANCE.md`` for the fingerprint
scheme and the invalidation rules.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Generic, Optional, Tuple, TypeVar

from .. import obs
from ..runtime.schedule import async_makespan_ms

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .plan import PipelinePlan

K = TypeVar("K")
V = TypeVar("V")

#: A plan configuration identity: hashable, equality == same simulation.
Fingerprint = Tuple[object, ...]

#: Default bound on memoized objective evaluations.  A twenty-request
#: descent probes a few thousand distinct configurations; 16384 keeps
#: every probe of even large plans resident while bounding memory to a
#: few MB of small tuples and floats.
DEFAULT_OBJECTIVE_CACHE_SIZE = 16384


class LRUCache(Generic[K, V]):
    """A bounded least-recently-used mapping with hit/miss accounting.

    The accounting is plain instance state (not ``repro.obs`` metrics)
    so benchmarks and tests can read effectiveness with the recorder
    off; callers that want the counters in the metrics registry add
    them at their own call sites.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"LRU maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> Optional[V]:
        """The cached value, refreshed as most-recent; None on a miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh a value, evicting the oldest entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (accounting is preserved)."""
        self._data.clear()


def plan_fingerprint(
    plan: "PipelinePlan", with_contention: bool = True
) -> Fingerprint:
    """Exact configuration identity of a plan for objective memoization.

    Captures everything the deterministic simulator reads: the SoC, the
    pipeline's processor order, the committed request order and each
    request's ``(model name, per-stage slices)`` assignment, plus the
    contention toggle.  Model *names* stand in for profiles — the same
    convention :class:`~repro.profiling.profiler.SocProfiler` keys its
    cache on — so a fingerprint is only meaningful within one
    planner/profiler scope (see docs/PERFORMANCE.md, invalidation).
    """
    return (
        plan.soc.name,
        tuple(p.name for p in plan.processors),
        plan.order,
        tuple(
            (a.model_name, tuple(a.slices)) for a in plan.assignments
        ),
        with_contention,
    )


class ObjectiveCache:
    """Memoizes a plan objective under :func:`plan_fingerprint`.

    Drop-in callable for :func:`~repro.runtime.schedule.async_makespan_ms`
    anywhere the planner probes a configuration::

        objective = ObjectiveCache()
        cost = objective(plan)            # simulates, memoizes
        cost = objective(plan)            # pure lookup, identical float

    The cache is sound because the simulation is a deterministic pure
    function of the fingerprint; a hit returns the exact float a fresh
    simulation would, so greedy accept/reject decisions — and therefore
    the final plan — are unchanged.  Scope the cache to one
    planner/profiler pair: profiles are keyed by model name, so a cache
    must never outlive the profiler whose costs it memoized.

    A miss is cheaper than a full execution: the default objective runs
    the engine with causality tracking off and builds its chains from
    the profiles' memoized slice tasks, whose workloads carry their
    contention inputs precomputed (see
    :func:`~repro.runtime.schedule.async_makespan_ms`).

    Args:
        objective: The underlying plan-level objective.
        maxsize: LRU bound on memoized fingerprints.
    """

    def __init__(
        self,
        objective: Callable[..., float] = async_makespan_ms,
        maxsize: int = DEFAULT_OBJECTIVE_CACHE_SIZE,
    ) -> None:
        self._objective = objective
        self._cache: LRUCache[Fingerprint, float] = LRUCache(maxsize)

    @property
    def hits(self) -> int:
        """Probes answered from the cache (no simulation ran)."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Probes that ran the underlying simulation."""
        return self._cache.misses

    @property
    def evictions(self) -> int:
        return self._cache.evictions

    def __len__(self) -> int:
        return len(self._cache)

    def __call__(
        self, plan: "PipelinePlan", with_contention: bool = True
    ) -> float:
        key = plan_fingerprint(plan, with_contention)
        cached = self._cache.get(key)
        if cached is not None:
            obs.add("objective_cache_hits")
            return cached
        obs.add("objective_cache_misses")
        # The span makes every real re-simulation attributable: the
        # self-profiler (repro.obs.prof) folds these into the
        # ``objective`` phase, separating simulation cost from the
        # stealing/tail search that issues the probes.  Cache hits stay
        # span-free — they are dictionary lookups, not simulations.
        with obs.span("plan.objective", requests=plan.num_requests) as sp:
            value = self._objective(plan, with_contention)
            sp.set(makespan_ms=value)
        self._cache.put(key, value)
        return value

    def clear(self) -> None:
        self._cache.clear()

"""Planner hot-path caching: memoized objective and plan lookups.

Every probe the planner's vertical phase makes — a trial boundary move
in the stealing descent, a candidate placement in the tail search, the
arrival-vs-mitigated comparison — is answered by an event-driven
re-simulation (:func:`repro.runtime.executor.async_makespan_ms`).  A
five-model plan runs ~400 of these
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
* :class:`ObjectiveCache` — memoizes the plan objective
  (:func:`~repro.runtime.executor.async_makespan_ms`) under that
  fingerprint, in a bounded LRU.  Cached probes return the *identical*
  float the simulation produced, so every accept/reject comparison in
  the descent is unchanged and cached vs uncached planners emit
  byte-identical plans.
* :class:`LRUCache` — the bounded mapping both caches above and the
  planner's front-door plan cache build on, with hit/miss/eviction
  accounting that works even when the observability recorder is off.

Probes are also *incremental*: a caller that keeps only values below a
threshold passes it as ``stop_at_ms``, and a probe that provably
reaches it stops early and returns ``inf``; the cache keeps that
threshold as a proven lower bound.  :meth:`ObjectiveCache.anchor`
checkpoints one simulation of the current plan so its neighbours'
probes resume from it rather than replaying the shared prefix (see
:class:`~repro.runtime.executor.ProbeAnchor`), and returns a probe that
takes a neighbour as one request's new slices.  None of these changes
a value or a decision.

Cache-effectiveness counters flow through :mod:`repro.obs`
(``objective_cache_hits`` / ``objective_cache_misses``; the planner
adds ``plan_cache_hits`` / ``plan_cache_misses``) and surface in
``hetero2pipe stats``.  See ``docs/PERFORMANCE.md`` for the fingerprint
scheme and the invalidation rules.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Generic,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from .. import obs
from ..runtime.executor import ProbeAnchor, async_makespan_ms

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .plan import PipelinePlan

K = TypeVar("K")
V = TypeVar("V")

#: A plan configuration identity: hashable, equality == same simulation.
Fingerprint = Tuple[object, ...]

#: A probe of one move: ``(request, slices, stop_at_ms)`` to the objective
#: of a plan with ``assignments[request]`` at ``slices``, or ``inf`` once
#: that provably reaches ``stop_at_ms`` (see :meth:`ObjectiveCache.anchor`).
MoveProbe = Callable[[int, Sequence[Optional[Tuple[int, int]]], float], float]

#: Bound on memoized objective evaluations.  A twenty-request descent
#: probes a few thousand distinct configurations; 16384 keeps every
#: probe of even large plans resident while bounding memory to a few MB
#: of small tuples and floats.
OBJECTIVE_CACHE_SIZE = 16384


class LRUCache(Generic[K, V]):
    """A bounded least-recently-used mapping with hit/miss accounting.

    The accounting is plain instance state (not ``repro.obs`` metrics)
    so benchmarks and tests can read effectiveness with the recorder
    off; callers that want the counters in the metrics registry add
    them at their own call sites.
    """

    def __init__(self, maxsize: int) -> None:
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


def plan_fingerprint(plan: "PipelinePlan") -> Fingerprint:
    """Exact configuration identity of a plan for objective memoization.

    Captures everything the deterministic simulator reads: the SoC, the
    pipeline's processor order, the committed request order and each
    request's ``(model name, per-stage slices)`` assignment.  The last
    field is the contention toggle the objective always runs with
    (True); the ``drift`` verb's plan digests hash the whole tuple.
    Model *names* stand in for profiles — the same
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
        True,
    )


class LowerBound(NamedTuple):
    """A pruned probe's cache entry: its run provably reached ``cutoff_ms``.

    See :meth:`~repro.runtime.engine.ProbeRun.bounded_ms`;
    the entry answers any later probe whose own cutoff is no higher.
    """

    cutoff_ms: float


class ObjectiveCache:
    """Memoizes the plan objective under :func:`plan_fingerprint`.

    Drop-in callable for :func:`~repro.runtime.executor.async_makespan_ms`
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

    A miss is cheaper than a full execution: the probe is a
    :class:`~repro.runtime.engine.ProbeRun`, which builds no engine and
    steps only what a makespan reads, over chains built from the
    profiles' memoized slice tasks, whose workloads carry their
    contention inputs precomputed (see
    :func:`~repro.runtime.executor.async_makespan_ms`).

    **Cutoffs.**  ``stop_at_ms`` is the value a probe must beat: the
    probe returns ``inf`` once its run provably reaches it, and the
    cache stores the cutoff as a :class:`LowerBound`.  A later probe of
    that fingerprint is answered ``inf`` when its own cutoff is no
    higher, and re-simulated otherwise.  Exact values answer every
    probe, as before.

    **Anchors.**  :meth:`anchor` runs one checkpointed simulation of a
    plan; until the next anchor, misses on plans that differ from it
    only in some requests' slices resume from its checkpoints.  The
    resumed value is the same float a fresh simulation produces.  It
    also returns the anchor's :data:`MoveProbe`, which names a
    neighbour by one request's new slices instead of by a plan: no plan
    is mutated, fingerprinted whole or compared request by request, and
    it shares every entry with :meth:`__call__`.

    At most :data:`OBJECTIVE_CACHE_SIZE` fingerprints stay memoized.
    """

    def __init__(self) -> None:
        self._cache: LRUCache[Fingerprint, Union[float, LowerBound]] = LRUCache(
            OBJECTIVE_CACHE_SIZE
        )
        #: Probes answered from the cache (no simulation ran).
        self.hits = 0
        #: Probes that ran a simulation.
        self.misses = 0
        self._anchor: Optional[ProbeAnchor] = None
        self._anchor_key: Optional[Fingerprint] = None

    @property
    def evictions(self) -> int:
        return self._cache.evictions

    def __len__(self) -> int:
        return len(self._cache)

    def __call__(
        self, plan: "PipelinePlan", *, stop_at_ms: float = math.inf
    ) -> float:
        return self._probe(
            plan_fingerprint(plan), plan.num_requests, stop_at_ms, self._simulate, plan
        )

    def _simulate(self, plan: "PipelinePlan", stop_at_ms: float) -> float:
        """A miss of :meth:`__call__`: resumed from the anchor when it can be."""
        value = None
        if self._anchor is not None:
            value = self._anchor.probe_ms(plan, stop_at_ms)
        if value is None:
            value = async_makespan_ms(plan, stop_at_ms)
        return value

    def anchor(self, plan: "PipelinePlan") -> MoveProbe:
        """Checkpoint one simulation of ``plan``; return its neighbours' probe.

        The returned :data:`MoveProbe` answers ``(request, slices,
        stop_at_ms)`` as this cache answers ``plan`` with
        ``plan.assignments[request]`` at ``slices`` — the same key, so
        the same hits, misses and :class:`LowerBound` entries — without
        touching ``plan``.  It holds the anchor fingerprint's parts, so
        a key is the fingerprint with one request's entry replaced, and
        it passes through :meth:`_probe` as every probe does.  A miss
        resumes the anchor's run from where that request's new slices
        leave it (:meth:`~repro.runtime.executor.ProbeAnchor.move_ms`),
        building no resumed run.  It describes ``plan`` as anchored, so
        it serves until ``plan`` changes.

        A no-op when ``plan`` is the current anchor, apart from returning
        its probe.  A new anchor that neighbours the old one resumes from
        it.  The anchor run counts as an ``objective_evaluations``
        simulation but not as a probe.
        """
        key = plan_fingerprint(plan)
        anchor = self._anchor
        if anchor is None or key != self._anchor_key:
            anchor = self._anchor = ProbeAnchor(plan, previous=anchor)
            self._anchor_key = key
            self._cache.put(key, anchor.makespan_ms)
        return _AnchoredProbe(self, anchor, key)

    def _probe(
        self,
        key: Fingerprint,
        requests: int,
        stop_at_ms: float,
        simulate: Callable[..., float],
        *args: object,
    ) -> float:
        """The cached answer under ``key``, or ``simulate(*args, stop_at_ms)``'s,
        memoized.

        Every probe passes through here.  With the recorder off it
        counts hits and misses only on this cache and opens no span.
        """
        cache = self._cache
        cached = cache.get(key)
        if cached is not None and (
            not isinstance(cached, LowerBound) or stop_at_ms <= cached.cutoff_ms
        ):
            self.hits += 1
            if obs.enabled():
                obs.add("objective_cache_hits")
            return math.inf if isinstance(cached, LowerBound) else cached
        self.misses += 1
        if obs.enabled():
            obs.add("objective_cache_misses")
            # The span makes every real re-simulation attributable: the
            # self-profiler (repro.obs.prof) folds these into the
            # ``objective`` phase, separating simulation cost from the
            # stealing/tail search that issues the probes.  Cache hits
            # stay span-free — they are dictionary lookups, not
            # simulations.
            with obs.span("plan.objective", requests=requests) as sp:
                value = simulate(*args, stop_at_ms)
                if value == math.inf and stop_at_ms < math.inf:
                    sp.set(pruned=True)
                else:
                    sp.set(makespan_ms=value)
        else:
            value = simulate(*args, stop_at_ms)
        if value == math.inf and stop_at_ms < math.inf:
            cache.put(key, LowerBound(stop_at_ms))
        else:
            cache.put(key, value)
        return value

    def clear(self) -> None:
        self._cache.clear()
        self._anchor = None
        self._anchor_key = None


class _AnchoredProbe:
    """The :data:`MoveProbe` of :meth:`ObjectiveCache.anchor`.

    It keeps the anchor fingerprint's parts: the fields before and
    after the per-request entries, the entries and their model names,
    so a move's key replaces one entry and builds one tuple.
    """

    __slots__ = ("_cache", "_anchor", "_head", "_entries", "_models", "_tail")

    def __init__(
        self, cache: ObjectiveCache, anchor: ProbeAnchor, key: Fingerprint
    ) -> None:
        self._cache = cache
        self._anchor = anchor
        # ``plan_fingerprint``'s fourth field holds one entry per request.
        entries: Tuple[Tuple[str, object], ...] = key[3]  # type: ignore[assignment]
        self._head = key[:3]
        self._entries = entries
        self._models = [model for model, _ in entries]
        self._tail = key[4:]

    def __call__(
        self,
        request: int,
        slices: Sequence[Optional[Tuple[int, int]]],
        stop_at_ms: float = math.inf,
    ) -> float:
        entries = list(self._entries)
        entries[request] = (self._models[request], tuple(slices))
        return self._cache._probe(
            self._head + (tuple(entries),) + self._tail,
            len(entries),
            stop_at_ms,
            self._anchor.move_ms,
            request,
            slices,
        )

"""The Hetero2Pipe planner facade: the paper's two-step optimization.

Orchestrates the full pipeline-planning flow of Fig. 3:

1. **Horizontal** (P1): each request is independently partitioned over
   the SoC's power-ordered processors by the Algorithm 1 DP.
2. **Contention scoring**: the Eq. 1 ridge estimator labels requests
   High/Low contention from their solo PMU features.
3. **Mitigation** (P3): Algorithm 2 re-orders the sequence so no
   contention window holds two High requests, at minimum displacement.
4. **Vertical** (P2): Algorithm 3 steals boundary layers between stages
   to align co-running slices with the critical path, then exhaustively
   re-places the draining tail.

Each step can be disabled for the paper's ablations (the "No C/T"
baseline disables mitigation and tail optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..models.zoo import all_models
from ..profiling.profiler import ModelProfile, SocProfiler
from ..runtime.executor import async_makespan_ms
from .contention import ContentionEstimator, ContentionScore
from .mitigation import MitigationResult, mitigate_sequence
from .objective import LRUCache, ObjectiveCache
from .partition import PartitionResult, partition_model
from .plan import PipelinePlan, StageAssignment
from .stealing import PlanObjective, optimize_tail, vertical_alignment

#: Default bound on memoized whole-plan reports (requests mixes).
DEFAULT_PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class PlannerConfig:
    """Feature switches and knobs of the planner.

    Attributes:
        enable_mitigation: Run Algorithm 2 request re-ordering.
        enable_work_stealing: Run Algorithm 3 phase 1.
        enable_tail_optimization: Run Algorithm 3 phase 2.
        enable_caches: Memoize the vertical phase's objective probes
            (``async_makespan_ms``) under the plan fingerprint, so
            re-probed configurations skip the re-simulation, and keep
            a bounded LRU of finished :class:`PlanReport` objects keyed
            by the request mix, so online re-planning of a recurring
            mix is a lookup.  Pure memoization of deterministic
            functions: the emitted plan is byte-identical either way.
    """

    enable_mitigation: bool = True
    enable_work_stealing: bool = True
    enable_tail_optimization: bool = True
    enable_caches: bool = True

    @classmethod
    def no_contention_or_tail(cls) -> "PlannerConfig":
        """The paper's "Hetero2Pipe (No C/T)" ablation."""
        return cls(enable_mitigation=False, enable_tail_optimization=False)

    @classmethod
    def uncached(cls) -> "PlannerConfig":
        """Everything enabled but every cache off — the planner always
        re-simulates and re-plans from scratch (benchmark baseline)."""
        return cls(enable_caches=False)


@dataclass
class PlanReport:
    """Planner output bundle: the plan plus per-step diagnostics."""

    plan: PipelinePlan
    partitions: List[PartitionResult]
    scores: List[ContentionScore]
    mitigation: Optional[MitigationResult]
    stealing_moves: int
    tail_changed: bool

    def clone(self) -> "PlanReport":
        """An isolated copy: the mutable plan is deep-copied, the frozen
        diagnostics (partitions, scores, mitigation) are shared."""
        return PlanReport(
            plan=self.plan.copy(),
            partitions=list(self.partitions),
            scores=list(self.scores),
            mitigation=self.mitigation,
            stealing_moves=self.stealing_moves,
            tail_changed=self.tail_changed,
        )


#: Plan-cache key: (soc, per-request (model name, layer count), config).
PlanCacheKey = Tuple[str, Tuple[Tuple[str, int], ...], PlannerConfig]


class Hetero2PipePlanner:
    """Plans multi-DNN pipelines on one SoC.

    The planner owns three memoization layers (see docs/PERFORMANCE.md):
    the profiler's per-model profile cache (shared with the estimator's
    zoo fit), a per-model horizontal-partition cache, and
    an :class:`~repro.core.objective.ObjectiveCache` that deduplicates
    the vertical phase's re-simulations within one :meth:`plan` call
    (it is cleared once the plan is built: its fingerprints name whole
    plans, and a recurring mix is answered by the plan cache).  A
    bounded LRU of whole :class:`PlanReport` objects sits in front of
    :meth:`plan` for recurring request mixes.  All caches are scoped to
    this instance — building a planner for a new/modified
    :class:`SocSpec` starts cold.

    Args:
        soc: Target platform.
        config: Feature switches; defaults to everything enabled.
        estimator: Contention estimator; by default one is fitted on the
            ten-model zoo profiled on this SoC (the paper's offline
            regression step), reusing this planner's profiler so the zoo
            profiles are measured once.
    """

    def __init__(
        self,
        soc: SocSpec,
        config: Optional[PlannerConfig] = None,
        estimator: Optional[ContentionEstimator] = None,
    ) -> None:
        self.soc = soc
        self.config = config or PlannerConfig()
        self.profiler = SocProfiler(soc)
        self.estimator = estimator or ContentionEstimator.fit_from_zoo(
            soc, all_models(), profiler=self.profiler
        )
        self._partition_cache: Dict[str, PartitionResult] = {}
        self.objective: PlanObjective = async_makespan_ms
        self._plan_cache: Optional[LRUCache[PlanCacheKey, PlanReport]] = None
        if self.config.enable_caches:
            self.objective = ObjectiveCache()
            self._plan_cache = LRUCache(DEFAULT_PLAN_CACHE_SIZE)

    def invalidate_caches(self) -> None:
        """Drop every memoized prediction this planner has accumulated.

        The replan/re-profile trigger: after a ``DriftDetected`` event
        the cached partitions and finished plans embed predictions the
        drift just falsified, so the streaming layer clears them before
        planning the next window (the objective cache holds nothing
        between plans: :meth:`plan` clears it).  Profiles on the shared
        profiler are *measurements*, not predictions, and are kept;
        their slice-task memos are dropped, which bounds the memos to
        one plan's probes.
        """
        self._partition_cache.clear()
        self.profiler.clear_slice_tasks()
        if self._plan_cache is not None:
            self._plan_cache.clear()
        obs.add("planner_cache_invalidations")

    def _partition(self, profile: ModelProfile) -> PartitionResult:
        """Horizontal DP for one request, memoized per model.

        Sound because profiles come from this planner's profiler (one
        immutable profile per model name) and ``partition_model`` is a
        deterministic function of (profile, processors); results are
        frozen and safely shared across plans.
        """
        key = profile.model.name
        cached = self._partition_cache.get(key)
        if cached is not None:
            obs.add("partition_cache_hits")
            return cached
        obs.add("partition_cache_misses")
        result = partition_model(profile, self.soc.processors)
        self._partition_cache[key] = result
        return result

    def plan(self, models: Sequence[ModelGraph]) -> PlanReport:
        """Produce a pipeline plan for a request sequence.

        Args:
            models: Requests in arrival order.

        Returns:
            A :class:`PlanReport`; ``report.plan`` is ready for the
            executor.

        Raises:
            ValueError: on an empty request sequence or an unplaceable
                model.
        """
        if not models:
            raise ValueError("request sequence must be non-empty")
        cache_key: Optional[PlanCacheKey] = None
        if self._plan_cache is not None:
            cache_key = (
                self.soc.name,
                tuple((m.name, m.num_layers) for m in models),
                self.config,
            )
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                obs.add("plan_cache_hits")
                return cached.clone()
            obs.add("plan_cache_misses")
        rec = obs.get_recorder()
        processors = self.soc.processors
        with obs.span(
            "plan", requests=len(models), soc=self.soc.name
        ) as root:
            with obs.span("plan.profile", requests=len(models)):
                profiles = [self.profiler.profile(m) for m in models]

            # Step 1 — horizontal DP per request (P1).
            partitions = [self._partition(p) for p in profiles]
            if rec.enabled:
                for i, part in enumerate(partitions):
                    obs.emit(
                        obs.SliceChosen(
                            request=i,
                            model=models[i].name,
                            slices=part.slices,
                            stage_times_ms=part.stage_times_ms,
                            makespan_ms=part.makespan_ms,
                        )
                    )

            # Step 2 — contention scoring (Eq. 1).
            scores = self.estimator.classify(profiles)

            # Step 3 — mitigation re-ordering (P3 / Algorithm 2).  Both
            # the arrival order and the mitigated order are carried
            # through the vertical phase; the planner commits to
            # whichever yields the smaller contention-aware makespan, so
            # re-ordering is only ever accepted when it actually pays
            # for its displacement.
            mitigation: Optional[MitigationResult] = None
            candidate_orders: List[Tuple[int, ...]] = [
                tuple(range(len(models)))
            ]
            if self.config.enable_mitigation and len(models) > 1:
                labels = [s.is_high for s in scores]
                mitigation = mitigate_sequence(labels, len(processors))
                if mitigation.order != candidate_orders[0]:
                    candidate_orders.append(mitigation.order)

            # Provenance from each candidate's vertical phase is held in
            # a buffer; only the winner's buffer is committed, so the
            # event log describes exactly the plan that shipped (metrics
            # bypass the buffer — they count all work performed).
            best: Optional[Tuple[float, PipelinePlan, int, bool, int]] = None
            costs: List[float] = []
            buffers: List[List[obs.ProvenanceEvent]] = []
            for index, order in enumerate(candidate_orders):
                with rec.buffered() as buffer, obs.span(
                    "plan.candidate", order=list(order)
                ) as sp:
                    plan = PipelinePlan(
                        soc=self.soc,
                        processors=tuple(processors),
                        assignments=[
                            StageAssignment(
                                profile=profiles[i],
                                slices=list(partitions[i].slices),
                            )
                            for i in order
                        ],
                        order=order,
                    )
                    # Step 4 — vertical alignment (P2 / Algorithm 3).
                    moves, tail_changed = 0, False
                    if self.config.enable_work_stealing:
                        moves, tail_changed = vertical_alignment(
                            plan,
                            enable_tail_optimization=(
                                self.config.enable_tail_optimization
                            ),
                            objective=self.objective,
                        )
                    elif self.config.enable_tail_optimization:
                        tail_changed = optimize_tail(
                            plan, objective=self.objective
                        )
                    cost = self.objective(plan)
                    sp.set(makespan_ms=cost, moves=moves)
                costs.append(cost)
                buffers.append(buffer)
                if best is None or cost < best[0]:
                    best = (cost, plan, moves, tail_changed, index)

            # A fingerprint names a whole plan of this mix, and a
            # recurring mix is answered by the plan cache, so the
            # objective cache lives for one plan.
            if isinstance(self.objective, ObjectiveCache):
                self.objective.clear()
            assert best is not None
            cost, plan, moves, tail_changed, winner = best
            mitigated = winner > 0
            if rec.enabled:
                if mitigated and mitigation is not None:
                    for mv in mitigation.moves:
                        obs.emit(
                            obs.RequestRelocated(
                                request=mv.item,
                                source_position=mv.source_position,
                                target_position=mv.target_position,
                                displacement=mv.cost,
                            )
                        )
                obs.emit(
                    obs.OrderCommitted(
                        order=plan.order,
                        arrival_makespan_ms=costs[0],
                        chosen_makespan_ms=cost,
                        mitigated=mitigated,
                    )
                )
                rec.commit(buffers[winner])
                obs.set_gauge("last_plan_makespan_ms", cost)
            root.set(makespan_ms=cost, mitigated=mitigated)
            plan.validate()
        report = PlanReport(
            plan=plan,
            partitions=partitions,
            scores=scores,
            mitigation=mitigation,
            stealing_moves=moves,
            tail_changed=tail_changed,
        )
        if self._plan_cache is not None and cache_key is not None:
            # Snapshot before handing out: callers may mutate the plan.
            self._plan_cache.put(cache_key, report.clone())
        return report

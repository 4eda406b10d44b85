"""Horizontal model partitioning (P1) — Algorithm 1 of the paper.

For one model and an *ordered* pipeline of K heterogeneous processors,
find the K-way contiguous layer partition minimizing the makespan
(the maximum per-stage time, Eq. 4).  The DP exploits the optimal
sub-structure

    S*(j, k) = min_i max{ S*(i-1, k-1), T_k(i, j) }

with boundary conditions for k = 1.  Two solvers are provided:

* :func:`min_makespan_partition` — the O(n^2 K) exact DP.
* :func:`min_makespan_partition_fast` — the O(n K log n) variant using
  Property 2 (monotonicity of ``T_k(i, j)`` in both endpoints): for a
  fixed stage the optimum split is at the crossing of the non-decreasing
  ``S*(i-1, k-1)`` and the non-increasing ``T_k(i, j)``, found by binary
  search.  (The paper reaches O(nK) with a rolling pointer; the binary
  search keeps the same asymptotics up to the log factor with simpler,
  verifiable code.)

  Property 2 holds for pure execution time but *not* once boundary-copy
  cost is folded in: extending a slice past a pooling layer shrinks the
  copied tensor, so stage cost is not monotone in the slice end, and
  ``S*(., k-1)`` loses monotonicity with it.  The fast solver is
  therefore only used with copy-free costs; :func:`partition_model`
  always runs the exact DP (n <= ~50 layers makes O(n^2 K) negligible).

Stages may be *empty*: the NPU's limited operator set means a model such
as BERT, whose first layer the NPU cannot run, contributes a zero-length
slice to the NPU stage and falls back to the next processor — exactly the
operator-fallback behaviour of Sec. IV.  Infeasible placements surface as
``inf`` cost and the DP routes around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .. import obs
from ..hardware.processor import ProcessorSpec
from ..profiling.profiler import ModelProfile

#: Cost callback signature: ``cost(stage_index, start_layer, end_layer)``
#: for the inclusive layer slice [start, end] on stage ``stage_index``.
CostFn = Callable[[int, int, int], float]


@dataclass(frozen=True)
class PartitionResult:
    """A K-way partition of one model onto an ordered processor pipeline.

    Attributes:
        slices: One entry per stage; ``(start, end)`` inclusive layer
            bounds, or ``None`` for an empty stage.
        stage_times_ms: Per-stage cost (execution + boundary copy); 0.0
            for empty stages.
        makespan_ms: ``max(stage_times_ms)`` — the pipeline interval this
            model sustains.
    """

    slices: Tuple[Optional[Tuple[int, int]], ...]
    stage_times_ms: Tuple[float, ...]
    makespan_ms: float

    @property
    def num_stages(self) -> int:
        return len(self.slices)

    def occupied_stages(self) -> Tuple[int, ...]:
        return tuple(k for k, s in enumerate(self.slices) if s is not None)

    def total_time_ms(self) -> float:
        """Sum of stage times — the model's end-to-end pipeline latency."""
        return sum(self.stage_times_ms)


def min_makespan_partition(
    num_layers: int, num_stages: int, cost: CostFn
) -> Tuple[float, List[Optional[Tuple[int, int]]]]:
    """Reference O(n^2 K) DP for the min-max contiguous partition.

    Args:
        num_layers: n, the layer count.
        num_stages: K, the pipeline depth (stages may end up empty).
        cost: Slice-cost callback; return ``inf`` for infeasible slices.

    Returns:
        ``(makespan, slices)`` with ``slices`` as in :class:`PartitionResult`.

    Raises:
        ValueError: if no feasible partition exists (e.g. a layer no
            stage supports) or the sizes are non-positive.
    """
    if num_layers <= 0 or num_stages <= 0:
        raise ValueError("num_layers and num_stages must be positive")

    inf = math.inf
    # dp[k][j]: best makespan placing the first j layers on the first k
    # stages.  split[k][j]: the chosen j' (layers before this stage).
    dp = [[inf] * (num_layers + 1) for _ in range(num_stages + 1)]
    split = [[-1] * (num_layers + 1) for _ in range(num_stages + 1)]
    dp[0][0] = 0.0

    for k in range(1, num_stages + 1):
        for j in range(num_layers + 1):
            best, best_split = inf, -1
            for s in range(j + 1):
                prev = dp[k - 1][s]
                if math.isinf(prev):
                    continue
                here = 0.0 if s == j else cost(k - 1, s, j - 1)
                candidate = max(prev, here)
                if candidate < best:
                    best, best_split = candidate, s
            dp[k][j] = best
            split[k][j] = best_split

    if math.isinf(dp[num_stages][num_layers]):
        raise ValueError("no feasible partition: some layer is unplaceable")

    slices = _backtrack(split, num_layers, num_stages)
    return dp[num_stages][num_layers], slices


def min_makespan_partition_fast(
    num_layers: int, num_stages: int, cost: CostFn
) -> Tuple[float, List[Optional[Tuple[int, int]]]]:
    """Monotonicity-accelerated DP (Property 2), O(n K log n).

    Produces the same makespan as :func:`min_makespan_partition` whenever
    the cost function is monotone (slice cost non-decreasing as the slice
    grows) and feasibility is prefix-closed per stage.  Infeasible
    (infinite) costs are handled by treating them as larger than any
    finite value, which preserves the monotone structure because an NPU
    slice stays infeasible once it contains an unsupported layer.
    """
    if num_layers <= 0 or num_stages <= 0:
        raise ValueError("num_layers and num_stages must be positive")

    inf = math.inf
    dp = [[inf] * (num_layers + 1) for _ in range(num_stages + 1)]
    split = [[-1] * (num_layers + 1) for _ in range(num_stages + 1)]
    dp[0][0] = 0.0

    for k in range(1, num_stages + 1):
        for j in range(num_layers + 1):
            # Optimal split s* minimizes max(dp[k-1][s], cost(s, j-1)).
            # dp[k-1][s] is non-decreasing in s (more layers, same
            # stages); cost(s, j-1) is non-increasing in s (shorter
            # slice).  Binary-search the crossing, then check both sides.
            lo, hi = 0, j
            while lo < hi:
                mid = (lo + hi) // 2
                prev = dp[k - 1][mid]
                here = 0.0 if mid == j else cost(k - 1, mid, j - 1)
                if prev >= here:
                    hi = mid
                else:
                    lo = mid + 1
            best, best_split = inf, -1
            for s in {max(0, lo - 1), lo, min(j, lo + 1)}:
                prev = dp[k - 1][s]
                if math.isinf(prev):
                    continue
                here = 0.0 if s == j else cost(k - 1, s, j - 1)
                candidate = max(prev, here)
                if candidate < best or (candidate == best and s < best_split):
                    best, best_split = candidate, s
            dp[k][j] = best
            split[k][j] = best_split

    if math.isinf(dp[num_stages][num_layers]):
        raise ValueError("no feasible partition: some layer is unplaceable")

    slices = _backtrack(split, num_layers, num_stages)
    return dp[num_stages][num_layers], slices


def _backtrack(
    split: List[List[int]], num_layers: int, num_stages: int
) -> List[Optional[Tuple[int, int]]]:
    slices: List[Optional[Tuple[int, int]]] = [None] * num_stages
    j = num_layers
    for k in range(num_stages, 0, -1):
        s = split[k][j]
        if s < j:
            slices[k - 1] = (s, j - 1)
        j = s
    return slices


def make_slice_cost(
    profile: ModelProfile,
    processors: Sequence[ProcessorSpec],
    include_copy: bool = True,
) -> CostFn:
    """Slice-cost callback combining ``T^e`` and ``T^c`` of Eq. 2.

    Stage ``k``'s cost for slice [i, j] is its solo execution time on
    ``processors[k]`` plus, when ``include_copy``, the boundary-tensor
    copy toward the next stage's processor (the final stage has no
    hand-off).  Copy-free costs satisfy Property 2 and may be used with
    the fast solver.
    """

    def cost(stage: int, start: int, end: int) -> float:
        proc = processors[stage]
        if not include_copy:
            return profile.exec_ms(proc, start, end)
        next_proc = processors[stage + 1] if stage + 1 < len(processors) else None
        return profile.slice_cost_ms(proc, start, end, next_proc)

    return cost


def partition_model(
    profile: ModelProfile,
    processors: Sequence[ProcessorSpec],
) -> PartitionResult:
    """Partition one model across an ordered processor pipeline.

    Args:
        profile: Solo profile of the model on the target SoC.
        processors: Pipeline stages in execution order (the paper orders
            them by descending processing power).

    Returns:
        The optimal :class:`PartitionResult`.

    Raises:
        ValueError: if no stage can execute some layer.
    """
    if not processors:
        raise ValueError("need at least one processor")
    base_cost = make_slice_cost(profile, processors)
    cost = base_cost
    cells = 0
    if obs.enabled():

        def counting_cost(stage: int, start: int, end: int) -> float:
            nonlocal cells
            cells += 1
            return base_cost(stage, start, end)

        cost = counting_cost
    with obs.span(
        "plan.partition",
        model=profile.model.name,
        layers=profile.model.num_layers,
        stages=len(processors),
        fast=False,  # kept for trace readers: the solver is always exact
    ) as span:
        makespan, slices = min_makespan_partition(
            profile.model.num_layers, len(processors), cost
        )
        # Stage times are reporting, not DP work: price them through the
        # raw cost so ``dp_cells_evaluated`` counts only solver-issued
        # slice evaluations.
        stage_times = tuple(
            0.0 if s is None else base_cost(k, s[0], s[1])
            for k, s in enumerate(slices)
        )
        if cells:
            obs.add("dp_cells_evaluated", cells)
            span.set(dp_cells=cells, makespan_ms=makespan)
    return PartitionResult(
        slices=tuple(slices),
        stage_times_ms=stage_times,
        makespan_ms=makespan,
    )

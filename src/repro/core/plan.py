"""Pipeline plan data structures shared by the planner and the runtime.

A :class:`PipelinePlan` is the planner's output: an ordered sequence of
requests (models), each horizontally partitioned into per-stage layer
slices over the SoC's ordered processors.  Stage ``k`` of request ``i``
executes on processor ``k``; requests flow down the stage order, so
stage ``k`` of request ``i`` co-runs with stage ``k'`` of request ``i'``
whenever ``i + k == i' + k'`` (the same execution *diagonal*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..profiling.profiler import ModelProfile


@dataclass
class StageAssignment:
    """Mutable per-request partition: one slice (or None) per stage.

    Work stealing (Algorithm 3) adjusts these slices in place.
    """

    profile: ModelProfile
    slices: List[Optional[Tuple[int, int]]]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def model_name(self) -> str:
        return self.profile.model.name

    @property
    def num_stages(self) -> int:
        return len(self.slices)

    def validate(self) -> None:
        """Check the slices form a contiguous, complete, in-order cover.

        Raises:
            ValueError: if slices overlap, leave gaps, or are reordered.
        """
        expected = 0
        n = self.profile.model.num_layers
        for k, slc in enumerate(self.slices):
            if slc is None:
                continue
            start, end = slc
            if start != expected:
                raise ValueError(
                    f"{self.model_name}: stage {k} starts at layer {start}, "
                    f"expected {expected}"
                )
            if end < start or end >= n:
                raise ValueError(
                    f"{self.model_name}: stage {k} has invalid slice {slc}"
                )
            expected = end + 1
        if expected != n:
            raise ValueError(
                f"{self.model_name}: slices cover {expected} of {n} layers"
            )

    def stage_time_ms(self, k: int, processors: Sequence[ProcessorSpec]) -> float:
        """Cost of stage ``k`` (exec + boundary copy), 0.0 when empty."""
        slc = self.slices[k]
        if slc is None:
            return 0.0
        next_proc = processors[k + 1] if k + 1 < len(processors) else None
        return self.profile.slice_cost_ms(processors[k], slc[0], slc[1], next_proc)

    def stage_times_ms(self, processors: Sequence[ProcessorSpec]) -> List[float]:
        return [self.stage_time_ms(k, processors) for k in range(self.num_stages)]

    def total_time_ms(self, processors: Sequence[ProcessorSpec]) -> float:
        """End-to-end pipeline latency of this single request."""
        return sum(self.stage_times_ms(processors))

    def is_feasible(self, processors: Sequence[ProcessorSpec]) -> bool:
        """All occupied stages can actually execute their slice."""
        for k, slc in enumerate(self.slices):
            if slc is None:
                continue
            if not self.profile.feasible(processors[k], slc[0], slc[1]):
                return False
        return True

    def working_set_bytes(self) -> float:
        """Peak resident footprint across the request's stages."""
        return sum(
            self.profile.working_set_bytes(s[0], s[1])
            for s in self.slices
            if s is not None
        )

    def copy(self) -> "StageAssignment":
        return StageAssignment(profile=self.profile, slices=list(self.slices))


@dataclass
class PipelinePlan:
    """Planner output: ordered, partitioned requests over an SoC pipeline.

    Attributes:
        soc: Target platform.
        processors: Pipeline stages in execution order.
        assignments: One :class:`StageAssignment` per request, in the
            (possibly re-ordered) execution order.
        order: Mapping from execution position to the original request
            index (identity when no mitigation re-ordering happened).
    """

    soc: SocSpec
    processors: Tuple[ProcessorSpec, ...]
    assignments: List[StageAssignment]
    order: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.order:
            self.order = tuple(range(len(self.assignments)))
        if len(self.order) != len(self.assignments):
            raise ValueError("order and assignments must have equal length")

    @property
    def num_requests(self) -> int:
        return len(self.assignments)

    @property
    def depth(self) -> int:
        return len(self.processors)

    def stage_time_matrix(self) -> List[List[float]]:
        """T[i][k]: solo cost of request i's stage k (0 when empty)."""
        return [a.stage_times_ms(self.processors) for a in self.assignments]

    def validate(self) -> None:
        for a in self.assignments:
            a.validate()
            if not a.is_feasible(self.processors):
                raise ValueError(
                    f"plan places an unsupported layer: {a.model_name}"
                )

    def copy(self) -> "PipelinePlan":
        return PipelinePlan(
            soc=self.soc,
            processors=self.processors,
            assignments=[a.copy() for a in self.assignments],
            order=self.order,
        )

"""Band baseline: greedy subgraph-to-processor mapping with NPU fallback.

Band (Jeong et al., MobiSys 2022) coordinates multi-DNN inference by
splitting each model into subgraphs at operator-support boundaries and
greedily dispatching every subgraph to the processor giving the earliest
estimated finish, falling back from the NPU whenever an operator is
unsupported.  It is the paper's strongest comparator ("a competitive
SOTA scheme that orchestrates the fastest NPU on-board") — but it has
no pipeline planning, no contention model and no bubble optimization,
which is where Hetero2Pipe's extra ~5 % comes from.

The greedy planner here uses contention-*free* solo estimates for its
earliest-finish-time decisions (Band does not model co-execution
slowdown); the resulting mapping is then evaluated on the same
contention-aware simulator as every other scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..profiling.latency import copy_latency_ms
from ..profiling.profiler import INFEASIBLE, SocProfiler
from ..profiling.slowdown import SliceWorkload
from ..runtime.executor import (
    ARENA_OVERHEAD_FACTOR,
    ChainTask,
    ExecutionResult,
    simulate_chains,
)


@dataclass(frozen=True)
class Segment:
    """A maximal run of layers with uniform NPU supportability."""

    start: int
    end: int
    npu_supported: bool


def segment_by_npu_support(model: ModelGraph) -> List[Segment]:
    """Split a model at NPU operator-support boundaries.

    Fully supported models yield one segment; YOLOv4/BERT alternate
    supported and fallback segments.
    """
    segments: List[Segment] = []
    start = 0
    current = model.layers[0].npu_supported()
    for i in range(1, model.num_layers):
        supported = model.layers[i].npu_supported()
        if supported != current:
            segments.append(Segment(start, i - 1, current))
            start, current = i, supported
    segments.append(Segment(start, model.num_layers - 1, current))
    return segments


@dataclass
class BandMapping:
    """Chosen processor per segment of every request."""

    chains: List[List[ChainTask]]
    choices: List[List[str]]  # processor names, aligned with segments


def plan_band(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: Optional[SocProfiler] = None,
) -> BandMapping:
    """Greedy earliest-finish-time mapping of all requests' segments.

    Requests are considered in arrival order; each segment goes to the
    processor minimizing ``max(processor_available, predecessor_done)
    + solo_time + copy`` among processors supporting it.

    Raises:
        ValueError: for an empty request sequence.
    """
    if not models:
        raise ValueError("request sequence must be non-empty")
    profiler = profiler or SocProfiler(soc)
    available: Dict[str, float] = {p.name: 0.0 for p in soc.processors}
    chains: List[List[ChainTask]] = []
    choices: List[List[str]] = []

    for req, model in enumerate(models):
        profile = profiler.profile(model)
        segments = segment_by_npu_support(model)
        chain: List[ChainTask] = []
        picks: List[str] = []
        prev_finish = 0.0
        prev_proc: Optional[ProcessorSpec] = None
        for seg in segments:
            best_proc: Optional[ProcessorSpec] = None
            best_finish = float("inf")
            best_time = 0.0
            for proc in soc.processors:
                solo = profile.exec_ms(proc, seg.start, seg.end)
                if solo == INFEASIBLE:
                    continue
                copy_in = (
                    0.0
                    if prev_proc is None or prev_proc.name == proc.name
                    else copy_latency_ms(
                        profile.model.boundary_bytes(max(seg.start - 1, 0))
                        if seg.start > 0
                        else 0.0,
                        prev_proc,
                        proc,
                    )
                )
                start = max(available[proc.name], prev_finish)
                finish = start + copy_in + solo
                if finish < best_finish:
                    best_finish = finish
                    best_proc = proc
                    best_time = copy_in + solo
            if best_proc is None:
                raise ValueError(
                    f"segment [{seg.start}, {seg.end}] of {model.name!r} "
                    "is unplaceable on this SoC"
                )
            available[best_proc.name] = best_finish
            prev_finish = best_finish
            prev_proc = best_proc
            picks.append(best_proc.name)
            chain.append(
                ChainTask(
                    request=req,
                    proc=best_proc,
                    solo_ms=best_time,
                    workload=SliceWorkload(
                        profile=profile,
                        proc=best_proc,
                        start=seg.start,
                        end=seg.end,
                    ),
                    working_set=ARENA_OVERHEAD_FACTOR
                    * profile.working_set_bytes(seg.start, seg.end),
                )
            )
        chains.append(chain)
        choices.append(picks)
    return BandMapping(chains=chains, choices=choices)


def execute_band(
    soc: SocSpec,
    models: Sequence[ModelGraph],
    profiler: Optional[SocProfiler] = None,
    arrivals: Optional[Sequence[float]] = None,
    **options: Any,
) -> ExecutionResult:
    """Plan with Band's greedy policy and run on the shared simulator.

    ``options`` are forwarded to the engine (see
    :func:`~repro.runtime.executor.simulate_chains`).
    """
    mapping = plan_band(soc, models, profiler)
    return simulate_chains(soc, mapping.chains, arrivals, **options)

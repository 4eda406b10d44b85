"""Uniform scheme-comparison framework.

The experiments repeatedly run {MNN, Pipe-it, Band, No-C/T, H2P} over a
workload set and aggregate latency/throughput/speedups; this module
captures that pattern once: a :class:`Scheme` is a named callable from a
request list to an :class:`~repro.runtime.executor.ExecutionResult`, and
:func:`compare_schemes` runs a registry of them over workloads and
returns a :class:`ComparisonMatrix` with all the aggregate views the
figures need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..hardware.soc import SocSpec
from ..models.ir import ModelGraph
from ..util import geomean
from .executor import ExecutionResult

#: A scheme maps a request list to an executed result.
SchemeFn = Callable[[Sequence[ModelGraph]], ExecutionResult]


@dataclass(frozen=True)
class Scheme:
    """One named scheduling scheme."""

    name: str
    run: SchemeFn


@dataclass
class ComparisonMatrix:
    """Latency/throughput of every scheme on every workload."""

    scheme_names: Tuple[str, ...]
    latency_ms: Dict[str, List[float]]
    throughput: Dict[str, List[float]]

    @property
    def num_workloads(self) -> int:
        if not self.scheme_names:
            return 0
        return len(self.latency_ms[self.scheme_names[0]])

    def mean_latency_ms(self, scheme: str) -> float:
        values = self.latency_ms[scheme]
        return sum(values) / len(values)

    def mean_throughput(self, scheme: str) -> float:
        values = self.throughput[scheme]
        return sum(values) / len(values)

    def speedups(self, baseline: str, subject: str) -> List[float]:
        """Per-workload latency ratios ``baseline / subject``."""
        return [
            b / s
            for b, s in zip(self.latency_ms[baseline], self.latency_ms[subject])
        ]

    def speedup_summary(
        self, baseline: str, subject: str
    ) -> Tuple[float, float, float]:
        """(geomean, max, min) speedup of ``subject`` over ``baseline``."""
        ratios = self.speedups(baseline, subject)
        return geomean(ratios), max(ratios), min(ratios)

    def win_rate(self, subject: str, opponent: str) -> float:
        """Fraction of workloads where ``subject`` is strictly faster."""
        wins = sum(
            1
            for s, o in zip(self.latency_ms[subject], self.latency_ms[opponent])
            if s < o
        )
        return wins / max(1, self.num_workloads)

    def leaderboard(self) -> List[Tuple[str, float]]:
        """Schemes sorted by mean latency, fastest first."""
        return sorted(
            ((name, self.mean_latency_ms(name)) for name in self.scheme_names),
            key=lambda kv: kv[1],
        )


def compare_schemes(
    schemes: Sequence[Scheme],
    workloads: Sequence[Sequence[ModelGraph]],
) -> ComparisonMatrix:
    """Run every scheme over every workload.

    Raises:
        ValueError: on empty schemes/workloads or duplicate names.
    """
    if not schemes:
        raise ValueError("need at least one scheme")
    if not workloads:
        raise ValueError("need at least one workload")
    names = [s.name for s in schemes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scheme names: {names}")

    latency: Dict[str, List[float]] = {name: [] for name in names}
    throughput: Dict[str, List[float]] = {name: [] for name in names}
    for workload in workloads:
        for scheme in schemes:
            result = scheme.run(workload)
            latency[scheme.name].append(result.makespan_ms)
            throughput[scheme.name].append(result.throughput_per_s)
    return ComparisonMatrix(
        scheme_names=tuple(names),
        latency_ms=latency,
        throughput=throughput,
    )


def standard_schemes(soc: SocSpec) -> List[Scheme]:
    """The paper's Fig. 7 scheme line-up, ready to compare.

    Returns MNN-serial, Pipe-it, Band, Hetero2Pipe (No C/T) and full
    Hetero2Pipe, each bound to the given SoC with a shared profiler.
    """
    from ..baselines.band import execute_band
    from ..baselines.mnn_serial import plan_mnn_serial
    from ..baselines.pipe_it import plan_pipe_it
    from ..core.planner import Hetero2PipePlanner, PlannerConfig
    from ..profiling.profiler import SocProfiler
    from .executor import execute_plan

    profiler = SocProfiler(soc)
    planner = Hetero2PipePlanner(soc)
    planner_no_ct = Hetero2PipePlanner(soc, PlannerConfig.no_contention_or_tail())

    return [
        Scheme("mnn", lambda m: execute_plan(plan_mnn_serial(soc, m, profiler))),
        Scheme(
            "pipe_it", lambda m: execute_plan(plan_pipe_it(soc, m, profiler))
        ),
        Scheme("band", lambda m: execute_band(soc, m, profiler)),
        Scheme(
            "h2p_no_ct", lambda m: execute_plan(planner_no_ct.plan(m).plan)
        ),
        Scheme("h2p", lambda m: execute_plan(planner.plan(m).plan)),
    ]

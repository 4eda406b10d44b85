"""Profile tables: O(1) slice-cost queries via prefix sums.

The horizontal DP (Algorithm 1) needs ``T_k^e(i, j)`` — the solo
execution plus memory-copy time of layer slice ``[i, j]`` on processor
``k`` — in constant time.  The paper notes: "We leverage prefix sum to
optimize the computation of T_k^e(i, j) in O(1)."  :class:`ModelProfile`
precomputes per-processor per-layer latencies and their prefix sums, plus
prefix sums of DRAM traffic (for contention intensity) and of
NPU-unsupported layer counts (for feasibility tests).

All profiles are measured at thermal steady state, as the paper does
("we conduct all the experiments at the thermal limits when frequency
scaling and temperature have reached a steady state").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .. import obs
from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..hardware.thermal import sustained_frequency_scale
from ..models.ir import ModelGraph
from .latency import copy_latency_ms, layer_compute_memory_ms, layer_latency_ms, layer_traffic_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .slowdown import SliceWorkload

#: A value standing in for "this slice cannot execute here" in DP tables.
INFEASIBLE = float("inf")

#: Slice-task memo key: ``(processor name, next processor name or None,
#: first layer, last layer)`` — everything a stage's cost depends on.
SliceTaskKey = Tuple[str, Optional[str], int, int]

#: Slice-task memo value: ``(solo_ms, workload, working_set bytes)``.
SliceTask = Tuple[float, "SliceWorkload", float]

#: Probe-tail memo key: ``(request, hand-off names, stages)``, the
#: names those of the pipeline's processors followed by None and the
#: stages a ``(stage, first layer, last layer)`` per chain position.
TailKey = Tuple[int, Tuple[Optional[str], ...], Tuple[Tuple[int, int, int], ...]]


class ModelProfile:
    """Solo-execution profile of one model on one SoC.

    Args:
        model: The model to profile.
        soc: The target platform.
        thermal_scales: Optional explicit per-processor-name frequency
            scales.  A processor without one runs at its thermal steady
            state: its throughput is scaled by its sustained-frequency
            factor at full utilization.  Explicit scales are used by the
            thermal-feedback planner, which derives scales from each
            processor's *actual* utilization instead of assuming 100 %.
    """

    def __init__(
        self,
        model: ModelGraph,
        soc: SocSpec,
        thermal_scales: Optional[Dict[str, float]] = None,
    ):
        self.model = model
        self.soc = soc
        self.thermal_scales = dict(thermal_scales) if thermal_scales else None
        self._latency: Dict[str, Tuple[float, ...]] = {}
        self._lat_prefix: Dict[str, Tuple[float, ...]] = {}
        self._compute_prefix: Dict[str, Tuple[float, ...]] = {}
        self._memory_prefix: Dict[str, Tuple[float, ...]] = {}
        self._traffic_prefix: Dict[str, Tuple[float, ...]] = {}
        self._unsupported_prefix: Dict[str, Tuple[int, ...]] = {}
        self._weight_prefix: Tuple[float, ...] = self._prefix(
            [layer.weight_bytes for layer in model.layers]
        )
        self._peak_activation: Tuple[float, ...] = tuple(
            layer.activation_bytes for layer in model.layers
        )
        #: Memo of the immutable parts of executor slice tasks, filled
        #: by :func:`repro.runtime.executor.plan_to_chains` and dropped
        #: by :meth:`SocProfiler.clear_slice_tasks`.  Processors are
        #: identified by name, like every table of this profile.
        self.slice_tasks: Dict[SliceTaskKey, SliceTask] = {}
        #: The same memo's probe tails: the executor tasks a resumed
        #: objective probe shares, filled by
        #: :class:`repro.runtime.executor.ProbeAnchor`.
        self.probe_tails: Dict[TailKey, List[Any]] = {}

        for proc in soc.processors:
            if self.thermal_scales is not None and proc.name in self.thermal_scales:
                scale = self.thermal_scales[proc.name]
            else:
                scale = sustained_frequency_scale(proc.kind, 1.0)
            lat, comp, mem, traffic, unsupported = [], [], [], [], []
            for layer in model.layers:
                if proc.supports(layer):
                    c_ms, m_ms = layer_compute_memory_ms(layer, proc, scale)
                    lat.append(layer_latency_ms(layer, proc, scale))
                    comp.append(c_ms)
                    mem.append(m_ms)
                    traffic.append(layer_traffic_bytes(layer, proc))
                    unsupported.append(0)
                else:
                    lat.append(0.0)
                    comp.append(0.0)
                    mem.append(0.0)
                    traffic.append(0.0)
                    unsupported.append(1)
            self._latency[proc.name] = tuple(lat)
            self._lat_prefix[proc.name] = self._prefix(lat)
            self._compute_prefix[proc.name] = self._prefix(comp)
            self._memory_prefix[proc.name] = self._prefix(mem)
            self._traffic_prefix[proc.name] = self._prefix(traffic)
            self._unsupported_prefix[proc.name] = self._prefix_int(unsupported)

    @staticmethod
    def _prefix(values) -> Tuple[float, ...]:
        out = [0.0]
        for v in values:
            out.append(out[-1] + v)
        return tuple(out)

    @staticmethod
    def _prefix_int(values) -> Tuple[int, ...]:
        out = [0]
        for v in values:
            out.append(out[-1] + v)
        return tuple(out)

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def feasible(self, proc: ProcessorSpec, start: int, end: int) -> bool:
        """Whether slice ``[start, end]`` can execute on ``proc`` at all."""
        self._check(start, end)
        prefix = self._unsupported_prefix[proc.name]
        return prefix[end + 1] - prefix[start] == 0

    # ------------------------------------------------------------------
    # Costs (Eq. 2 terms)
    # ------------------------------------------------------------------
    def exec_ms(self, proc: ProcessorSpec, start: int, end: int) -> float:
        """Solo execution time ``T^e`` of slice ``[start, end]`` on ``proc``.

        Includes one kernel-launch overhead per slice.  Returns
        :data:`INFEASIBLE` if the slice contains an unsupported operator;
        :meth:`feasible` checks the range.
        """
        if not self.feasible(proc, start, end):
            return INFEASIBLE
        prefix = self._lat_prefix[proc.name]
        return prefix[end + 1] - prefix[start] + proc.launch_overhead_ms

    def layer_ms(self, proc: ProcessorSpec, index: int) -> float:
        """Solo latency of a single layer (no launch overhead)."""
        if not self.feasible(proc, index, index):
            return INFEASIBLE
        return self._latency[proc.name][index]

    def copy_out_ms(
        self, src: ProcessorSpec, dst: ProcessorSpec, end: int
    ) -> float:
        """Boundary tensor copy ``T^c`` when a slice ending at ``end`` on
        ``src`` hands off to ``dst``."""
        nbytes = self.model.boundary_bytes(end)
        return copy_latency_ms(nbytes, src, dst)

    def slice_cost_ms(
        self,
        proc: ProcessorSpec,
        start: int,
        end: int,
        next_proc: Optional[ProcessorSpec] = None,
    ) -> float:
        """``T^e + T^c`` of Eq. 2 for slice ``[start, end]``.

        The boundary copy is charged to the producing stage; pass
        ``next_proc=None`` for the final stage (no hand-off).
        """
        exec_time = self.exec_ms(proc, start, end)
        if exec_time == INFEASIBLE:
            return INFEASIBLE
        if next_proc is None or end == self.model.num_layers - 1:
            return exec_time
        return exec_time + self.copy_out_ms(proc, next_proc, end)

    # ------------------------------------------------------------------
    # Memory-boundness and contention inputs
    # ------------------------------------------------------------------
    def traffic_bytes(self, proc: ProcessorSpec, start: int, end: int) -> float:
        """Effective DRAM traffic of the slice on ``proc``."""
        self._check(start, end)
        prefix = self._traffic_prefix[proc.name]
        return prefix[end + 1] - prefix[start]

    def traffic_rate_gbps(
        self, proc: ProcessorSpec, start: int, end: int
    ) -> float:
        """Bus-demand rate (GB/s) of the slice while executing solo.

        This is the ground-truth driver of contention intensity: short,
        traffic-heavy executions (SqueezeNet fire modules, FC layers)
        demand high instantaneous bandwidth — Observations 2 and 3.
        """
        exec_time = self.exec_ms(proc, start, end)
        if exec_time == INFEASIBLE or exec_time <= 0:
            return 0.0
        return self.traffic_bytes(proc, start, end) / 1e9 / (exec_time / 1e3)

    def memory_fraction(self, proc: ProcessorSpec, start: int, end: int) -> float:
        """Fraction of slice time bound by memory (roofline memory share)."""
        self._check(start, end)
        comp = self._compute_prefix[proc.name]
        mem = self._memory_prefix[proc.name]
        c = comp[end + 1] - comp[start]
        m = mem[end + 1] - mem[start]
        total = c + m
        if total <= 0:
            return 0.0
        return m / total

    def working_set_bytes(self, start: int, end: int) -> float:
        """Resident footprint of the slice: weights + peak activations."""
        self._check(start, end)
        weights = self._weight_prefix[end + 1] - self._weight_prefix[start]
        peak_act = max(self._peak_activation[start : end + 1])
        return weights + peak_act

    def whole_model_ms(self, proc: ProcessorSpec) -> float:
        """Solo latency of the entire model on one processor."""
        return self.exec_ms(proc, 0, self.model.num_layers - 1)

    def _check(self, start: int, end: int) -> None:
        if not 0 <= start <= end < self.model.num_layers:
            raise IndexError(
                f"invalid slice [{start}, {end}] for {self.model.name!r} "
                f"({self.model.num_layers} layers)"
            )


class SocProfiler:
    """Memoizes :class:`ModelProfile` objects per ``(soc, model)``.

    The SoC dimension is the instance itself (each profiler is bound to
    one :class:`SocSpec`); the model dimension is the model *name*, the
    identity convention used throughout the planner's caches.  Share one
    profiler across the planner and its estimator so the zoo profiles
    behind the Eq. 1 fit are measured once — and never share a profiler
    across SoCs or thermal configurations (see docs/PERFORMANCE.md).
    """

    def __init__(
        self,
        soc: SocSpec,
        thermal_scales: Optional[Dict[str, float]] = None,
    ):
        self.soc = soc
        self._scales = dict(thermal_scales) if thermal_scales else None
        self._cache: Dict[str, ModelProfile] = {}

    def profile(self, model: ModelGraph) -> ModelProfile:
        """Profile a model (memoized by model name)."""
        cached = self._cache.get(model.name)
        if cached is not None:
            obs.add("profile_cache_hits")
            return cached
        obs.add("profile_cache_misses")
        profile = ModelProfile(model, self.soc, thermal_scales=self._scales)
        self._cache[model.name] = profile
        return profile

    def __call__(self, model: ModelGraph) -> ModelProfile:
        return self.profile(model)

    def clear_slice_tasks(self) -> None:
        """Drop every profile's slice-task memo.

        The memo is exact for the profile's lifetime, but it holds one
        workload per probed slice and the tasks of every probed tail;
        the planner drops it with its other caches so it stays bounded
        by one plan's probes.
        """
        for profile in self._cache.values():
            profile.slice_tasks.clear()
            profile.probe_tails.clear()

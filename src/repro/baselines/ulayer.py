"""uLayer baseline: intra-operator CPU+GPU channel partitioning.

uLayer (Kim et al., EuroSys 2019) accelerates a *single* DNN by
splitting every layer channel-wise between the CPU and GPU, merging the
partial outputs after each layer.  The paper's related-work discussion
(Sec. II) points at the weakness Hetero2Pipe avoids: "the intermediate
results from different processors are deemed to be merged with
additional overhead of significant communication/memory copy per
split."

Implementation: for each layer, the work splits by a ratio chosen so
both processors finish together (their effective throughputs for that
operator family), then a per-layer merge cost — the full output tensor
crossing the unified memory plus both units' synchronization
overheads — is paid.  Multi-DNN requests run serially (uLayer has no
multi-DNN coordination), which is exactly how the paper positions it
in Table I (multi-DNN: no).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..models.ir import Layer, ModelGraph
from ..profiling.latency import copy_latency_ms, layer_latency_ms
from ..profiling.profiler import SocProfiler


@dataclass(frozen=True)
class LayerSplit:
    """One layer's channel split decision."""

    layer_name: str
    cpu_fraction: float
    layer_ms: float
    merge_ms: float

    @property
    def total_ms(self) -> float:
        return self.layer_ms + self.merge_ms


def split_layer(
    layer: Layer, cpu: ProcessorSpec, gpu: ProcessorSpec, soc: SocSpec
) -> LayerSplit:
    """Balance one layer channel-wise across CPU and GPU.

    The optimal fraction equalizes both sides' finish time given their
    effective throughputs; co-running both units also costs the mutual
    CPU-GPU slowdown on the shared bus, which uLayer does not model but
    physically pays.
    """
    t_cpu = layer_latency_ms(layer, cpu)
    t_gpu = layer_latency_ms(layer, gpu)
    # fraction on CPU such that f * t_cpu == (1 - f) * t_gpu
    fraction = t_gpu / (t_cpu + t_gpu)
    balanced = fraction * t_cpu

    # Mutual slowdown while the halves co-run: approximate with the
    # whole layer's footprint on each side (conservative for uLayer).
    cpu_gpu_coupling = soc.coupling_factor(cpu.kind, gpu.kind)
    # Intensity of half a layer is roughly half the layer's rate; fold
    # the 0.5 into a single inflation factor for both sides.
    inflation = 1.0 + 0.5 * cpu_gpu_coupling * 0.2
    co_time = balanced * inflation

    # Merge: the full output tensor is gathered to one address space,
    # paying the copy path plus both dispatch overheads.
    merge = copy_latency_ms(layer.output_bytes, cpu, gpu)
    return LayerSplit(
        layer_name=layer.name,
        cpu_fraction=fraction,
        layer_ms=co_time,
        merge_ms=merge,
    )


def ulayer_model_latency_ms(
    model: ModelGraph, soc: SocSpec
) -> Tuple[float, List[LayerSplit]]:
    """End-to-end uLayer latency of one model (layer-wise split+merge)."""
    cpu, gpu = soc.cpu_big, soc.gpu
    splits = [split_layer(layer, cpu, gpu, soc) for layer in model.layers]
    return sum(s.total_ms for s in splits), splits


def ulayer_sequence_latency_ms(
    soc: SocSpec,
    models: Sequence[ModelGraph],
) -> float:
    """Serial multi-DNN latency under uLayer (no coordination).

    Raises:
        ValueError: for an empty request sequence.
    """
    if not models:
        raise ValueError("request sequence must be non-empty")
    return sum(ulayer_model_latency_ms(m, soc)[0] for m in models)


def ulayer_speedup_over_cpu(
    soc: SocSpec,
    model: ModelGraph,
    profiler: Optional[SocProfiler] = None,
) -> float:
    """Single-model speedup of uLayer vs CPU-only execution.

    uLayer's own claim: per-model gains from CPU+GPU cooperation.  The
    merge overhead caps it well below the ideal 1 + gpu/cpu ratio —
    the structural cost Hetero2Pipe's coarse slicing avoids.
    """
    profiler = profiler or SocProfiler(soc)
    cpu_only = profiler.profile(model).whole_model_ms(soc.cpu_big)
    ulayer, _ = ulayer_model_latency_ms(model, soc)
    return cpu_only / ulayer

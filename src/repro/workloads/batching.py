"""Batching of lightweight models (Appendix D, Fig. 13).

A single SqueezeNet/MobileNetV2 inference is 20-40x shorter than a BERT
stage, so vertically aligning one lightweight inference is wasteful —
kernel-launch and model-load overheads dominate.  The paper's fix is to
*batch* lightweight requests: on mobile processors with limited on-chip
memory, batched execution time is an affine function of batch size,

    t(b) ~= t_fixed + b * t_marginal,

which lets the planner size batches so light and heavy models occupy
comparable stage times.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import List, Sequence

from ..hardware.processor import ProcessorKind, ProcessorSpec
from ..profiling.profiler import ModelProfile

#: Mobile accelerators overlap a little work across a batch (weight reuse
#: amortization) but lack the on-chip memory for real batch parallelism;
#: marginal cost per extra sample relative to a solo run.
_MARGINAL_FACTOR = {
    ProcessorKind.CPU_BIG: 0.92,
    ProcessorKind.CPU_SMALL: 0.95,
    ProcessorKind.GPU: 0.80,
    ProcessorKind.NPU: 0.70,
}

#: One-off batch setup: model load + buffer staging, relative to the
#: unit's kernel-launch overhead.
_SETUP_FACTOR = 6.0


@dataclass(frozen=True)
class BatchLatency:
    """Affine batched-latency model for one (model, processor) pair."""

    fixed_ms: float
    marginal_ms: float
    tag: str = ""

    def latency_ms(self, batch_size: int) -> float:
        """Ideal affine time for one batch.

        Raises:
            ValueError: for batch sizes below 1.
        """
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        return self.fixed_ms + self.marginal_ms * batch_size

    def measured_latency_ms(self, batch_size: int) -> float:
        """Affine time plus deterministic per-batch measurement jitter.

        Real measurements (Fig. 13) show small scheduling/allocator
        noise around the affine trend; the jitter is a stable hash of
        (tag, batch_size) so every run reproduces the same series.
        """
        ideal = self.latency_ms(batch_size)
        digest = zlib.crc32(f"{self.tag}:{batch_size}".encode())
        unit = (digest % 10_000) / 10_000.0
        return ideal * (1.0 + 0.015 * (2.0 * unit - 1.0))

    def per_sample_ms(self, batch_size: int) -> float:
        return self.latency_ms(batch_size) / batch_size


def batch_latency_model(
    profile: ModelProfile, proc: ProcessorSpec
) -> BatchLatency:
    """Fit the affine batch model from the solo profile.

    Raises:
        ValueError: if the model cannot execute on the processor.
    """
    solo = profile.whole_model_ms(proc)
    if math.isinf(solo):
        raise ValueError(
            f"{profile.model.name!r} cannot execute on {proc.name!r}"
        )
    marginal = solo * _MARGINAL_FACTOR[proc.kind]
    fixed = solo - marginal + _SETUP_FACTOR * proc.launch_overhead_ms
    return BatchLatency(
        fixed_ms=fixed,
        marginal_ms=marginal,
        tag=f"{profile.model.name}:{proc.name}",
    )


def batch_size_to_match(
    profile: ModelProfile,
    proc: ProcessorSpec,
    target_ms: float,
) -> int:
    """Smallest batch whose latency reaches ``target_ms``, capped at 64.

    This is how the planner closes the 20-40x light/heavy gap: batch the
    light model until its stage time approaches the heavy model's.
    """
    if target_ms <= 0:
        raise ValueError("target must be positive")
    model = batch_latency_model(profile, proc)
    if model.marginal_ms <= 0:
        return 1
    needed = (target_ms - model.fixed_ms) / model.marginal_ms
    return max(1, min(64, math.ceil(needed)))


def batched_model(model, batch_size: int):
    """A :class:`~repro.models.ir.ModelGraph` scaled to a batch.

    Per-layer FLOPs and activation traffic scale with the batch; weights
    are shared across the batch (that is batching's whole point); the
    boundary tensors crossing pipeline stages also scale.

    Raises:
        ValueError: for batch sizes below 1.
    """
    from ..models.ir import Layer, ModelGraph

    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if batch_size == 1:
        return model
    layers = tuple(
        Layer(
            name=layer.name,
            op=layer.op,
            flops=layer.flops * batch_size,
            weight_bytes=layer.weight_bytes,
            activation_bytes=layer.activation_bytes * batch_size,
            output_bytes=layer.output_bytes * batch_size,
            output_shape=(batch_size, *layer.output_shape),
        )
        for layer in model.layers
    )
    return ModelGraph(
        name=f"{model.name}_x{batch_size}",
        layers=layers,
        family=model.family,
        input_bytes=model.input_bytes * batch_size,
    )


def coalesce_stream(models, max_batch: int = 8):
    """Merge runs of identical lightweight requests into batched ones.

    Appendix D's remedy operationalized: consecutive requests for the
    same model are folded into one batched request (up to ``max_batch``)
    so a pipeline stage carries a heavyweight-comparable amount of work
    instead of paying per-frame launch and load overhead.

    Returns:
        ``(batched_models, group_sizes)`` where ``group_sizes[i]`` is how
        many original requests the i-th output request represents.

    Raises:
        ValueError: for an empty stream or max_batch < 1.
    """
    if not models:
        raise ValueError("stream must be non-empty")
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    batched = []
    sizes = []
    run_model, run_len = models[0], 1
    for model in list(models[1:]) + [None]:
        if model is not None and model.name == run_model.name and run_len < max_batch:
            run_len += 1
            continue
        batched.append(batched_model(run_model, run_len))
        sizes.append(run_len)
        if model is not None:
            run_model, run_len = model, 1
    return batched, sizes


def latency_growth_rates(
    profile: ModelProfile, proc: ProcessorSpec, batch_sizes: Sequence[int]
) -> List[float]:
    """Per-batch latency deltas (the Fig. 13 y-axis: rate of change).

    A flat series confirms the affine model — compute resources are
    saturated and each extra sample costs the same marginal time.
    """
    model = batch_latency_model(profile, proc)
    sizes = sorted(set(batch_sizes))
    if len(sizes) < 2:
        raise ValueError("need at least two batch sizes")
    lats = [model.measured_latency_ms(b) for b in sizes]
    return [
        (lats[i + 1] - lats[i]) / (sizes[i + 1] - sizes[i])
        for i in range(len(sizes) - 1)
    ]

"""Layer-level intermediate representation of DNN inference graphs.

Hetero2Pipe partitions a model along its *layer sequence* (Definition 1 in
the paper: a K-way partition of contiguous layer slices).  This module
provides the minimal IR the planner needs: an ordered list of layers, each
carrying the operator type, the compute cost (FLOPs), the memory traffic
(bytes of weights + activations read/written) and the size of the output
tensor that must cross a slice boundary.

The IR is deliberately sequential.  Branching architectures (GoogLeNet
inception blocks, ResNet residual connections, YOLO routes) are linearized
block-by-block, which is exactly the coarse-grained slicing granularity the
paper adopts ("we consider a coarse-grained model slicing strategy of K
slices", Sec. IV).  Each :class:`Layer` may therefore represent a fused
block whose internal parallelism never crosses a pipeline stage boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Tuple


class OpType(enum.Enum):
    """Operator categories relevant to placement and contention modelling.

    The set mirrors the operator families discussed in the paper:
    convolutions (good data locality), large matrix multiplications
    (memory-bound, Observation 2), depthwise convolutions (low arithmetic
    intensity), attention / normalization blocks (Transformer-specific) and
    a handful of glue operators.  ``MISH`` and ``GELU`` exist as first-class
    members because their (un)availability on the NPU drives the operator
    fallback behaviour of YOLOv4 and BERT reported in Fig. 1.
    """

    CONV = "conv"
    DEPTHWISE_CONV = "depthwise_conv"
    POINTWISE_CONV = "pointwise_conv"
    FULLY_CONNECTED = "fully_connected"
    MATMUL = "matmul"
    ATTENTION = "attention"
    MASKED_ATTENTION = "masked_attention"
    LAYER_NORM = "layer_norm"
    BATCH_NORM = "batch_norm"
    POOL = "pool"
    RELU = "relu"
    GELU = "gelu"
    MISH = "mish"
    SOFTMAX = "softmax"
    CONCAT = "concat"
    ADD = "add"
    EMBEDDING = "embedding"
    UPSAMPLE = "upsample"
    FLATTEN = "flatten"


#: Operators implemented by the (simulated) NPU.  Anything outside this set
#: forces the slice containing it to fall back to CPU/GPU.  The set is
#: chosen so that exactly the models the paper reports as erroring on the
#: NPU contain unsupported operators, while the CNNs and ViT run fully
#: accelerated: YOLOv4 fails via Mish and route-upsample; BERT fails via
#: the embedding gather *and* the masked attention inside every encoder
#: block (sequence masking needs integer/gather ops the HiAI-generation
#: NPUs lack — ViT's unmasked attention converts fine).
NPU_SUPPORTED_OPS = frozenset(
    {
        OpType.CONV,
        OpType.DEPTHWISE_CONV,
        OpType.POINTWISE_CONV,
        OpType.FULLY_CONNECTED,
        OpType.MATMUL,
        OpType.ATTENTION,
        OpType.LAYER_NORM,
        OpType.BATCH_NORM,
        OpType.POOL,
        OpType.RELU,
        OpType.GELU,
        OpType.SOFTMAX,
        OpType.CONCAT,
        OpType.ADD,
        OpType.FLATTEN,
    }
)


@dataclass(frozen=True)
class Layer:
    """One schedulable unit of a model.

    Attributes:
        name: Human-readable identifier, unique within its model.
        op: Operator category (drives NPU support and contention footprint).
        flops: Floating-point operations for one inference at batch 1.
        weight_bytes: Parameter bytes that must be resident to execute.
        activation_bytes: Bytes of input+output activations touched.
        output_bytes: Size of the output tensor; this is what crosses a
            pipeline-stage boundary and incurs memory-copy cost (the
            ``T^c`` term of Eq. 2).
        output_shape: Logical shape of the output tensor (documentation /
            debugging aid; the planner only uses ``output_bytes``).
    """

    name: str
    op: OpType
    flops: float
    weight_bytes: float
    activation_bytes: float
    output_bytes: float
    output_shape: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"layer {self.name!r}: flops must be >= 0")
        if self.weight_bytes < 0 or self.activation_bytes < 0:
            raise ValueError(f"layer {self.name!r}: byte counts must be >= 0")
        if self.output_bytes < 0:
            raise ValueError(f"layer {self.name!r}: output_bytes must be >= 0")

    @property
    def memory_bytes(self) -> float:
        """Total bus traffic of executing the layer once (weights + acts)."""
        return self.weight_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic.

        Low arithmetic intensity marks a memory-bound layer — the quantity
        behind Observations 2 and 3 (large MatMuls and, surprisingly,
        SqueezeNet-style fire modules are memory-bound).
        """
        if self.memory_bytes == 0:
            return math.inf if self.flops > 0 else 0.0
        return self.flops / self.memory_bytes

    def npu_supported(self) -> bool:
        """Whether the simulated NPU implements this operator."""
        return self.op in NPU_SUPPORTED_OPS


@dataclass(frozen=True)
class ModelGraph:
    """An ordered, immutable sequence of layers plus model-level metadata.

    ``family`` tags the broad architecture class ("cnn", "transformer",
    "detector"); experiments use it to group models the way the paper's
    figures do.
    """

    name: str
    layers: Tuple[Layer, ...]
    family: str = "cnn"
    input_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"model {self.name!r} must have at least one layer")
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(
                    f"model {self.name!r}: duplicate layer name {layer.name!r}"
                )
            seen.add(layer.name)

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_flops(self) -> float:
        return sum(layer.flops for layer in self.layers)

    @property
    def total_weight_bytes(self) -> float:
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def total_memory_bytes(self) -> float:
        return sum(layer.memory_bytes for layer in self.layers)

    @property
    def arithmetic_intensity(self) -> float:
        """Whole-model FLOPs per byte — the model's roofline position."""
        total_bytes = self.total_memory_bytes
        if total_bytes == 0:
            return math.inf if self.total_flops > 0 else 0.0
        return self.total_flops / total_bytes

    def npu_supported(self) -> bool:
        """True when *every* layer runs on the NPU without fallback."""
        return all(layer.npu_supported() for layer in self.layers)

    def unsupported_layers(self) -> Tuple[int, ...]:
        """Indices of layers the NPU cannot execute."""
        return tuple(
            i for i, layer in enumerate(self.layers) if not layer.npu_supported()
        )

    def slice_layers(self, start: int, end: int) -> Tuple[Layer, ...]:
        """Layers of the inclusive slice ``[start, end]``.

        Raises:
            IndexError: if the slice bounds are out of range or inverted.
        """
        self._check_slice(start, end)
        return self.layers[start : end + 1]

    def slice_flops(self, start: int, end: int) -> float:
        self._check_slice(start, end)
        return sum(layer.flops for layer in self.layers[start : end + 1])

    def boundary_bytes(self, end: int) -> float:
        """Bytes that must be copied when a slice ends at layer ``end``.

        This is the output tensor of ``layers[end]`` when the slice is
        interior, and zero at the model tail (the final result is consumed
        in place).
        """
        if not 0 <= end < len(self.layers):
            raise IndexError(f"layer index {end} out of range for {self.name!r}")
        if end == len(self.layers) - 1:
            return 0.0
        return self.layers[end].output_bytes

    def _check_slice(self, start: int, end: int) -> None:
        if not 0 <= start <= end < len(self.layers):
            raise IndexError(
                f"invalid slice [{start}, {end}] for model {self.name!r} "
                f"with {len(self.layers)} layers"
            )


"""The ten-model zoo used throughout the paper's evaluation.

Builders construct block-granularity :class:`~repro.models.ir.ModelGraph`
instances for AlexNet, VGG16, GoogLeNet, InceptionV4, ResNet50, YOLOv4,
MobileNetV2, SqueezeNet, BERT and ViT with FLOP and byte counts derived
from the published architectures.  Absolute counts match the literature to
within a few percent at batch 1:

=============  ============  ==============
model          ~GFLOPs       ~params (M)
=============  ============  ==============
AlexNet        1.4           61
VGG16          31            138
GoogLeNet      3.0           7.0
InceptionV4    24            43
ResNet50       8.2           25.6
YOLOv4 (416)   60            64
MobileNetV2    0.6           3.5
SqueezeNet     0.7           1.25
BERT-base      22 (seq 128)  110
ViT-B/16       35 (seq 197)  86
=============  ============  ==============

Each builder linearizes the network into the block sequence the planner
partitions; branch-internal parallelism (inception branches, residual
adds, YOLO routes) is folded into single layers, matching the paper's
coarse-grained slicing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from . import flops as F
from .ir import Layer, ModelGraph, OpType

_Builder = Callable[[], ModelGraph]


def _conv_layer(
    name: str,
    in_ch: int,
    out_ch: int,
    kernel: int,
    in_dim: int,
    stride: int = 1,
    padding: int | None = None,
    op: OpType = OpType.CONV,
    groups: int = 1,
) -> Tuple[Layer, int]:
    """Build a conv layer and return it with its spatial output dimension."""
    if padding is None:
        padding = kernel // 2
    out_dim = F.conv_out_dim(in_dim, kernel, stride, padding)
    layer_flops = F.conv2d_flops(in_ch, out_ch, kernel, out_dim, out_dim, groups)
    weights = F.conv2d_weight_bytes(in_ch, out_ch, kernel, groups)
    in_bytes = F.tensor_bytes(in_ch, in_dim, in_dim)
    out_bytes = F.tensor_bytes(out_ch, out_dim, out_dim)
    layer = Layer(
        name=name,
        op=op,
        flops=layer_flops,
        weight_bytes=weights,
        activation_bytes=in_bytes + out_bytes,
        output_bytes=out_bytes,
        output_shape=(out_ch, out_dim, out_dim),
    )
    return layer, out_dim


def _pool_layer(
    name: str, channels: int, in_dim: int, kernel: int, stride: int, padding: int = 0
) -> Tuple[Layer, int]:
    out_dim = F.conv_out_dim(in_dim, kernel, stride, padding)
    out_bytes = F.tensor_bytes(channels, out_dim, out_dim)
    in_bytes = F.tensor_bytes(channels, in_dim, in_dim)
    layer = Layer(
        name=name,
        op=OpType.POOL,
        flops=F.pool_flops(channels, out_dim, out_dim, kernel),
        weight_bytes=0.0,
        activation_bytes=in_bytes + out_bytes,
        output_bytes=out_bytes,
        output_shape=(channels, out_dim, out_dim),
    )
    return layer, out_dim


def _fc_layer(name: str, in_features: int, out_features: int) -> Layer:
    out_bytes = F.tensor_bytes(out_features)
    return Layer(
        name=name,
        op=OpType.FULLY_CONNECTED,
        flops=F.linear_flops(in_features, out_features),
        weight_bytes=F.linear_weight_bytes(in_features, out_features),
        activation_bytes=F.tensor_bytes(in_features) + out_bytes,
        output_bytes=out_bytes,
        output_shape=(out_features,),
    )


def build_alexnet() -> ModelGraph:
    """AlexNet: five convolutions followed by three huge FC layers.

    The FC layers hold ~58 of the 61 M parameters and are the canonical
    memory-bound MatMul of Observation 2.
    """
    layers: List[Layer] = []
    specs = [
        # (in_ch, out_ch, kernel, stride, padding)
        (3, 96, 11, 4, 2),
        (96, 256, 5, 1, 2),
        (256, 384, 3, 1, 1),
        (384, 384, 3, 1, 1),
        (384, 256, 3, 1, 1),
    ]
    dim = 224
    pools_after = {0, 1, 4}
    in_ch = 3
    for i, (cin, cout, k, s, p) in enumerate(specs):
        layer, dim = _conv_layer(f"conv{i + 1}", cin, cout, k, dim, s, p)
        layers.append(layer)
        if i in pools_after:
            pool, dim = _pool_layer(f"pool{i + 1}", cout, dim, 3, 2)
            layers.append(pool)
        in_ch = cout
    feat = in_ch * dim * dim
    layers.append(_fc_layer("fc6", feat, 4096))
    layers.append(_fc_layer("fc7", 4096, 4096))
    layers.append(_fc_layer("fc8", 4096, 1000))
    return ModelGraph(
        name="alexnet",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


def build_vgg16() -> ModelGraph:
    """VGG16: 13 3x3 convolutions in five stages plus three FC layers."""
    layers: List[Layer] = []
    stages = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    dim = 224
    in_ch = 3
    for stage_no, (channels, count) in enumerate(stages, start=1):
        for rep in range(count):
            layer, dim = _conv_layer(
                f"conv{stage_no}_{rep + 1}", in_ch, channels, 3, dim, 1, 1
            )
            layers.append(layer)
            in_ch = channels
        pool, dim = _pool_layer(f"pool{stage_no}", channels, dim, 2, 2)
        layers.append(pool)
    feat = in_ch * dim * dim
    layers.append(_fc_layer("fc6", feat, 4096))
    layers.append(_fc_layer("fc7", 4096, 4096))
    layers.append(_fc_layer("fc8", 4096, 1000))
    return ModelGraph(
        name="vgg16",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


def _inception_block(
    name: str, in_ch: int, out_ch: int, dim: int, reduction: float = 0.35
) -> Layer:
    """One fused inception block (parallel 1x1/3x3/5x5 branches + concat).

    The branch structure is folded into a single layer with the combined
    FLOP/byte cost; ``reduction`` approximates the bottleneck 1x1 savings.
    """
    flops_1x1 = F.conv2d_flops(in_ch, out_ch // 4, 1, dim, dim)
    flops_3x3 = F.conv2d_flops(int(in_ch * reduction), out_ch // 2, 3, dim, dim)
    flops_5x5 = F.conv2d_flops(int(in_ch * reduction / 2), out_ch // 8, 5, dim, dim)
    flops_proj = F.conv2d_flops(in_ch, out_ch // 8, 1, dim, dim)
    total_flops = flops_1x1 + flops_3x3 + flops_5x5 + flops_proj
    weights = (
        F.conv2d_weight_bytes(in_ch, out_ch // 4, 1)
        + F.conv2d_weight_bytes(int(in_ch * reduction), out_ch // 2, 3)
        + F.conv2d_weight_bytes(int(in_ch * reduction / 2), out_ch // 8, 5)
        + F.conv2d_weight_bytes(in_ch, out_ch // 8, 1)
    )
    in_bytes = F.tensor_bytes(in_ch, dim, dim)
    out_bytes = F.tensor_bytes(out_ch, dim, dim)
    # Branch concat re-reads all branch outputs: count activations ~3x.
    return Layer(
        name=name,
        op=OpType.CONCAT,
        flops=total_flops,
        weight_bytes=weights,
        activation_bytes=3.0 * (in_bytes + out_bytes),
        output_bytes=out_bytes,
        output_shape=(out_ch, dim, dim),
    )


def build_googlenet() -> ModelGraph:
    """GoogLeNet: conv stem, nine inception blocks, global pool + FC."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("stem_conv1", 3, 64, 7, 224, 2, 3)
    layers.append(layer)
    pool, dim = _pool_layer("stem_pool1", 64, dim, 3, 2, 1)
    layers.append(pool)
    layer, dim = _conv_layer("stem_conv2", 64, 192, 3, dim, 1, 1)
    layers.append(layer)
    pool, dim = _pool_layer("stem_pool2", 192, dim, 3, 2, 1)
    layers.append(pool)

    blocks = [
        ("3a", 192, 256), ("3b", 256, 480),
        ("4a", 480, 512), ("4b", 512, 512), ("4c", 512, 512),
        ("4d", 512, 528), ("4e", 528, 832),
        ("5a", 832, 832), ("5b", 832, 1024),
    ]
    downsample_after = {"3b", "4e"}
    in_ch = 192
    for tag, cin, cout in blocks:
        layers.append(_inception_block(f"inception_{tag}", cin, cout, dim))
        in_ch = cout
        if tag in downsample_after:
            pool, dim = _pool_layer(f"pool_{tag}", cout, dim, 3, 2, 1)
            layers.append(pool)
    pool, dim = _pool_layer("global_pool", in_ch, dim, dim, 1)
    layers.append(pool)
    layers.append(_fc_layer("fc", in_ch, 1000))
    return ModelGraph(
        name="googlenet",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


def build_inceptionv4() -> ModelGraph:
    """InceptionV4: deeper stem plus 4xA, 7xB, 3xC inception blocks."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("stem_conv1", 3, 32, 3, 299, 2, 0)
    layers.append(layer)
    layer, dim = _conv_layer("stem_conv2", 32, 64, 3, dim, 1, 1)
    layers.append(layer)
    layer, dim = _conv_layer("stem_conv3", 64, 160, 3, dim, 2, 0)
    layers.append(layer)
    layer, dim = _conv_layer("stem_conv4", 160, 384, 3, dim, 1, 1)
    layers.append(layer)
    pool, dim = _pool_layer("stem_pool", 384, dim, 3, 2)
    layers.append(pool)

    for i in range(4):
        layers.append(_inception_block(f"inception_a{i + 1}", 384, 384, dim))
    pool, dim = _pool_layer("reduction_a", 384, dim, 3, 2)
    layers.append(pool)
    for i in range(7):
        layers.append(_inception_block(f"inception_b{i + 1}", 1024, 1024, dim, 0.5))
    pool, dim = _pool_layer("reduction_b", 1024, dim, 3, 2)
    layers.append(pool)
    for i in range(3):
        layers.append(_inception_block(f"inception_c{i + 1}", 1536, 1536, dim, 0.5))
    pool, dim = _pool_layer("global_pool", 1536, dim, dim, 1)
    layers.append(pool)
    layers.append(_fc_layer("fc", 1536, 1000))
    return ModelGraph(
        name="inceptionv4",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 299, 299),
    )


def _bottleneck_block(
    name: str, in_ch: int, mid_ch: int, out_ch: int, dim: int, stride: int = 1
) -> Tuple[Layer, int]:
    """A fused ResNet bottleneck (1x1 -> 3x3 -> 1x1 + residual add)."""
    out_dim = dim // stride
    flops_total = (
        F.conv2d_flops(in_ch, mid_ch, 1, dim, dim)
        + F.conv2d_flops(mid_ch, mid_ch, 3, out_dim, out_dim)
        + F.conv2d_flops(mid_ch, out_ch, 1, out_dim, out_dim)
        + F.elementwise_flops(out_ch, out_dim, out_dim)
    )
    weights = (
        F.conv2d_weight_bytes(in_ch, mid_ch, 1)
        + F.conv2d_weight_bytes(mid_ch, mid_ch, 3)
        + F.conv2d_weight_bytes(mid_ch, out_ch, 1)
    )
    if stride != 1 or in_ch != out_ch:
        flops_total += F.conv2d_flops(in_ch, out_ch, 1, out_dim, out_dim)
        weights += F.conv2d_weight_bytes(in_ch, out_ch, 1)
    in_bytes = F.tensor_bytes(in_ch, dim, dim)
    out_bytes = F.tensor_bytes(out_ch, out_dim, out_dim)
    layer = Layer(
        name=name,
        op=OpType.ADD,
        flops=flops_total,
        weight_bytes=weights,
        activation_bytes=2.0 * (in_bytes + out_bytes),
        output_bytes=out_bytes,
        output_shape=(out_ch, out_dim, out_dim),
    )
    return layer, out_dim


def build_resnet50() -> ModelGraph:
    """ResNet50: 7x7 stem, 3+4+6+3 bottleneck blocks, global pool + FC."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("stem_conv", 3, 64, 7, 224, 2, 3)
    layers.append(layer)
    pool, dim = _pool_layer("stem_pool", 64, dim, 3, 2, 1)
    layers.append(pool)
    stages = [
        # (blocks, mid_ch, out_ch, first_stride)
        (3, 64, 256, 1),
        (4, 128, 512, 2),
        (6, 256, 1024, 2),
        (3, 512, 2048, 2),
    ]
    in_ch = 64
    for stage_no, (count, mid, out, first_stride) in enumerate(stages, start=2):
        for rep in range(count):
            stride = first_stride if rep == 0 else 1
            block, dim = _bottleneck_block(
                f"res{stage_no}_{rep + 1}", in_ch, mid, out, dim, stride
            )
            layers.append(block)
            in_ch = out
    pool, dim = _pool_layer("global_pool", in_ch, dim, dim, 1)
    layers.append(pool)
    layers.append(_fc_layer("fc", in_ch, 1000))
    return ModelGraph(
        name="resnet50",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


def _csp_block(
    name: str, channels: int, dim: int, repeats: int, mish: bool = True
) -> Layer:
    """A fused CSPDarknet residual stage with Mish activations."""
    half = channels // 2
    block_flops = 0.0
    weights = 0.0
    for _ in range(repeats):
        block_flops += F.conv2d_flops(half, half, 1, dim, dim)
        block_flops += F.conv2d_flops(half, half, 3, dim, dim)
        weights += F.conv2d_weight_bytes(half, half, 1)
        weights += F.conv2d_weight_bytes(half, half, 3)
    # Mish activation cost over the stage output (exp/tanh heavy: ~8 ops).
    block_flops += 8.0 * F.elementwise_flops(channels, dim, dim) * repeats
    out_bytes = F.tensor_bytes(channels, dim, dim)
    return Layer(
        name=name,
        op=OpType.MISH if mish else OpType.CONV,
        flops=block_flops,
        weight_bytes=weights,
        activation_bytes=3.0 * out_bytes * max(1, repeats),
        output_bytes=out_bytes,
        output_shape=(channels, dim, dim),
    )


def build_yolov4() -> ModelGraph:
    """YOLOv4 at 416x416: CSPDarknet53 backbone, SPP+PAN neck, 3 heads.

    Mish activations and the upsampling route layers are outside the
    simulated NPU's operator set, reproducing the paper's NPU error.
    """
    layers: List[Layer] = []
    dim = 416
    layer, dim = _conv_layer("stem", 3, 32, 3, dim, 1, 1, op=OpType.MISH)
    layers.append(layer)
    backbone = [
        # (channels, repeats)
        (64, 1), (128, 2), (256, 8), (512, 8), (1024, 4),
    ]
    in_ch = 32
    for i, (channels, repeats) in enumerate(backbone, start=1):
        down, dim = _conv_layer(
            f"down{i}", in_ch, channels, 3, dim, 2, 1, op=OpType.MISH
        )
        layers.append(down)
        layers.append(_csp_block(f"csp{i}", channels, dim, repeats))
        in_ch = channels
    # SPP block: three max-pools + concat at 13x13.
    spp_out = F.tensor_bytes(2048, dim, dim)
    layers.append(
        Layer(
            name="spp",
            op=OpType.CONCAT,
            flops=F.pool_flops(1024, dim, dim, 13)
            + F.pool_flops(1024, dim, dim, 9)
            + F.pool_flops(1024, dim, dim, 5),
            weight_bytes=0.0,
            activation_bytes=4 * F.tensor_bytes(1024, dim, dim) + spp_out,
            output_bytes=spp_out,
            output_shape=(2048, dim, dim),
        )
    )
    # PAN neck: upsample + concat + conv stacks at 26x26 and 52x52.
    neck = [("pan_up1", 512, dim * 2), ("pan_up2", 256, dim * 4)]
    prev_ch = 2048
    for name, channels, ndim in neck:
        up_bytes = F.tensor_bytes(channels, ndim, ndim)
        layers.append(
            Layer(
                name=name,
                op=OpType.UPSAMPLE,
                flops=F.elementwise_flops(channels, ndim, ndim),
                weight_bytes=F.conv2d_weight_bytes(prev_ch, channels, 1),
                activation_bytes=3.0 * up_bytes,
                output_bytes=up_bytes,
                output_shape=(channels, ndim, ndim),
            )
        )
        stack, _ = _conv_layer(
            f"{name}_convs", channels * 2, channels, 3, ndim, 1, 1
        )
        layers.append(stack)
        prev_ch = channels
    # Three detection heads (53x53, 26x26, 13x13 equivalents).
    for i, (channels, hdim) in enumerate(
        [(256, dim * 4), (512, dim * 2), (1024, dim)], start=1
    ):
        head, _ = _conv_layer(f"head{i}", channels, 255, 1, hdim, 1, 0)
        layers.append(head)
    return ModelGraph(
        name="yolov4",
        layers=tuple(layers),
        family="detector",
        input_bytes=F.tensor_bytes(3, 416, 416),
    )


def _inverted_residual(
    name: str, in_ch: int, out_ch: int, dim: int, stride: int, expand: int = 6
) -> Tuple[Layer, int]:
    """A fused MobileNetV2 inverted-residual block (expand/dw/project)."""
    mid = in_ch * expand
    out_dim = dim // stride
    flops_total = (
        F.conv2d_flops(in_ch, mid, 1, dim, dim)
        + F.depthwise_conv_flops(mid, 3, out_dim, out_dim)
        + F.conv2d_flops(mid, out_ch, 1, out_dim, out_dim)
    )
    weights = (
        F.conv2d_weight_bytes(in_ch, mid, 1)
        + F.conv2d_weight_bytes(1, mid, 3)
        + F.conv2d_weight_bytes(mid, out_ch, 1)
    )
    in_bytes = F.tensor_bytes(in_ch, dim, dim)
    mid_bytes = F.tensor_bytes(mid, out_dim, out_dim)
    out_bytes = F.tensor_bytes(out_ch, out_dim, out_dim)
    # Expansion inflates activations 6x: depthwise stages are memory-bound.
    layer = Layer(
        name=name,
        op=OpType.DEPTHWISE_CONV,
        flops=flops_total,
        weight_bytes=weights,
        activation_bytes=in_bytes + 2.0 * mid_bytes + out_bytes,
        output_bytes=out_bytes,
        output_shape=(out_ch, out_dim, out_dim),
    )
    return layer, out_dim


def build_mobilenetv2() -> ModelGraph:
    """MobileNetV2: conv stem, 17 inverted residual blocks, 1x1 head."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("stem", 3, 32, 3, 224, 2, 1)
    layers.append(layer)
    config = [
        # (expand, out_ch, repeats, stride)
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    in_ch = 32
    idx = 0
    for expand, out_ch, repeats, first_stride in config:
        for rep in range(repeats):
            idx += 1
            stride = first_stride if rep == 0 else 1
            block, dim = _inverted_residual(
                f"block{idx}", in_ch, out_ch, dim, stride, expand
            )
            layers.append(block)
            in_ch = out_ch
    head, dim = _conv_layer("head_conv", in_ch, 1280, 1, dim, 1, 0)
    layers.append(head)
    pool, dim = _pool_layer("global_pool", 1280, dim, dim, 1)
    layers.append(pool)
    layers.append(_fc_layer("fc", 1280, 1000))
    return ModelGraph(
        name="mobilenetv2",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


def _fire_module(
    name: str, in_ch: int, squeeze: int, expand: int, dim: int
) -> Layer:
    """A fused SqueezeNet fire module (squeeze 1x1 + expand 1x1/3x3 concat).

    Fire modules have tiny weights but wide concatenated activations —
    the structural cause of SqueezeNet's outsized contention footprint
    (Observation 3).
    """
    out_ch = expand * 2
    flops_total = (
        F.conv2d_flops(in_ch, squeeze, 1, dim, dim)
        + F.conv2d_flops(squeeze, expand, 1, dim, dim)
        + F.conv2d_flops(squeeze, expand, 3, dim, dim)
    )
    weights = (
        F.conv2d_weight_bytes(in_ch, squeeze, 1)
        + F.conv2d_weight_bytes(squeeze, expand, 1)
        + F.conv2d_weight_bytes(squeeze, expand, 3)
    )
    in_bytes = F.tensor_bytes(in_ch, dim, dim)
    out_bytes = F.tensor_bytes(out_ch, dim, dim)
    # The 1x1/3x3 concat rereads both expand outputs: ~3.5x traffic.
    return Layer(
        name=name,
        op=OpType.CONCAT,
        flops=flops_total,
        weight_bytes=weights,
        activation_bytes=3.5 * (in_bytes + out_bytes),
        output_bytes=out_bytes,
        output_shape=(out_ch, dim, dim),
    )


def build_squeezenet() -> ModelGraph:
    """SqueezeNet 1.0: conv stem, eight fire modules, final 1x1 conv."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("stem", 3, 96, 7, 224, 2, 0)
    layers.append(layer)
    pool, dim = _pool_layer("pool1", 96, dim, 3, 2)
    layers.append(pool)
    fires = [
        # (in_ch, squeeze, expand)
        (96, 16, 64), (128, 16, 64), (128, 32, 128),
    ]
    for i, (cin, squeeze, expand) in enumerate(fires, start=2):
        layers.append(_fire_module(f"fire{i}", cin, squeeze, expand, dim))
    pool, dim = _pool_layer("pool4", 256, dim, 3, 2)
    layers.append(pool)
    fires = [(256, 32, 128), (256, 48, 192), (384, 48, 192), (384, 64, 256)]
    for i, (cin, squeeze, expand) in enumerate(fires, start=5):
        layers.append(_fire_module(f"fire{i}", cin, squeeze, expand, dim))
    pool, dim = _pool_layer("pool8", 512, dim, 3, 2)
    layers.append(pool)
    layers.append(_fire_module("fire9", 512, 64, 256, dim))
    final, dim = _conv_layer("conv10", 512, 1000, 1, dim, 1, 0)
    layers.append(final)
    pool, dim = _pool_layer("global_pool", 1000, dim, dim, 1)
    layers.append(pool)
    return ModelGraph(
        name="squeezenet",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


def _transformer_encoder_block(
    name: str,
    seq_len: int,
    hidden: int,
    heads: int,
    intermediate: int,
    masked: bool,
) -> Layer:
    """One fused Transformer encoder block (MHA + 2 LN + FFN).

    The block is a single schedulable unit, matching the coarse slicing
    used for the CNN blocks.  ``masked`` marks BERT-style attention with
    sequence masking — the gather/select ops it needs are outside the
    simulated NPU's operator set, so every BERT encoder block (not just
    the embedding) falls back to CPU/GPU, reproducing the whole-model
    NPU error of Fig. 1.  ViT's unmasked attention converts fine.
    """
    token_bytes = F.tensor_bytes(seq_len, hidden)
    flops_total = (
        F.attention_flops(seq_len, hidden, heads)
        + F.ffn_flops(seq_len, hidden, intermediate)
        + 2 * F.layer_norm_flops(seq_len, hidden)
    )
    weights = (
        F.attention_weight_bytes(hidden)
        + F.ffn_weight_bytes(hidden, intermediate)
        + 2 * F.tensor_bytes(2, hidden)
    )
    # Score matrices (heads x seq x seq) and the expanded FFN activations
    # dominate traffic at long sequence lengths.
    activations = (
        6 * token_bytes
        + F.tensor_bytes(heads, seq_len, seq_len)
        + 2 * F.tensor_bytes(seq_len, intermediate)
    )
    return Layer(
        name=name,
        op=OpType.MASKED_ATTENTION if masked else OpType.ATTENTION,
        flops=flops_total,
        weight_bytes=weights,
        activation_bytes=activations,
        output_bytes=token_bytes,
        output_shape=(seq_len, hidden),
    )


def build_bert() -> ModelGraph:
    """BERT-base over 128 tokens: embedding gather + 12 fused encoder
    blocks + pooler.

    Both the embedding gather and the masked attention in every encoder
    block are outside the simulated NPU's operator set, so no part of
    BERT can run on the NPU — reproducing the NPU error the paper
    reports for BERT in Fig. 1.
    """
    seq_len, hidden, heads, intermediate, vocab = 128, 768, 12, 3072, 30522
    layers: List[Layer] = [
        Layer(
            name="embedding",
            op=OpType.EMBEDDING,
            flops=F.elementwise_flops(seq_len, hidden) * 3,
            weight_bytes=F.tensor_bytes(vocab, hidden)
            + F.tensor_bytes(512, hidden),
            activation_bytes=2 * F.tensor_bytes(seq_len, hidden),
            output_bytes=F.tensor_bytes(seq_len, hidden),
            output_shape=(seq_len, hidden),
        )
    ]
    for i in range(12):
        layers.append(
            _transformer_encoder_block(
                f"encoder{i + 1}", seq_len, hidden, heads, intermediate,
                masked=True,
            )
        )
    layers.append(_fc_layer("pooler", hidden, hidden))
    return ModelGraph(
        name="bert",
        layers=tuple(layers),
        family="transformer",
        input_bytes=F.tensor_bytes(seq_len) * 2,
    )


def build_vit() -> ModelGraph:
    """ViT-B/16: conv patch embedding + 12 fused encoder blocks + head.

    Unlike BERT, the patch embedding is an ordinary (supported) strided
    convolution and the attention is unmasked, so ViT runs fully on the
    NPU — matching Fig. 1 where only YOLOv4 and BERT error out.  A
    224x224 image is 196 patches plus the class token: 197 tokens.
    """
    seq_len, hidden, heads, intermediate = 197, 768, 12, 3072
    patch_embed, _ = _conv_layer("patch_embed", 3, hidden, 16, 224, 16, 0)
    layers: List[Layer] = [patch_embed]
    for i in range(12):
        layers.append(
            _transformer_encoder_block(
                f"encoder{i + 1}", seq_len, hidden, heads, intermediate,
                masked=False,
            )
        )
    layers.append(_fc_layer("head", hidden, 1000))
    return ModelGraph(
        name="vit",
        layers=tuple(layers),
        family="transformer",
        input_bytes=F.tensor_bytes(3, 224, 224),
    )


#: Registry of all builders, keyed by canonical model name.
MODEL_BUILDERS: Dict[str, _Builder] = {
    "alexnet": build_alexnet,
    "vgg16": build_vgg16,
    "googlenet": build_googlenet,
    "inceptionv4": build_inceptionv4,
    "resnet50": build_resnet50,
    "yolov4": build_yolov4,
    "mobilenetv2": build_mobilenetv2,
    "squeezenet": build_squeezenet,
    "bert": build_bert,
    "vit": build_vit,
}

#: The evaluation order used in the paper's figures.
MODEL_NAMES: Tuple[str, ...] = tuple(MODEL_BUILDERS)

#: Models the paper groups as "lightweight" (Fig. 9 / Sec. VI-D).
LIGHTWEIGHT_MODELS = ("squeezenet", "mobilenetv2", "googlenet")
#: Models the paper groups as "medium" (100-300 MB working set).
MEDIUM_MODELS = ("inceptionv4", "resnet50", "alexnet")
#: Models the paper groups as "large" (over 300 MB working set).
LARGE_MODELS = ("bert", "vit", "yolov4")

_CACHE: Dict[str, ModelGraph] = {}


def get_model(name: str) -> ModelGraph:
    """Build (and cache) a model by canonical name.

    Raises:
        KeyError: if ``name`` is not in :data:`MODEL_BUILDERS`.
    """
    key = name.lower()
    if key not in MODEL_BUILDERS:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        )
    if key not in _CACHE:
        _CACHE[key] = MODEL_BUILDERS[key]()
    return _CACHE[key]


def all_models() -> Tuple[ModelGraph, ...]:
    """All ten evaluation models, in the paper's canonical order."""
    return tuple(get_model(name) for name in MODEL_NAMES)

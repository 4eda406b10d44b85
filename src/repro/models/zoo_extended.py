"""Extended zoo: the introduction's application models.

The paper's motivating scene-understanding app combines "YOLO for
robust object detection, FaceNet, Age/GenderNet for facial, age and
gender recognition and ViT-GPT2 for scene-to-text captioning".  The
evaluation zoo (:mod:`repro.models.zoo`) covers YOLO and the ViT
encoder; this module adds the remaining three so the full application
can be planned end to end:

* **FaceNet** — Inception-ResNet-v1 backbone at 160x160 producing a
  128-d embedding (~1.6 GFLOPs, ~27 M params).
* **Age/GenderNet** — the Levi-Hassner 3-conv/2-FC CNN at 227x227
  (~0.8 GFLOPs, ~11 M params), FC-dominated like AlexNet.
* **GPT-2 decoder** — a 12-layer, 768-hidden causal Transformer
  generating a caption from the ViT encoder's output.  Causal masking
  needs the same gather/select machinery as BERT's masked attention, so
  GPT-2 is NPU-incompatible on the simulated DaVinci-class NPU.
"""

from __future__ import annotations

from typing import List, Tuple

from . import flops as F
from .ir import Layer, ModelGraph, OpType
from .zoo import _conv_layer, _fc_layer, _pool_layer, _transformer_encoder_block


def _inception_resnet_block(
    name: str, channels: int, dim: int, reduction: float = 0.3
) -> Layer:
    """A fused Inception-ResNet block (branches + 1x1 up-proj + add)."""
    branch_ch = max(32, int(channels * reduction))
    flops_total = (
        F.conv2d_flops(channels, branch_ch, 1, dim, dim) * 3
        + F.conv2d_flops(branch_ch, branch_ch, 3, dim, dim) * 2
        + F.conv2d_flops(branch_ch * 3, channels, 1, dim, dim)
        + F.elementwise_flops(channels, dim, dim)
    )
    weights = (
        3 * F.conv2d_weight_bytes(channels, branch_ch, 1)
        + 2 * F.conv2d_weight_bytes(branch_ch, branch_ch, 3)
        + F.conv2d_weight_bytes(branch_ch * 3, channels, 1)
    )
    out_bytes = F.tensor_bytes(channels, dim, dim)
    return Layer(
        name=name,
        op=OpType.ADD,
        flops=flops_total,
        weight_bytes=weights,
        activation_bytes=3.0 * out_bytes,
        output_bytes=out_bytes,
        output_shape=(channels, dim, dim),
    )


def build_facenet() -> ModelGraph:
    """FaceNet: Inception-ResNet-v1 at 160x160 -> 128-d embedding."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("stem_conv1", 3, 32, 3, 160, 2, 0)
    layers.append(layer)
    layer, dim = _conv_layer("stem_conv2", 32, 64, 3, dim, 1, 1)
    layers.append(layer)
    pool, dim = _pool_layer("stem_pool", 64, dim, 3, 2)
    layers.append(pool)
    layer, dim = _conv_layer("stem_conv3", 64, 192, 3, dim, 1, 1)
    layers.append(layer)
    layer, dim = _conv_layer("stem_conv4", 192, 256, 3, dim, 2, 0)
    layers.append(layer)

    for i in range(5):
        layers.append(_inception_resnet_block(f"block_a{i + 1}", 256, dim))
    pool, dim = _pool_layer("reduction_a", 256, dim, 3, 2)
    layers.append(pool)
    for i in range(10):
        layers.append(_inception_resnet_block(f"block_b{i + 1}", 896, dim, 0.15))
    pool, dim = _pool_layer("reduction_b", 896, dim, 3, 2)
    layers.append(pool)
    for i in range(5):
        layers.append(_inception_resnet_block(f"block_c{i + 1}", 1792, dim, 0.1))
    pool, dim = _pool_layer("global_pool", 1792, dim, dim, 1)
    layers.append(pool)
    layers.append(_fc_layer("embedding", 1792, 128))
    return ModelGraph(
        name="facenet",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 160, 160),
    )


def build_agegendernet() -> ModelGraph:
    """Age/GenderNet (Levi-Hassner): 3 conv + 2 FC at 227x227."""
    layers: List[Layer] = []
    layer, dim = _conv_layer("conv1", 3, 96, 7, 227, 4, 0)
    layers.append(layer)
    pool, dim = _pool_layer("pool1", 96, dim, 3, 2)
    layers.append(pool)
    layer, dim = _conv_layer("conv2", 96, 256, 5, dim, 1, 2)
    layers.append(layer)
    pool, dim = _pool_layer("pool2", 256, dim, 3, 2)
    layers.append(pool)
    layer, dim = _conv_layer("conv3", 256, 384, 3, dim, 1, 1)
    layers.append(layer)
    pool, dim = _pool_layer("pool3", 384, dim, 3, 2)
    layers.append(pool)
    feat = 384 * dim * dim
    layers.append(_fc_layer("fc1", feat, 512))
    layers.append(_fc_layer("fc2", 512, 512))
    layers.append(_fc_layer("output", 512, 10))  # 8 age buckets + 2 genders
    return ModelGraph(
        name="agegendernet",
        layers=tuple(layers),
        family="cnn",
        input_bytes=F.tensor_bytes(3, 227, 227),
    )


def build_gpt2() -> ModelGraph:
    """GPT-2 small decoder over 64 tokens: embedding + 12 causal blocks
    + LM head.

    Causal (masked) attention keeps every decoder block off the NPU,
    like BERT's encoder — the captioning tail of the paper's app runs
    on CPU/GPU.
    """
    seq_len, hidden, heads, intermediate, vocab = 64, 768, 12, 3072, 50257
    layers: List[Layer] = [
        Layer(
            name="embedding",
            op=OpType.EMBEDDING,
            flops=F.elementwise_flops(seq_len, hidden) * 2,
            weight_bytes=F.tensor_bytes(vocab, hidden)
            + F.tensor_bytes(1024, hidden),
            activation_bytes=2 * F.tensor_bytes(seq_len, hidden),
            output_bytes=F.tensor_bytes(seq_len, hidden),
            output_shape=(seq_len, hidden),
        )
    ]
    for i in range(12):
        layers.append(
            _transformer_encoder_block(
                f"decoder{i + 1}", seq_len, hidden, heads, intermediate,
                masked=True,
            )
        )
    layers.append(_fc_layer("lm_head", hidden, vocab))
    return ModelGraph(
        name="gpt2",
        layers=tuple(layers),
        family="transformer",
        input_bytes=F.tensor_bytes(seq_len) * 2,
    )


#: Extended builders, merged into :func:`repro.models.zoo.get_model`'s
#: lookup by :func:`register_extended_models`.
EXTENDED_MODEL_BUILDERS = {
    "facenet": build_facenet,
    "agegendernet": build_agegendernet,
    "gpt2": build_gpt2,
}


def register_extended_models() -> Tuple[str, ...]:
    """Make the extended models resolvable via ``get_model``.

    Idempotent.  The evaluation registry (``MODEL_NAMES``) is left
    untouched so the paper's 10-model sweeps stay exactly the paper's.

    Returns:
        The names registered.
    """
    from . import zoo

    for name, builder in EXTENDED_MODEL_BUILDERS.items():
        zoo.MODEL_BUILDERS.setdefault(name, builder)
    return tuple(EXTENDED_MODEL_BUILDERS)

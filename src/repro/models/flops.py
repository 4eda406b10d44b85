"""FLOP and byte-count calculators for common DNN operators.

These helpers compute the cost metadata attached to each :class:`~repro.models.ir.Layer`.
Counts follow the usual conventions (a multiply-accumulate counts as two
FLOPs) and assume FP16 storage (2 bytes per element), matching the paper's
mobile-inference setting where MNN runs FP16 on the CPU/GPU/NPU.
"""

from __future__ import annotations


#: Bytes per tensor element (FP16 inference as in the paper's evaluation).
BYTES_PER_ELEMENT = 2


def tensor_bytes(*dims: int) -> float:
    """Size in bytes of a dense FP16 tensor with the given dimensions."""
    if any(d < 0 for d in dims):
        raise ValueError(f"tensor dimensions must be non-negative: {dims}")
    size = BYTES_PER_ELEMENT
    for d in dims:
        size *= d
    return float(size)


def conv2d_flops(
    in_channels: int,
    out_channels: int,
    kernel: int,
    out_h: int,
    out_w: int,
    groups: int = 1,
) -> float:
    """FLOPs of a 2-D convolution (2 * MACs)."""
    if groups < 1:
        raise ValueError("groups must be >= 1")
    macs = (in_channels // groups) * out_channels * kernel * kernel * out_h * out_w
    return 2.0 * macs


def conv2d_weight_bytes(
    in_channels: int, out_channels: int, kernel: int, groups: int = 1
) -> float:
    """Parameter bytes of a conv layer (weights + bias)."""
    weights = (in_channels // groups) * out_channels * kernel * kernel
    return tensor_bytes(weights) + tensor_bytes(out_channels)


def depthwise_conv_flops(channels: int, kernel: int, out_h: int, out_w: int) -> float:
    """FLOPs of a depthwise convolution (one filter per channel)."""
    return 2.0 * channels * kernel * kernel * out_h * out_w


def linear_flops(in_features: int, out_features: int) -> float:
    """FLOPs of a dense / fully-connected layer applied to one row."""
    return 2.0 * in_features * out_features


def linear_weight_bytes(in_features: int, out_features: int) -> float:
    return tensor_bytes(in_features, out_features) + tensor_bytes(out_features)


def attention_flops(seq_len: int, hidden: int, heads: int) -> float:
    """FLOPs of one multi-head self-attention block (projections + scores).

    Q/K/V/output projections are ``4 * seq * hidden^2`` MACs; the score and
    context matmuls add ``2 * seq^2 * hidden`` MACs.  ``heads`` does not
    change the FLOP count (it reshapes the same work) but is kept in the
    signature for clarity at call sites.
    """
    if heads < 1:
        raise ValueError("heads must be >= 1")
    proj_macs = 4 * seq_len * hidden * hidden
    score_macs = 2 * seq_len * seq_len * hidden
    return 2.0 * (proj_macs + score_macs)


def attention_weight_bytes(hidden: int) -> float:
    """Parameter bytes of the four attention projection matrices."""
    return 4 * (tensor_bytes(hidden, hidden) + tensor_bytes(hidden))


def ffn_flops(seq_len: int, hidden: int, intermediate: int) -> float:
    """FLOPs of a Transformer feed-forward block (two linear layers)."""
    return 2.0 * seq_len * (hidden * intermediate + intermediate * hidden)


def ffn_weight_bytes(hidden: int, intermediate: int) -> float:
    return (
        tensor_bytes(hidden, intermediate)
        + tensor_bytes(intermediate)
        + tensor_bytes(intermediate, hidden)
        + tensor_bytes(hidden)
    )


def pool_flops(channels: int, out_h: int, out_w: int, kernel: int) -> float:
    """FLOPs of a pooling layer (one op per element in the window)."""
    return float(channels * out_h * out_w * kernel * kernel)


def elementwise_flops(*dims: int) -> float:
    """FLOPs of an elementwise op (ReLU, add, ...) over a tensor."""
    count = 1.0
    for d in dims:
        count *= d
    return count


def conv_out_dim(in_dim: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output dimension of a convolution/pooling window."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return (in_dim + 2 * padding - kernel) // stride + 1


def layer_norm_flops(seq_len: int, hidden: int) -> float:
    """FLOPs of LayerNorm: ~5 ops per element (mean, var, scale, shift)."""
    return 5.0 * seq_len * hidden


def softmax_flops(*dims: int) -> float:
    """FLOPs of softmax: ~3 ops per element (exp, sum, divide)."""
    return 3.0 * elementwise_flops(*dims)

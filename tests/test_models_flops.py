"""Unit tests for the FLOP / byte calculators."""

import pytest

from repro.models import flops as F


class TestTensorBytes:
    def test_fp16_element_size(self):
        assert F.tensor_bytes(10) == 20.0

    def test_multi_dim(self):
        assert F.tensor_bytes(2, 3, 4) == 2 * 3 * 4 * 2.0

    def test_scalar(self):
        assert F.tensor_bytes() == 2.0

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            F.tensor_bytes(-1)


class TestConv:
    def test_conv2d_flops_counts_two_per_mac(self):
        # 1 MAC per output element with 1x1 kernel and 1 channel.
        assert F.conv2d_flops(1, 1, 1, 4, 4) == 2.0 * 16

    def test_conv2d_flops_grouped(self):
        full = F.conv2d_flops(8, 8, 3, 10, 10, groups=1)
        grouped = F.conv2d_flops(8, 8, 3, 10, 10, groups=8)
        assert grouped == full / 8

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            F.conv2d_flops(4, 4, 3, 8, 8, groups=0)

    def test_weight_bytes_include_bias(self):
        # 3x3, 2->4 channels: 72 weights + 4 bias, fp16.
        assert F.conv2d_weight_bytes(2, 4, 3) == (72 + 4) * 2.0

    def test_depthwise_flops(self):
        assert F.depthwise_conv_flops(16, 3, 8, 8) == 2.0 * 16 * 9 * 64

    def test_out_dim_formula(self):
        assert F.conv_out_dim(224, 7, 2, 3) == 112
        assert F.conv_out_dim(224, 3, 1, 1) == 224

    def test_out_dim_invalid_stride(self):
        with pytest.raises(ValueError):
            F.conv_out_dim(10, 3, 0, 1)


class TestLinearAndAttention:
    def test_linear_flops(self):
        assert F.linear_flops(100, 10) == 2000.0

    def test_linear_weight_bytes(self):
        assert F.linear_weight_bytes(10, 5) == (50 + 5) * 2.0

    def test_attention_flops_scale_quadratically_in_seq(self):
        short = F.attention_flops(64, 256, 4)
        long = F.attention_flops(128, 256, 4)
        # Projections double; score term quadruples -> more than 2x.
        assert long > 2 * short

    def test_attention_invalid_heads(self):
        with pytest.raises(ValueError):
            F.attention_flops(64, 256, 0)

    def test_ffn_flops(self):
        assert F.ffn_flops(2, 4, 8) == 2.0 * 2 * (32 + 32)

    def test_layer_norm_flops(self):
        assert F.layer_norm_flops(10, 20) == 5.0 * 200

    def test_softmax_flops(self):
        assert F.softmax_flops(10, 10) == 300.0


class TestElementwise:
    def test_elementwise_flops(self):
        assert F.elementwise_flops(3, 4) == 12.0

    def test_pool_flops(self):
        assert F.pool_flops(8, 4, 4, 2) == 8 * 16 * 4

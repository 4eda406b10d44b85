"""Unit tests for the layer-level model IR."""

import math

import pytest

from repro.models.ir import (
    Layer,
    ModelGraph,
    NPU_SUPPORTED_OPS,
    OpType,
    linearize,
    validate_partition,
)


def make_layer(name="l0", op=OpType.CONV, flops=100.0, weights=10.0,
               acts=20.0, out=5.0):
    return Layer(
        name=name,
        op=op,
        flops=flops,
        weight_bytes=weights,
        activation_bytes=acts,
        output_bytes=out,
    )


def make_model(num_layers=4, name="m", op=OpType.CONV):
    layers = tuple(
        make_layer(name=f"l{i}", op=op, flops=10.0 * (i + 1)) for i in range(num_layers)
    )
    return ModelGraph(name=name, layers=layers)


class TestLayer:
    def test_memory_bytes_sums_weights_and_activations(self):
        layer = make_layer(weights=10.0, acts=30.0)
        assert layer.memory_bytes == 40.0

    def test_arithmetic_intensity(self):
        layer = make_layer(flops=80.0, weights=10.0, acts=30.0)
        assert layer.arithmetic_intensity == 2.0

    def test_arithmetic_intensity_zero_bytes(self):
        layer = make_layer(flops=10.0, weights=0.0, acts=0.0)
        assert math.isinf(layer.arithmetic_intensity)

    def test_arithmetic_intensity_zero_flops_zero_bytes(self):
        layer = make_layer(flops=0.0, weights=0.0, acts=0.0)
        assert layer.arithmetic_intensity == 0.0

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            make_layer(flops=-1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            make_layer(weights=-1.0)

    def test_negative_output_rejected(self):
        with pytest.raises(ValueError):
            make_layer(out=-1.0)

    @pytest.mark.parametrize("op", [OpType.CONV, OpType.MATMUL, OpType.POOL])
    def test_npu_supported_ops(self, op):
        assert make_layer(op=op).npu_supported()

    @pytest.mark.parametrize(
        "op", [OpType.MISH, OpType.EMBEDDING, OpType.UPSAMPLE, OpType.MASKED_ATTENTION]
    )
    def test_npu_unsupported_ops(self, op):
        assert not make_layer(op=op).npu_supported()

    def test_supported_set_excludes_fallback_ops(self):
        assert OpType.MISH not in NPU_SUPPORTED_OPS
        assert OpType.MASKED_ATTENTION not in NPU_SUPPORTED_OPS
        assert OpType.ATTENTION in NPU_SUPPORTED_OPS


class TestModelGraph:
    def test_length_and_iteration(self):
        model = make_model(5)
        assert len(model) == 5
        assert model.num_layers == 5
        assert [layer.name for layer in model] == [f"l{i}" for i in range(5)]
        assert model[2].name == "l2"

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph(name="bad", layers=())

    def test_duplicate_layer_names_rejected(self):
        layers = (make_layer("a"), make_layer("a"))
        with pytest.raises(ValueError):
            ModelGraph(name="bad", layers=layers)

    def test_totals(self):
        model = make_model(3)
        assert model.total_flops == 10.0 + 20.0 + 30.0
        assert model.total_weight_bytes == 30.0
        assert model.total_memory_bytes == 90.0

    def test_slice_flops_matches_direct_sum(self):
        model = make_model(5)
        assert model.slice_flops(1, 3) == 20.0 + 30.0 + 40.0

    def test_slice_bounds_checked(self):
        model = make_model(3)
        with pytest.raises(IndexError):
            model.slice_flops(2, 1)
        with pytest.raises(IndexError):
            model.slice_flops(0, 3)
        with pytest.raises(IndexError):
            model.slice_flops(-1, 1)

    def test_boundary_bytes_interior(self):
        model = make_model(4)
        assert model.boundary_bytes(1) == 5.0

    def test_boundary_bytes_at_tail_is_zero(self):
        model = make_model(4)
        assert model.boundary_bytes(3) == 0.0

    def test_boundary_bytes_out_of_range(self):
        model = make_model(2)
        with pytest.raises(IndexError):
            model.boundary_bytes(5)

    def test_npu_supported_all_supported(self):
        assert make_model(op=OpType.CONV).npu_supported()

    def test_npu_supported_with_fallback_layer(self):
        layers = (make_layer("a"), make_layer("b", op=OpType.MISH))
        model = ModelGraph(name="m", layers=layers)
        assert not model.npu_supported()
        assert model.unsupported_layers() == (1,)

    def test_linearize_concatenates(self):
        a, b = make_model(2, name="a"), make_model(3, name="b")
        assert len(linearize([a, b])) == 5


class TestValidatePartition:
    def test_valid_cuts(self):
        validate_partition(make_model(6), [2, 4])

    def test_out_of_range_cut(self):
        with pytest.raises(ValueError):
            validate_partition(make_model(4), [4])

    def test_zero_cut_rejected(self):
        with pytest.raises(ValueError):
            validate_partition(make_model(4), [0])

    def test_unsorted_cuts_rejected(self):
        with pytest.raises(ValueError):
            validate_partition(make_model(6), [4, 2])

    def test_duplicate_cuts_rejected(self):
        with pytest.raises(ValueError):
            validate_partition(make_model(6), [2, 2])

"""Tests for serialization, calibration and thermal-feedback planning."""

import dataclasses

import pytest

from repro.core.thermal_feedback import plan_with_thermal_feedback
from repro.hardware.soc import get_soc
from repro.models.serialization import (
    load_model,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    save_model,
)
from repro.models.zoo import get_model
from repro.profiling.calibration import CalibrationTarget, calibrate
from repro.profiling.profiler import SocProfiler


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


class TestModelSerialization:
    @pytest.mark.parametrize("name", ["squeezenet", "bert", "yolov4"])
    def test_round_trip(self, name):
        model = get_model(name)
        restored = model_from_json(model_to_json(model))
        assert restored.name == model.name
        assert restored.num_layers == model.num_layers
        assert restored.total_flops == pytest.approx(model.total_flops)
        assert restored.total_weight_bytes == pytest.approx(
            model.total_weight_bytes
        )
        assert [layer.op for layer in restored.layers] == [layer.op for layer in model.layers]
        assert restored.npu_supported() == model.npu_supported()

    def test_file_round_trip(self, tmp_path):
        model = get_model("googlenet")
        path = tmp_path / "googlenet.json"
        save_model(model, str(path))
        assert load_model(str(path)).name == "googlenet"

    def test_wrong_kind_rejected(self):
        data = model_to_dict(get_model("vit"))
        data["kind"] = "banana"
        with pytest.raises(ValueError):
            model_from_dict(data)

    def test_wrong_version_rejected(self):
        data = model_to_dict(get_model("vit"))
        data["version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(data)


class TestCalibration:
    def test_recovers_known_scale(self, kirin):
        # Fabricate measurements from a 1.7x faster cpu_big, then check
        # calibration recovers approximately that scale.
        true_scale = 1.7
        fast = dataclasses.replace(
            kirin,
            processors=tuple(
                dataclasses.replace(p, peak_gflops=p.peak_gflops * true_scale)
                if p.name == "cpu_big"
                else p
                for p in kirin.processors
            ),
        )
        profiler = SocProfiler(fast)
        targets = [
            CalibrationTarget(
                model_name=name,
                processor_name="cpu_big",
                latency_ms=profiler.profile(get_model(name)).whole_model_ms(
                    fast.cpu_big
                ),
            )
            for name in ("resnet50", "vgg16", "bert")
        ]
        calibrated, report = calibrate(kirin, targets)
        assert report.improved
        assert report.scales["cpu_big"] == pytest.approx(true_scale, rel=0.1)
        # untouched processors keep scale ~1
        assert report.scales["gpu"] == pytest.approx(1.0, abs=0.15)

    def test_reduces_error_on_synthetic_offsets(self, kirin):
        profiler = SocProfiler(kirin)
        targets = [
            CalibrationTarget(
                model_name="resnet50",
                processor_name="gpu",
                latency_ms=profiler.profile(get_model("resnet50")).whole_model_ms(
                    kirin.gpu
                )
                * 1.5,
            )
        ]
        _, report = calibrate(kirin, targets)
        assert report.rms_log_error_after < report.rms_log_error_before

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            CalibrationTarget("resnet50", "gpu", latency_ms=0.0)

    def test_empty_targets(self, kirin):
        with pytest.raises(ValueError):
            calibrate(kirin, [])

    def test_infeasible_target_rejected(self, kirin):
        with pytest.raises(ValueError):
            calibrate(
                kirin,
                [CalibrationTarget("bert", "npu", latency_ms=10.0)],
            )


class TestThermalFeedback:
    def test_iterations_and_result(self, kirin):
        models = [get_model(n) for n in ("yolov4", "bert", "vit")]
        result = plan_with_thermal_feedback(kirin, models, max_iterations=3)
        assert 1 <= len(result.iterations) <= 3
        assert result.result.makespan_ms > 0
        for scales in (it.scales for it in result.iterations):
            assert all(0.5 <= v <= 1.0 for v in scales.values())

    def test_lightly_used_cpu_recovers_throughput(self, kirin):
        # A plan that barely touches the CPU should see its scale rise
        # above the full-load steady-state value.
        models = [get_model(n) for n in ("mobilenetv2", "googlenet")]
        result = plan_with_thermal_feedback(kirin, models, max_iterations=3)
        first = result.iterations[0].scales["cpu_big"]
        final = result.final_scales["cpu_big"]
        assert final >= first

    def test_validation(self, kirin):
        with pytest.raises(ValueError):
            plan_with_thermal_feedback(kirin, [])
        with pytest.raises(ValueError):
            plan_with_thermal_feedback(
                kirin, [get_model("vit")], max_iterations=0
            )

"""Tests for the extension features: energy, streaming, batching,
extended zoo, trace export."""

import json

import pytest

from repro.core.online import StreamingPlanner
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.energy import POWER, PowerSpec, estimate_energy
from repro.hardware.processor import ProcessorKind
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.models.zoo_extended import (
    EXTENDED_MODEL_BUILDERS,
    build_agegendernet,
    build_facenet,
    build_gpt2,
    register_extended_models,
)
from repro.baselines.mnn_serial import plan_mnn_serial
from repro.runtime.executor import execute_plan
from repro.runtime.tracing import ascii_gantt, to_chrome_trace, write_chrome_trace
from repro.workloads.batching import batched_model, coalesce_stream
from repro.workloads.generator import arrival_times_ms


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def h2p_result(kirin):
    planner = Hetero2PipePlanner(kirin)
    models = [get_model(n) for n in ("yolov4", "bert", "squeezenet", "vit")]
    return execute_plan(planner.plan(models).plan)


class TestEnergy:
    def test_power_spec_validation(self):
        with pytest.raises(ValueError):
            PowerSpec(idle_w=-1.0, active_w=1.0)

    def test_breakdown_components_sum(self, kirin, h2p_result):
        energy = estimate_energy(h2p_result, kirin)
        assert energy.total_mj == pytest.approx(
            energy.compute_mj + energy.dram_mj
        )
        assert energy.total_mj > 0
        assert energy.dram_mj > 0

    def test_active_energy_tracks_busy_time(self, kirin, h2p_result):
        energy = estimate_energy(h2p_result, kirin)
        for proc in kirin.processors:
            busy = h2p_result.processor_busy_ms[proc.name]
            expected = POWER[proc.kind].active_w * busy
            assert energy.active_mj[proc.name] == pytest.approx(expected)

    def test_h2p_saves_energy_vs_serial(self, kirin, h2p_result):
        models = [get_model(n) for n in ("yolov4", "bert", "squeezenet", "vit")]
        serial = execute_plan(plan_mnn_serial(kirin, models))
        e_h2p = estimate_energy(h2p_result, kirin)
        e_serial = estimate_energy(serial, kirin)
        assert e_h2p.total_mj < e_serial.total_mj

    def test_custom_power_table(self, kirin, h2p_result, monkeypatch):
        normal = estimate_energy(h2p_result, kirin)
        monkeypatch.setitem(POWER, ProcessorKind.CPU_BIG, PowerSpec(0.0, 0.0))
        cheaper = estimate_energy(h2p_result, kirin)
        assert cheaper.total_mj < normal.total_mj

    def test_per_inference_validation(self, kirin, h2p_result):
        energy = estimate_energy(h2p_result, kirin)
        with pytest.raises(ValueError):
            energy.per_inference_mj(0)


class TestBatchedModel:
    def test_batch_one_is_identity(self):
        model = get_model("mobilenetv2")
        assert batched_model(model, 1) is model

    def test_batch_scales_flops_not_weights(self):
        model = get_model("mobilenetv2")
        b4 = batched_model(model, 4)
        assert b4.total_flops == pytest.approx(4 * model.total_flops)
        assert b4.total_weight_bytes == pytest.approx(model.total_weight_bytes)
        assert b4.name == "mobilenetv2_x4"
        assert b4.num_layers == model.num_layers

    def test_batch_invalid(self):
        with pytest.raises(ValueError):
            batched_model(get_model("mobilenetv2"), 0)

    def test_coalesce_merges_runs(self):
        models = [get_model(n) for n in
                  ("mobilenetv2", "mobilenetv2", "mobilenetv2", "bert",
                   "mobilenetv2", "mobilenetv2")]
        batched, sizes = coalesce_stream(models)
        assert sizes == [3, 1, 2]
        assert batched[0].name == "mobilenetv2_x3"
        assert batched[1].name == "bert"
        assert batched[2].name == "mobilenetv2_x2"

    def test_coalesce_respects_cap(self):
        models = [get_model("squeezenet")] * 10
        batched, sizes = coalesce_stream(models, max_batch=4)
        assert sizes == [4, 4, 2]

    def test_coalesce_validation(self):
        with pytest.raises(ValueError):
            coalesce_stream([])
        with pytest.raises(ValueError):
            coalesce_stream([get_model("bert")], max_batch=0)


class TestStreamingPlanner:
    def test_invalid_window(self, kirin):
        with pytest.raises(ValueError):
            StreamingPlanner(kirin, window_size=0)

    def test_empty_stream_rejected(self, kirin):
        planner = StreamingPlanner(kirin)
        with pytest.raises(ValueError):
            planner.run([])

    def test_arrival_mismatch_rejected(self, kirin):
        planner = StreamingPlanner(kirin)
        with pytest.raises(ValueError):
            planner.run([get_model("vit")], arrivals=[0.0, 1.0])

    def test_windows_cover_stream(self, kirin):
        planner = StreamingPlanner(kirin, window_size=3)
        stream = [get_model("resnet50")] * 8
        result = planner.run(stream)
        assert sum(w.num_requests for w in result.windows) == 8
        assert len(result.windows) == 3
        assert all(f > 0 for f in result.request_finish_ms)

    def test_windows_dispatch_in_order(self, kirin):
        planner = StreamingPlanner(kirin, window_size=2)
        stream = [get_model(n) for n in
                  ("vit", "resnet50", "bert", "squeezenet")]
        result = planner.run(stream)
        dispatches = [w.dispatch_ms for w in result.windows]
        assert dispatches == sorted(dispatches)
        # Second window waits for the first to drain.
        assert result.windows[1].dispatch_ms >= result.windows[0].finish_ms - 1e-6

    def test_arrivals_gate_windows(self, kirin):
        planner = StreamingPlanner(kirin, window_size=2)
        stream = [get_model("squeezenet")] * 4
        arrivals = [0.0, 0.0, 1000.0, 1000.0]
        result = planner.run(stream, arrivals)
        assert result.windows[1].dispatch_ms >= 1000.0

    def test_latencies_consistent(self, kirin):
        planner = StreamingPlanner(kirin, window_size=4)
        stream = [get_model(n) for n in ("vit", "resnet50", "googlenet")]
        arrivals = arrival_times_ms(3, 10.0)
        result = planner.run(stream, arrivals)
        for i in range(3):
            assert result.request_latency_ms(i) > 0
        assert result.mean_latency_ms() > 0
        assert result.throughput_per_s > 0

    def test_coalescing_improves_light_stream(self, kirin):
        # A stream of identical lightweight requests benefits from
        # batching: fewer launches, fewer copies.
        stream = [get_model("mobilenetv2")] * 12
        plain = StreamingPlanner(kirin, window_size=12).run(stream)
        batched = StreamingPlanner(
            kirin, window_size=12, coalesce_batches=True, max_batch=12
        ).run(stream)
        assert batched.makespan_ms <= plain.makespan_ms * 1.05
        # every original request got a finish time
        assert all(f > 0 for f in batched.request_finish_ms)


class TestExtendedZoo:
    def test_builders_produce_valid_models(self):
        for name, builder in EXTENDED_MODEL_BUILDERS.items():
            model = builder()
            assert model.name == name
            assert model.num_layers > 5
            assert model.total_flops > 0

    def test_registration_idempotent(self):
        names = register_extended_models()
        assert set(names) == {"facenet", "agegendernet", "gpt2"}
        register_extended_models()
        assert get_model("facenet").name == "facenet"

    def test_evaluation_registry_untouched(self):
        from repro.models.zoo import MODEL_NAMES

        register_extended_models()
        assert len(MODEL_NAMES) == 10
        assert "facenet" not in MODEL_NAMES

    def test_gpt2_is_npu_incompatible(self):
        assert not build_gpt2().npu_supported()

    def test_facenet_and_agegender_npu_ok(self):
        assert build_facenet().npu_supported()
        assert build_agegendernet().npu_supported()

    def test_extended_models_plan_end_to_end(self, kirin):
        register_extended_models()
        planner = Hetero2PipePlanner(kirin)
        models = [
            get_model(n)
            for n in ("yolov4", "facenet", "agegendernet", "vit", "gpt2")
        ]
        report = planner.plan(models)
        report.plan.validate()
        result = execute_plan(report.plan)
        assert result.num_requests == 5


class TestTracing:
    def test_chrome_trace_structure(self, h2p_result):
        doc = json.loads(to_chrome_trace(h2p_result))
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(h2p_result.records)
        for event in slices:
            assert event["dur"] >= 0
            assert "slowdown" in event["args"]

    def test_chrome_trace_names(self, h2p_result):
        names = ["a", "b", "c", "d"]
        doc = json.loads(to_chrome_trace(h2p_result, names))
        slice_names = {
            e["name"].split(" / ")[0]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert slice_names <= set(names)

    def test_chrome_trace_name_mismatch(self, h2p_result):
        with pytest.raises(ValueError):
            to_chrome_trace(h2p_result, ["only-one"])

    def test_write_chrome_trace(self, h2p_result, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(h2p_result, str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_ascii_gantt_rows(self, h2p_result):
        chart = ascii_gantt(h2p_result, width=60)
        lines = chart.splitlines()
        processors = {r.processor for r in h2p_result.records}
        assert len(lines) == len(processors) + 2
        assert "legend" in lines[-1]

    def test_ascii_gantt_width_validation(self, h2p_result):
        with pytest.raises(ValueError):
            ascii_gantt(h2p_result, width=5)


class TestEnergyExperiment:
    def test_ext_energy_rows(self):
        from repro.experiments import ext_energy

        rows = ext_energy.run(num_combinations=3)
        by_scheme = {r.scheme: r for r in rows}
        assert set(by_scheme) == {"mnn", "pipe_it", "band", "h2p"}
        # H2P uses less energy per inference than serial CPU execution.
        assert (
            by_scheme["h2p"].mean_energy_per_inference_mj
            < by_scheme["mnn"].mean_energy_per_inference_mj
        )
        text = ext_energy.render(rows)
        assert "mJ_per_inference" in text

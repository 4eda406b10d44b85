"""Tests for the queueing analysis and the command-line interface."""

import json
import signal

import pytest

from repro.cli import build_parser, main
from repro.core.plan import PipelinePlan
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.runtime.executor import execute_plan
from repro.runtime.queueing import heterogeneous_queueing, serial_queueing
from repro.workloads.generator import arrival_times_ms

#: A valid model list for the verbs that plan one.
MODELS = ["--models", "resnet50,vit"]

@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


class TestQueueing:
    def test_serial_delays_accumulate(self, kirin):
        models = [get_model("resnet50")] * 6
        arrivals = arrival_times_ms(6, 30.0)
        report = serial_queueing(kirin, models, arrivals)
        delays = report.queueing_delay_ms
        # ResNet50 takes ~70 ms on CPU big but arrives every 30 ms.
        assert delays[-1] > delays[0]
        assert delays[-1] > 100.0

    def test_heterogeneous_reduces_backlog(self, kirin):
        models = [get_model("resnet50")] * 6
        arrivals = arrival_times_ms(6, 30.0)
        serial = serial_queueing(kirin, models, arrivals)
        hetero = heterogeneous_queueing(kirin, models, arrivals)
        assert (
            hetero.mean_queueing_delay_ms < serial.mean_queueing_delay_ms
        )

    def test_completion_latency_positive(self, kirin):
        models = [get_model("googlenet")] * 3
        arrivals = arrival_times_ms(3, 50.0)
        report = serial_queueing(kirin, models, arrivals)
        assert all(latency > 0 for latency in report.completion_latency_ms)

    def test_delays_nonnegative(self, kirin):
        models = [get_model("googlenet")] * 4
        arrivals = arrival_times_ms(4, 200.0)
        report = serial_queueing(kirin, models, arrivals)
        assert all(d >= -1e-6 for d in report.queueing_delay_ms)


class _PermutingPlanner:
    """Planner stub that reverses the execution order of a real plan.

    Mitigation reorders rarely trigger on small mixes, so the
    regression test forces a non-identity ``plan.order`` explicitly:
    ``assignments[pos]`` serves original request ``order[pos]``.
    """

    def __init__(self, soc):
        self._soc = soc

    def plan(self, models):
        report = Hetero2PipePlanner(self._soc).plan(models)
        base = report.plan
        order = tuple(reversed(range(len(base.assignments))))
        permuted = PipelinePlan(
            soc=base.soc,
            processors=base.processors,
            assignments=[base.assignments[i] for i in order],
            order=order,
        )
        self.permuted_plan = permuted

        class _Report:
            plan = permuted

        return _Report()


class TestQueueingOrderRegression:
    """Arrival/start pairing must survive a mitigation re-ordering.

    The historical bug: ``heterogeneous_queueing`` fed the simulator
    execution-order arrivals (correct) but returned the simulator's
    execution-position outputs as if they were original-request-indexed
    — pairing request A's arrival with request B's start whenever
    ``plan.order`` was not the identity.
    """

    def test_non_identity_order_maps_back_to_original_requests(self, kirin):
        models = [get_model("resnet50"), get_model("squeezenet")]
        arrivals = [0.0, 40.0]
        planner = _PermutingPlanner(kirin)
        report = heterogeneous_queueing(kirin, models, arrivals, planner)

        # The report is original-request-indexed: arrivals unpermuted.
        assert report.arrival_ms == arrivals

        # Reference: simulate the permuted plan directly and invert the
        # permutation by hand.  order == (1, 0): execution position 0
        # serves original request 1 and vice versa.
        result = execute_plan(
            planner.permuted_plan,
            arrivals=[arrivals[1], arrivals[0]],
            record=False,
        )
        assert report.finish_ms[0] == pytest.approx(
            result.request_finish_ms[1]
        )
        assert report.finish_ms[1] == pytest.approx(
            result.request_finish_ms[0]
        )
        assert all(d >= -1e-6 for d in report.queueing_delay_ms)

    def test_identity_order_unchanged(self, kirin):
        models = [get_model("resnet50")] * 3
        arrivals = arrival_times_ms(3, 30.0)
        report = heterogeneous_queueing(kirin, models, arrivals)
        assert report.arrival_ms == list(arrivals)
        assert all(d >= -1e-6 for d in report.queueing_delay_ms)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "kirin990" in out

    def test_run_known_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Hetero2Pipe" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_plan_command(self, capsys):
        code = main(
            ["plan", "--soc", "kirin990", "--models", "vit,resnet50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "throughput" in out

    def test_plan_no_ct_flag(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--soc",
                    "snapdragon870",
                    "--models",
                    "squeezenet,googlenet",
                    "--no-ct",
                ]
            )
            == 0
        )

    def test_plan_empty_models(self, capsys):
        assert main(["plan", "--models", " "]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "verb,flags",
        [
            ("stats", [*MODELS, "--deadline-ms", "-1"]),
            ("slo", [*MODELS, "--interval-ms", "-3"]),
            ("stats", ["--models", "nosuch"]),
            ("slo", [*MODELS, "--window-ms", "0"]),
            ("drift", [*MODELS, "--window", "0"]),
            ("slo", [*MODELS, "--burn-windows", "0,0"]),
            ("accuracy", [*MODELS, "--perturb", "0"]),
            ("stats", [*MODELS, "--repeat", "0"]),
            ("accuracy", [*MODELS, "--perturb-processor", "nope", "--perturb", "1.3"]),
            ("slo", [*MODELS, "--classes", "vit"]),
            ("blame", [*MODELS, "--whatif", "scale:gpu:nope"]),
            ("bench", ["--scenarios", "executor_sim", "--socs", "kirin990,nope"]),
            ("bench", ["--scenarios", "executor_sim", "--rounds", "0"]),
            # Non-finite numbers: each of these used to hang or run on
            # with a value no comparison could ever trip.
            ("stats", [*MODELS, "--deadline-ms", "nan"]),
            ("stats", [*MODELS, "--arrivals", "poisson", "--interval-ms", "nan"]),
            ("stats", [*MODELS, "--arrivals", "periodic", "--interval-ms", "inf"]),
            ("slo", [*MODELS, "--window-ms", "nan"]),
            ("slo", [*MODELS, "--burn-threshold", "nan"]),
            ("accuracy", [*MODELS, "--perturb", "nan"]),
            ("accuracy", [*MODELS, "--perturb", "inf"]),
            ("stream", [*MODELS, "--interval", "nan"]),
            ("blame", [*MODELS, "--whatif", "scale:gpu:nan"]),
            ("blame", [*MODELS, "--whatif", "scale:gpu:inf"]),
            ("profile", [*MODELS, "--cprofile", "--top", "-3"]),
            ("bench", ["--scenarios", "executor_sim", "--tolerance", "nan"]),
            # Shrunk failures of tests/test_cli_fuzz.py.
            ("stats", [*MODELS, "--deadline-ms", "inf"]),
            ("slo", [*MODELS, "--classes", "*=1e400"]),
            ("blame", [*MODELS, "--whatif", "scale:gpu:1e400"]),
        ],
    )
    def test_malformed_input_is_a_usage_error(self, capsys, verb, flags):
        assert main([verb, *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"hetero2pipe {verb}: error: ")
        assert err.count("\n") == 1  # one line
        assert "Traceback" not in err
        assert "running" not in out  # rejected before any work ran

    def test_slo_window_too_narrow_for_the_run_is_a_usage_error(self, capsys):
        # A finite, positive --window-ms passes the input checks; at 1e-9
        # ms the ~67 ms run would close ~7e10 empty windows, which used
        # to spin in the timeline fold.  The alarm turns a wedge into a
        # failure.
        def wedged(signum, frame):
            raise TimeoutError("slo did not return within 30 s")

        previous = signal.signal(signal.SIGALRM, wedged)
        signal.alarm(30)
        try:
            code = main(
                ["slo", "--models", "resnet50", "--window-ms", "1e-9", "--repeat", "1"]
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith("hetero2pipe slo: error: --window-ms ")
        assert err.count("\n") == 1  # one line
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "verb,arrivals",
        [
            ("slo", "periodic"),
            ("slo", "poisson"),
            ("blame", "periodic"),
            ("blame", "poisson"),
            ("stats", "poisson"),
        ],
    )
    def test_arrivals_past_the_float_range_are_a_usage_error(
        self, capsys, verb, arrivals
    ):
        # 1e308 ms is a finite, positive interval, but the third periodic
        # request (and likely the first Poisson one) arrives at inf ms,
        # which the engine used to reject with a traceback.
        flags = ["--arrivals", arrivals, "--interval-ms", "1e308", "--repeat", "3"]
        assert main([verb, "--models", "resnet50", *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"hetero2pipe {verb}: error: --interval-ms 1e+308 ")
        assert err.count("\n") == 1  # one line
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "verb,flag", [("stats", "--repeat=--"), ("accuracy", "--perturb=--")]
    )
    def test_dashdash_flag_value_is_a_usage_error(self, capsys, verb, flag):
        # Shrunk failures of tests/test_cli_fuzz.py.  argparse before
        # CPython 3.13 hands "--flag=--" on as an empty list (this used
        # to crash with a TypeError); 3.13 rejects it itself.
        try:
            code = main([verb, *MODELS, flag])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert f"hetero2pipe {verb}: error: " in capsys.readouterr().err


class TestCliExtensions:
    def test_plan_with_gantt_and_energy(self, capsys):
        code = main(
            ["plan", "--models", "vit,resnet50", "--gantt", "--energy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "mJ" in out

    def test_plan_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(["plan", "--models", "vit", "--trace", str(trace)])
        assert code == 0
        import json

        assert json.loads(trace.read_text())["traceEvents"]

    def test_stream_command(self, capsys):
        code = main(
            [
                "stream",
                "--models",
                "squeezenet,squeezenet,resnet50",
                "--window",
                "2",
                "--interval",
                "25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "windows" in out
        assert "mean request latency" in out

    def test_stream_coalesce(self, capsys):
        code = main(
            [
                "stream",
                "--models",
                "mobilenetv2,mobilenetv2,mobilenetv2",
                "--coalesce",
            ]
        )
        assert code == 0

    def test_stream_empty_models(self, capsys):
        assert main(["stream", "--models", " "]) == 2

    def test_export_model(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        assert main(["export-model", "bert", str(path)]) == 0
        from repro.models.serialization import load_model

        assert load_model(str(path)).name == "bert"

    def test_export_unknown_model(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        assert main(["export-model", "nope", str(path)]) == 2

    def test_stats_poisson_open_loop_json(self, capsys):
        code = main(
            [
                "stats",
                "--models",
                "squeezenet,mobilenetv2,squeezenet",
                "--arrivals",
                "poisson",
                "--interval-ms",
                "5",
                "--arrival-seed",
                "2",
                "--deadline-ms",
                "60",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hetero2pipe.stats.v1"
        queueing = doc["queueing"]
        assert queueing["arrival_process"] == "poisson"
        assert len(queueing["queueing_delay_ms"]) == 3
        assert all(
            d is None or d >= 0.0 for d in queueing["queueing_delay_ms"]
        )
        assert queueing["deadline_drops"] == len(
            queueing["dropped_requests"]
        )
        assert (
            queueing["completed_requests"] + queueing["deadline_drops"] == 3
        )
        assert queueing["mean_queueing_delay_ms"] >= 0.0

    def test_stats_closed_loop_default_json(self, capsys):
        code = main(["stats", "--models", "squeezenet,vit", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["queueing"]["arrival_process"] == "closed"
        assert doc["queueing"]["deadline_drops"] == 0
        assert doc["queueing"]["queueing_delay_ms"][0] == pytest.approx(0.0)
        assert doc["latency"]["mean_ms"] > 0.0

    def test_stats_human_output_mentions_queueing(self, capsys):
        code = main(
            [
                "stats",
                "--models",
                "squeezenet,squeezenet",
                "--arrivals",
                "periodic",
                "--interval-ms",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queueing: periodic arrivals" in out

    def test_calibrate_command(self, capsys, tmp_path):
        import json

        targets = tmp_path / "targets.json"
        targets.write_text(
            json.dumps(
                [
                    {
                        "model": "resnet50",
                        "processor": "cpu_big",
                        "latency_ms": 55.0,
                    }
                ]
            )
        )
        assert main(["calibrate", "--targets", str(targets)]) == 0
        out = capsys.readouterr().out
        assert "throughput scale" in out

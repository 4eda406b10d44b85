"""Randomized checking of the analysis verbs' input grammar.

Hypothesis builds ``slo``, ``blame``, ``stats`` and ``accuracy``
argument lists whose values include ``nan``, ``inf``, ``-0``, ``1e400``
and garbage tokens, and checks that ``_resolve_inputs`` either rejects
them the way ``main`` turns into a one-line exit-2 error (argparse's
``SystemExit(2)``, or ``ValueError`` / ``KeyError``) or leaves only
finite, in-range values behind.  ``calibrate --targets`` files get the
same treatment, as named bad files and as generated entries.  Every
output path (``--out``, ``--jsonl``, ``--trace``, ``--speedscope``,
``--collapsed``, ``export-model PATH``, ``--baseline`` under
``--update-baseline``) that is empty, a directory, or in a missing or
read-only directory fails the same way before any handler runs.

Every ``slo``, ``blame`` and ``stats`` argument list that
``_resolve_inputs`` accepts on a one- or two-model mix, with values up
to the float range's edges, also runs through ``main`` under an alarm:
it must finish with exit 0, or exit 2 and one ``error:`` line, and do
bounded work.

A shrunk failure becomes a named case of the usage-error tests in
``tests/test_queueing_cli.py`` (``TestCli``).
"""

import contextlib
import io
import json
import math
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import _resolve_inputs, build_parser, main

SPECIAL_NUMBERS = (
    "nan", "NaN", "inf", "-inf", "Infinity", "-0", "0", "1e400", "-1e400",
    "1e-400", "", " ", "x", "1,5", "0x10", "--", "1.5.2", "١",
)

numbers = st.one_of(
    st.sampled_from(SPECIAL_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 400).map(str),
)
ints = st.one_of(st.sampled_from(SPECIAL_NUMBERS), st.integers(-3, 30).map(str))


def _joined(entry):
    return st.lists(entry, max_size=4).map(",".join)


class_entries = st.one_of(
    st.builds(
        lambda name, deadline, objective: f"{name}={deadline}" + objective,
        st.sampled_from(["*", "resnet50", "vit", "nosuch", ""]),
        numbers,
        st.one_of(st.just(""), numbers.map(lambda text: ":" + text)),
    ),
    st.sampled_from(SPECIAL_NUMBERS),
)
whatif_entries = st.one_of(
    st.sampled_from(["baseline", "no-contention", "unlimited-memory", "bogus"]),
    st.builds(
        lambda proc, factor: f"scale:{proc}:{factor}",
        st.sampled_from(["gpu", "cpu_big", "npu", "nope"]),
        numbers,
    ),
    ints.map(lambda text: f"drop:{text}"),
)

ARRIVAL_FLAGS = {
    "--arrivals": st.sampled_from(["closed", "periodic", "poisson", "bursty"]),
    "--interval-ms": numbers,
    "--deadline-ms": numbers,
}
VERB_FLAGS = {
    "stats": {**ARRIVAL_FLAGS, "--repeat": ints},
    "blame": {**ARRIVAL_FLAGS, "--repeat": ints, "--whatif": _joined(whatif_entries)},
    "slo": {
        **ARRIVAL_FLAGS,
        "--classes": _joined(class_entries),
        "--burn-windows": st.builds(lambda a, b: f"{a},{b}", ints, ints),
        "--burn-threshold": numbers,
        "--window-ms": numbers,
    },
    "accuracy": {
        "--perturb": numbers,
        "--perturb-processor": st.sampled_from(["gpu", "cpu_big", "nope"]),
    },
}


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    flags = VERB_FLAGS[verb]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    argv = [verb, "--soc", "kirin990", "--models", "resnet50,vit"]
    argv += [f"{flag}={draw(flags[flag])}" for flag in chosen]
    return argv


def _finite(x, low=0.0, strict=False):
    ok = math.isfinite(x) and (x > low if strict else x >= low)
    assert ok, x


def assert_resolved_in_range(args):
    """Every number the handlers will use is finite and in range."""
    if getattr(args, "deadline_ms", None) is not None:
        _finite(args.deadline_ms)
    process = getattr(args, "arrival_process", None)
    if process is not None:
        times = process.times_ms(16)
        for t in times:
            _finite(t)
        assert times == sorted(times)
    if hasattr(args, "class_specs"):
        _finite(args.window_ms, strict=True)
        _finite(args.burn_threshold, strict=True)
        fast, slow = args.burn
        assert 1 <= fast <= slow
        for spec in args.class_specs.values():
            _finite(spec.deadline_ms, strict=True)
            assert 0.0 < spec.objective_frac < 1.0
    for whatif in getattr(args, "whatifs", ()):
        if whatif.factor is not None:
            _finite(whatif.factor, strict=True)
    for factor in getattr(args, "perturbation", {}).values():
        _finite(factor, strict=True)


@settings(max_examples=400, deadline=None)
@given(argv=argvs())
def test_grammar_rejects_cleanly_or_resolves_in_range(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    try:
        _resolve_inputs(args)
    except (ValueError, KeyError):
        return
    assert_resolved_in_range(args)



#: Numbers an accepted flag may still take, out to the float range's
#: edges: the inputs that make a run's work or its clock blow up.
EXTREME_NUMBERS = (
    "0", "-0", "5e-324", "1e-300", "1e-9", "0.5", "1", "30", "1e6", "1e100",
    "1e300", "1e308", "1.7976931348623157e308",
)
extremes = st.one_of(
    st.sampled_from(EXTREME_NUMBERS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
)
small_ints = st.integers(0, 5).map(str)

RUN_ARRIVAL_FLAGS = {
    "--arrivals": st.sampled_from(["closed", "periodic", "poisson"]),
    "--interval-ms": extremes,
    "--arrival-seed": small_ints,
    "--deadline-ms": extremes,
    "--repeat": st.integers(1, 3).map(str),
}
RUN_FLAGS = {
    "stats": RUN_ARRIVAL_FLAGS,
    "blame": {
        **RUN_ARRIVAL_FLAGS,
        "--whatif": _joined(
            st.one_of(
                st.sampled_from(["no-contention", "unlimited-memory"]),
                extremes.map(lambda factor: f"scale:gpu:{factor}"),
                small_ints.map(lambda request: f"drop:{request}"),
            )
        ),
    },
    "slo": {
        **RUN_ARRIVAL_FLAGS,
        "--classes": _joined(
            st.builds(
                lambda name, deadline, objective: f"{name}={deadline}:{objective}",
                st.sampled_from(["*", "resnet50", "squeezenet"]),
                extremes,
                st.sampled_from(["0.5", "0.9", "0.999999", "1e-300"]),
            )
        ),
        "--burn-windows": st.builds(
            lambda a, b: f"{a},{b}", st.integers(1, 3), st.integers(1, 6)
        ),
        "--burn-threshold": extremes,
        "--window-ms": extremes,
    },
}


@st.composite
def runnable_argvs(draw):
    verb = draw(st.sampled_from(sorted(RUN_FLAGS)))
    flags = RUN_FLAGS[verb]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    models = draw(
        st.lists(
            st.sampled_from(["resnet50", "squeezenet", "vit"]),
            min_size=1,
            max_size=2,
        )
    )
    argv = [verb, "--models", ",".join(models)]
    argv += [f"{flag}={draw(flags[flag])}" for flag in chosen]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _accepted(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            _resolve_inputs(build_parser().parse_args(argv))
        except (SystemExit, ValueError, KeyError):
            return False
    return True


#: Seconds one accepted run may take; each runs in well under one.
RUN_BUDGET_S = 30


@settings(max_examples=100, deadline=None)
@given(argv=runnable_argvs())
@example(
    argv=[
        "slo", "--models", "resnet50", "--arrivals=periodic",
        "--interval-ms=1e308", "--repeat=3",
    ]
)
@example(
    argv=[
        "blame", "--models", "resnet50", "--arrivals=poisson",
        "--interval-ms=1e308", "--repeat=3",
    ]
)
@example(argv=["blame", "--models", "resnet50,vit", "--whatif=scale:gpu:5e-324"])
@example(argv=["stats", "--models", "resnet50", "--deadline-ms=5e-324", "--json"])
def test_accepted_argv_does_bounded_work(argv):
    """An accepted input runs to exit 0, or exit 2 with one ``error:``
    line, within the budget: never a traceback or a wedge."""
    if not _accepted(argv):
        return

    def wedged(signum, frame):
        raise TimeoutError(f"{argv} did not return within {RUN_BUDGET_S} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, wedged)
    signal.alarm(RUN_BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if code == 0:
        return
    assert code == 2, (argv, err.getvalue())
    (line,) = err.getvalue().splitlines()
    assert line.startswith(f"hetero2pipe {argv[0]}: error: ")


GOOD_TARGET = {"model": "resnet50", "processor": "gpu", "latency_ms": 20.0}

BAD_TARGET_FILES = {
    "missing": None,
    "not_json": "{x",
    "empty_object": "{}",
    "empty_list": "[]",
    "not_an_object": "[5]",
    "missing_key": json.dumps([{"model": "resnet50", "processor": "gpu"}]),
    "unknown_model": json.dumps([{**GOOD_TARGET, "model": "nosuch"}]),
    "unknown_processor": json.dumps([{**GOOD_TARGET, "processor": "tpu"}]),
    "infeasible": json.dumps([{**GOOD_TARGET, "model": "bert", "processor": "npu"}]),
    "nan_latency": '[{"model": "resnet50", "processor": "gpu", "latency_ms": NaN}]',
    "inf_latency": '[{"model": "resnet50", "processor": "gpu", "latency_ms": Infinity}]',
    "zero_latency": json.dumps([{**GOOD_TARGET, "latency_ms": 0}]),
    "text_latency": json.dumps([{**GOOD_TARGET, "latency_ms": "x"}]),
    "null_latency": json.dumps([{**GOOD_TARGET, "latency_ms": None}]),
}


@pytest.mark.parametrize("case", sorted(BAD_TARGET_FILES))
def test_calibrate_rejects_bad_targets_file(case, tmp_path, capsys):
    path = tmp_path / "targets.json"
    text = BAD_TARGET_FILES[case]
    if text is not None:
        path.write_text(text)
    assert main(["calibrate", "--targets", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("hetero2pipe calibrate: error: ")


target_entries = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["resnet50", "bert", "vit", "nosuch"]),
        "processor": st.sampled_from(["gpu", "npu", "cpu_big", "tpu"]),
        "latency_ms": st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(["x", None, "5"]),
        ),
    }
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(entries=st.lists(target_entries, max_size=3))
def test_targets_reject_cleanly_or_resolve_in_range(entries, tmp_path):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps(entries))
    args = build_parser().parse_args(["calibrate", "--targets", str(path)])
    try:
        _resolve_inputs(args)
    except (ValueError, KeyError):
        return
    assert len(args.calibration_targets) == len(entries) > 0
    for target in args.calibration_targets:
        _finite(target.latency_ms, strict=True)


#: Every verb and flag that names a file the verb writes; ``None`` is
#: ``export-model``'s positional path.
OUTPUT_FLAGS = [
    ("plan", "--trace"),
    ("trace", "--out"),
    ("slo", "--jsonl"),
    ("slo", "--trace"),
    ("accuracy", "--jsonl"),
    ("accuracy", "--trace"),
    ("drift", "--jsonl"),
    ("blame", "--jsonl"),
    ("blame", "--trace"),
    ("profile", "--speedscope"),
    ("profile", "--collapsed"),
    ("profile", "--trace"),
    ("bench", "--out"),
    ("bench", "--baseline"),
    ("export-model", None),
]


@pytest.mark.parametrize("where", ["missing_dir", "directory", "empty", "read_only"])
@pytest.mark.parametrize(
    "verb,flag", OUTPUT_FLAGS, ids=lambda v: v if v else "PATH"
)
def test_unwritable_output_path_fails_before_work(
    verb, flag, where, tmp_path, capsys, monkeypatch
):
    """One ``error:`` line and exit 2, and the verb's handler never runs."""
    import repro.cli as cli

    def no_work(args):
        raise AssertionError(f"{verb} ran with an unwritable output path")

    monkeypatch.setattr(cli, "_HANDLERS", {verb: no_work})
    if where == "read_only":  # root may write anywhere, so fake the mode
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    path = {
        "missing_dir": str(tmp_path / "missing" / "out.json"),
        "directory": str(tmp_path),
        "empty": "",
        "read_only": str(tmp_path / "out.json"),
    }[where]
    if verb == "export-model":
        argv = [verb, "resnet50", path]
    elif verb == "bench":
        argv = [verb, f"{flag}={path}"]
        if flag == "--baseline":  # written only when updating
            argv.append("--update-baseline")
    else:
        argv = [verb, "--models", "resnet50,vit", f"{flag}={path}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"hetero2pipe {verb}: error: ")
    assert not (tmp_path / "missing").exists()

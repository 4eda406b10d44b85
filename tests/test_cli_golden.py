"""Pinned output of the analysis verbs, byte for byte.

``tests/golden/cli_verbs.json`` holds, for a fixed list of in-process
``main()`` calls spread over the three SoCs, each call's exit code,
stdout, stderr and the contents of any ``--jsonl`` file it wrote.  The
test replays the calls and compares the bytes exactly, so a change to
how a verb plans or simulates that is meant to leave its output alone
must keep this file unchanged.

Paths under the per-call scratch directory are written as ``$TMP`` so
the pinned text does not depend on where the test runs.  ``profile``
output and trace-file contents hold wall-clock values, so they stay
with their own tests.

Regenerate only when a change is meant to move a verb's output::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_verbs.json"

#: (id, argv); ``{tmp}`` is replaced with the call's scratch directory.
CALLS = (
    (
        "plan_gantt_energy",
        ["plan", "--soc", "kirin990", "--models", "vit,resnet50", "--gantt", "--energy"],
    ),
    (
        "plan_no_ct",
        ["plan", "--soc", "snapdragon870", "--models", "squeezenet,googlenet", "--no-ct"],
    ),
    (
        "trace_json",
        ["trace", "--soc", "snapdragon778g", "--models", "resnet50,yolov4",
         "--out", "{tmp}/trace.json", "--json"],
    ),
    (
        "trace_text",
        ["trace", "--soc", "kirin990", "--models", "vit,resnet50",
         "--out", "{tmp}/trace.json", "--no-ct"],
    ),
    ("stats_text", ["stats", "--soc", "kirin990", "--models", "vit,resnet50"]),
    (
        "stats_json_repeat_poisson",
        ["stats", "--soc", "snapdragon870", "--models", "alexnet,resnet50,squeezenet",
         "--json", "--repeat", "2", "--arrivals", "poisson"],
    ),
    (
        "stats_periodic_deadline",
        ["stats", "--soc", "snapdragon778g", "--models", "vit,resnet50,yolov4",
         "--arrivals", "periodic", "--interval-ms", "20", "--deadline-ms", "50"],
    ),
    (
        "slo_json_follow_jsonl",
        ["slo", "--soc", "kirin990", "--models", "resnet50,squeezenet",
         "--json", "--follow", "--jsonl", "{tmp}/slo.jsonl"],
    ),
    (
        "slo_classes_follow_deadline",
        ["slo", "--soc", "snapdragon870", "--models", "resnet50,vit",
         "--classes", "resnet50=80:0.99,*=120", "--follow", "--deadline-ms", "300"],
    ),
    ("slo_text", ["slo", "--soc", "snapdragon778g", "--models", "alexnet,googlenet"]),
    (
        "blame_whatif_json_jsonl",
        ["blame", "--soc", "kirin990", "--models", "vit,resnet50",
         "--whatif", "scale:gpu:2,no-contention", "--json", "--jsonl", "{tmp}/blame.jsonl"],
    ),
    (
        "blame_repeat_poisson_whatif",
        ["blame", "--soc", "snapdragon778g", "--models", "squeezenet,resnet50",
         "--repeat", "3", "--arrivals", "poisson", "--whatif", "unlimited-memory,drop:1"],
    ),
    (
        "accuracy_perturb_json_jsonl",
        ["accuracy", "--soc", "snapdragon870", "--models", "vit,resnet50",
         "--perturb", "1.3", "--json", "--jsonl", "{tmp}/accuracy.jsonl"],
    ),
    ("accuracy_plain", ["accuracy", "--soc", "kirin990", "--models", "alexnet,yolov4"]),
    (
        "drift_perturb_json",
        ["drift", "--soc", "kirin990", "--models", "vit,resnet50,squeezenet",
         "--perturb", "1.4", "--json"],
    ),
    (
        "stream",
        ["stream", "--soc", "snapdragon870", "--models", "squeezenet,squeezenet,resnet50",
         "--window", "2", "--interval", "25"],
    ),
)


def run_call(argv):
    """One in-process ``main()`` call as plain JSON values."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {
            path.name: path.read_text(encoding="utf-8").replace(tmp, "$TMP")
            for path in sorted(Path(tmp).glob("*.jsonl"))
        }
        return {
            "exit_code": code,
            "stdout": out.getvalue().replace(tmp, "$TMP"),
            "stderr": err.getvalue().replace(tmp, "$TMP"),
            "files": files,
        }


def build_outputs():
    return {call_id: run_call(argv) for call_id, argv in CALLS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_exactly_the_calls(golden):
    assert sorted(golden) == sorted(call_id for call_id, _ in CALLS)


@pytest.mark.parametrize("call_id,argv", CALLS, ids=[c for c, _ in CALLS])
def test_verb_output_matches_golden(golden, call_id, argv):
    actual = run_call(argv)
    expected = golden[call_id]
    for key in ("exit_code", "stderr", "files", "stdout"):
        assert actual[key] == expected[key], f"{call_id}: {key} differs"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(build_outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")

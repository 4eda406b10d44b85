"""The end-to-end benchmark: one command, every metric with its unit.

    python3 benchmarks/e2e/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --out benchmarks/e2e/results/run.json

Run from any directory; the repository root is found from this file.
Each workload runs in its own fresh subprocess (``worker.py``), one at
a time, with OpenMP/OpenBLAS/MKL limited to one thread and a fixed hash
seed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass (and writes a Chrome trace per
workload to ``--trace-dir``).  Without ``--workload`` all four
workloads run in turn.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the
workloads ran (``correct`` says whether their outputs passed the
checks) and non-zero, with no result printed, when they could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("cold_mix", "warm_stream", "open_loop_slo", "drift_stream")
#: Seconds one workload subprocess may take before it is killed.
WORKER_TIMEOUT_S = 170


def environment() -> Dict[str, object]:
    """Host facts a reader needs to judge the absolute numbers."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload in a fresh subprocess and return its document.

    Raises:
        RuntimeError: when the subprocess fails or prints no result.
    """
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    if smoke:
        cmd.append("--smoke")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload {name} exited with {proc.returncode}:\n{proc.stderr}"
        )
    doc = json.loads(lines[-1])
    doc["environment"] = environment()
    return doc


def render(doc: Dict[str, object]) -> str:
    """A readable block: one metric per line with its unit."""
    lines = [
        f"{doc['workload']} (seed {doc['seed']}, trace {doc['trace']}): "
        f"{doc['attempted']} attempted, {doc['failed']} failed"
    ]
    for name, metric in doc["metrics"].items():  # type: ignore[union-attr]
        lines.append(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in doc["failures"]:  # type: ignore[union-attr]
        lines.append(f"  FAILED: {failure.splitlines()[0]}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Hetero2Pipe end-to-end benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs for the self-test"
    )
    parser.add_argument("--trace-dir", type=Path, default=HERE / "traces")
    parser.add_argument("--out", type=Path, help="write the result document here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    docs = []
    for name in names:
        try:
            doc = run_workload(
                name,
                args.seed,
                seconds,
                bool(args.trace),
                args.smoke,
                args.trace_dir if args.trace else None,
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
        print(render(doc), flush=True)
        docs.append(doc)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment(), "runs": docs}, fh, indent=1
            )
            fh.write("\n")

    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {
            f"{doc['workload']}.{name}": value
            for doc in docs
            for name, value in doc["metrics"].items()  # type: ignore[union-attr]
        }
    failed = sum(int(doc["failed"]) for doc in docs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(int(doc["attempted"]) for doc in docs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

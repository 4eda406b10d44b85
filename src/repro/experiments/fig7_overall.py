"""Fig. 7: overall latency/throughput comparison on three SoCs.

Runs random multi-DNN combinations through every scheme — vanilla MNN
(serial CPU Big), Pipe-it (Big/Small CPU pipeline), Band (greedy
NPU-fallback mapping), Hetero2Pipe without contention mitigation / tail
optimization ("No C/T"), and full Hetero2Pipe — on the same simulator,
and aggregates latency, throughput and relative speedups.  The final
section extracts the Band-vs-Hetero2Pipe solution scatter of the
rightmost subplots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..hardware.soc import SOC_NAMES, get_soc
from ..runtime.metrics import ComparisonMatrix, compare_schemes, standard_schemes
from ..workloads.generator import sample_combinations
from .common import format_table

#: The scheme line-up of :func:`~repro.runtime.metrics.standard_schemes`.
SCHEMES = ("mnn", "pipe_it", "band", "h2p_no_ct", "h2p")


@dataclass
class SocSummary:
    """Aggregates for one platform (one column group of Fig. 7)."""

    soc_name: str
    matrix: ComparisonMatrix

    def mean_latency_ms(self, scheme: str) -> float:
        return self.matrix.mean_latency_ms(scheme)

    def mean_throughput(self, scheme: str) -> float:
        return self.matrix.mean_throughput(scheme)

    def speedup_over(self, scheme: str) -> Tuple[float, float, float]:
        """(geomean, max, min) speedup of full H2P over one scheme."""
        return self.matrix.speedup_summary(scheme, "h2p")

    def band_scatter(self, fraction: float = 0.3) -> List[Tuple[float, float]]:
        """(band, h2p) latency pairs for a deterministic subset."""
        step = max(1, int(round(1.0 / fraction)))
        latency = self.matrix.latency_ms
        return list(zip(latency["band"], latency["h2p"]))[::step]


def run(
    soc_names: Sequence[str] = SOC_NAMES,
    num_combinations: int = 100,
) -> List[SocSummary]:
    """Run the full Fig. 7 sweep over workloads sampled with seed 2025.

    Args:
        soc_names: Platforms to evaluate (default: all three).
        num_combinations: Random combinations per platform (paper: 100).
    """
    specs = sample_combinations(count=num_combinations, seed=2025)
    workloads = [spec.models() for spec in specs]
    return [
        SocSummary(
            soc_name=soc_name,
            matrix=compare_schemes(standard_schemes(get_soc(soc_name)), workloads),
        )
        for soc_name in soc_names
    ]


def render(summaries: List[SocSummary]) -> str:
    sections: List[str] = []
    for summary in summaries:
        headers = ["scheme", "mean_latency_ms", "mean_throughput_/s"]
        body = [
            [s, summary.mean_latency_ms(s), summary.mean_throughput(s)]
            for s in SCHEMES
        ]
        table = format_table(headers, body)
        speed_lines = []
        for scheme in ("mnn", "pipe_it", "band", "h2p_no_ct"):
            gm, hi, lo = summary.speedup_over(scheme)
            speed_lines.append(
                f"  H2P speedup vs {scheme}: {gm:.2f}x geomean "
                f"(max {hi:.2f}x, min {lo:.2f}x)"
            )
        sections.append(
            f"=== {summary.soc_name} ===\n{table}\n" + "\n".join(speed_lines)
        )
    return "\n\n".join(sections)


def render_charts(summaries: List[SocSummary]) -> str:
    """Fig. 7's latency bars plus the Band-vs-H2P scatter."""
    from ..analysis.charts import grouped_bar_chart, scatter_plot

    groups = [
        (
            summary.soc_name,
            [(scheme, summary.mean_latency_ms(scheme)) for scheme in SCHEMES],
        )
        for summary in summaries
    ]
    text = grouped_bar_chart(groups, width=40, unit=" ms")
    scatter = summaries[0].band_scatter(fraction=0.3)
    if len(scatter) >= 2:
        text += (
            f"\n\nBand (x) vs Hetero2Pipe (y) latency scatter on "
            f"{summaries[0].soc_name}:\n"
            + scatter_plot(
                scatter, width=46, height=12,
                x_label="band ms", y_label="h2p ms",
            )
        )
    return text


def main() -> str:
    summaries = run(num_combinations=30)
    return render(summaries) + "\n\n" + render_charts(summaries)


if __name__ == "__main__":
    print(main())

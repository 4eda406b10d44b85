"""Fig. 12: empirical linearity between bubble size and overall latency.

The paper enumerates candidate pipeline plans for two fixed workloads —
(a) a five-network pipeline on three processors (ViT, AlexNet, YOLOv4,
BERT, MobileNetV2 on CPU Big / GPU / CPU Small) and (b) a three-network
pipeline (InceptionV4, ResNet50, SqueezeNet on NPU / CPU Big / GPU) —
and plots each plan's total bubble size against its overall latency.
The relation is close to linear (Property 1), which is what licenses
minimizing bubbles as a proxy for minimizing latency.

We regenerate the scatter by sampling plans that do the *same work*
with different stage alignment (boundary-cut perturbations of the DP
partitions), measuring each plan's Eq. 3 bubble total and its
synchronized pipeline makespan — the execution model Definition 3 is
stated in — and fitting a straight line.  The asynchronous executor's
makespan is also recorded per point: relaxing stage lockstep (our
simulator's behaviour, unlike the paper's stage-synchronous MNN
runtime) lets later requests overtake bubbles, which weakens the raw
async relation; the synchronous one reproduces Property 1's linearity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..analysis.stats import LinearFit, linear_fit
from ..core.partition import partition_model
from ..core.plan import PipelinePlan, StageAssignment
from ..core.stealing import move_boundary_layer
from ..hardware.soc import SocSpec, get_soc
from ..models.zoo import get_model
from ..profiling.profiler import SocProfiler
from ..runtime.executor import execute_plan
from ..runtime.schedule import plan_bubbles_ms, plan_makespan_ms
from .common import format_table

#: Fig. 12(a): five networks on CPU Big / GPU / CPU Small.
CONFIG_A = ("vit", "alexnet", "yolov4", "bert", "mobilenetv2")
CONFIG_A_PROCS = ("cpu_big", "gpu", "cpu_small")
#: Fig. 12(b): three networks on NPU / CPU Big / GPU.
CONFIG_B = ("inceptionv4", "resnet50", "squeezenet")
CONFIG_B_PROCS = ("npu", "cpu_big", "gpu")


@dataclass(frozen=True)
class BubblePoint:
    """One sampled plan."""

    bubble_ms: float
    latency_ms: float
    async_latency_ms: float = 0.0


@dataclass(frozen=True)
class BubbleLatencyResult:
    """Scatter plus linear fit for one configuration."""

    label: str
    points: Tuple[BubblePoint, ...]
    fit: LinearFit


def _sample_plans(
    soc: SocSpec,
    model_names: Sequence[str],
    proc_names: Sequence[str],
    num_plans: int,
    seed: int,
) -> List[PipelinePlan]:
    """Deterministically sample distinct feasible plans."""
    profiler = SocProfiler(soc)
    processors = tuple(soc.processor(n) for n in proc_names)
    rng = np.random.default_rng(seed)
    base = [
        StageAssignment(
            profile=profiler.profile(get_model(n)),
            slices=list(
                partition_model(profiler.profile(get_model(n)), processors).slices
            ),
        )
        for n in model_names
    ]
    plans: List[PipelinePlan] = []
    for _ in range(num_plans):
        plan = PipelinePlan(
            soc=soc,
            processors=processors,
            assignments=[a.copy() for a in base],
        )
        # Perturb with boundary shifts only.  Property 1 relates bubbles
        # to latency across plans doing the *same work* with different
        # stage alignment; whole-request re-placements change the total
        # effective work (fast vs slow silicon) and sit outside the
        # relation — as do the degenerate everything-on-the-slowest-core
        # plans they produce (near-zero overlap, giant latency).
        for i in range(plan.num_requests):
            for _ in range(int(rng.integers(0, 9))):
                s = int(rng.integers(0, plan.depth - 1))
                frm, to = (s, s + 1) if rng.random() < 0.5 else (s + 1, s)
                move_boundary_layer(plan.assignments[i], frm, to, processors)
        plans.append(plan)
    return plans


def run(num_plans: int = 60) -> List[BubbleLatencyResult]:
    """Regenerate both Fig. 12 scatters on Kirin 990 (plans sampled with
    seed 11)."""
    soc = get_soc("kirin990")
    results: List[BubbleLatencyResult] = []
    for label, names, procs in (
        ("five_network", CONFIG_A, CONFIG_A_PROCS),
        ("three_network", CONFIG_B, CONFIG_B_PROCS),
    ):
        points: List[BubblePoint] = []
        for plan in _sample_plans(soc, names, procs, num_plans, seed=11):
            result = execute_plan(plan, enforce_memory=False)
            points.append(
                BubblePoint(
                    bubble_ms=plan_bubbles_ms(plan),
                    latency_ms=plan_makespan_ms(plan),
                    async_latency_ms=result.makespan_ms,
                )
            )
        fit = linear_fit(
            [p.bubble_ms for p in points], [p.latency_ms for p in points]
        )
        results.append(
            BubbleLatencyResult(label=label, points=tuple(points), fit=fit)
        )
    return results


def render(results: Sequence[BubbleLatencyResult]) -> str:
    headers = ["configuration", "points", "slope", "intercept_ms", "r_squared"]
    body = [
        [
            r.label,
            len(r.points),
            round(r.fit.slope, 3),
            r.fit.intercept,
            round(r.fit.r_squared, 3),
        ]
        for r in results
    ]
    return format_table(headers, body)


def render_scatter(results: Sequence[BubbleLatencyResult]) -> str:
    """The Fig. 12 scatter panels in terminal form."""
    from ..analysis.charts import scatter_plot

    panels = []
    for result in results:
        panels.append(
            f"[{result.label}] latency vs bubble "
            f"(slope {result.fit.slope:.2f}, R^2 {result.fit.r_squared:.2f})\n"
            + scatter_plot(
                [(p.bubble_ms, p.latency_ms) for p in result.points],
                width=50,
                height=12,
                x_label="bubble ms",
                y_label="latency ms",
            )
        )
    return "\n\n".join(panels)


def main() -> str:
    results = run()
    return render(results) + "\n\n" + render_scatter(results)


if __name__ == "__main__":
    print(main())

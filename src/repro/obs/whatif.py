"""What-if counterfactuals: differential re-simulation of a chain set.

Blame (:mod:`repro.obs.blame`) tells the operator *where* a run's time
went; this module answers the follow-up — *what single change would buy
the most back?* — by re-running the discrete-event engine under a named
intervention and reporting the makespan / latency-percentile deltas:

* ``baseline`` — the empty intervention.  The engine is deterministic
  and writes to no task, so the baseline counterfactual of the chain
  set a run executed reproduces that run *float-exactly*: the two
  results compare equal field for field, as
  ``tests/test_executor_properties.py`` checks on random chains.
* ``scale:<proc>:<factor>`` — scale a processor's throughput (every
  slice bound to it runs ``factor``× faster; memory traffic and the
  contention workload are unchanged — the intervention models a faster
  clock, not a different kernel).
* ``no-contention`` — disable Eq. 1 co-execution slowdown.
* ``unlimited-memory`` — lift Constraint 6 residency enforcement.
* ``drop:<request>`` — remove one co-runner's chain (and arrival)
  entirely; deltas are reported for the surviving requests.

Unlike the rest of ``repro.obs`` (data-only leaves), this module
*drives* ``repro.runtime`` — it carries an explicit H2P201 layering
override (like :mod:`repro.obs.bench`) and is deliberately **not**
re-exported from ``repro.obs``; import it as ``repro.obs.whatif``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.soc import SocSpec
from ..runtime.engine import ChainTask, ExecutionResult
from ..runtime.executor import simulate_chains

#: Intervention kinds (``WhatIf.kind``).
BASELINE = "baseline"
SCALE_PROCESSOR = "scale_processor"
NO_CONTENTION = "no_contention"
UNLIMITED_MEMORY = "unlimited_memory"
DROP_REQUEST = "drop_request"


@dataclass(frozen=True)
class WhatIf:
    """One named intervention (see :func:`parse_whatif`)."""

    kind: str
    processor: Optional[str] = None
    factor: Optional[float] = None
    request: Optional[int] = None

    @property
    def label(self) -> str:
        if self.kind == SCALE_PROCESSOR:
            return f"scale:{self.processor}:{self.factor:g}"
        if self.kind == NO_CONTENTION:
            return "no-contention"
        if self.kind == UNLIMITED_MEMORY:
            return "unlimited-memory"
        if self.kind == DROP_REQUEST:
            return f"drop:{self.request}"
        return BASELINE


def parse_whatif(spec: str) -> WhatIf:
    """Parse one intervention spec string.

    Grammar: ``baseline`` | ``no-contention`` | ``unlimited-memory`` |
    ``scale:<processor>:<factor>`` | ``drop:<request>``.

    Raises:
        ValueError: on an unknown kind or malformed parameters.
    """
    spec = spec.strip()
    if spec == BASELINE:
        return WhatIf(kind=BASELINE)
    if spec == "no-contention":
        return WhatIf(kind=NO_CONTENTION)
    if spec == "unlimited-memory":
        return WhatIf(kind=UNLIMITED_MEMORY)
    if spec.startswith("scale:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"scale spec must be scale:<processor>:<factor>, got {spec!r}"
            )
        try:
            factor = float(parts[2])
        except ValueError:
            raise ValueError(f"bad scale factor in {spec!r}") from None
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"scale factor must be finite and > 0, got {factor}")
        return WhatIf(kind=SCALE_PROCESSOR, processor=parts[1], factor=factor)
    if spec.startswith("drop:"):
        try:
            request = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad request index in {spec!r}") from None
        if request < 0:
            raise ValueError(f"request index must be >= 0, got {request}")
        return WhatIf(kind=DROP_REQUEST, request=request)
    raise ValueError(
        f"unknown what-if spec {spec!r}: expected baseline, "
        "no-contention, unlimited-memory, scale:<proc>:<factor> "
        "or drop:<request>"
    )


def parse_whatifs(specs: str) -> List[WhatIf]:
    """Parse a comma-separated list of intervention specs."""
    return [parse_whatif(s) for s in specs.split(",") if s.strip()]


def run_counterfactual(
    soc: SocSpec,
    chains: Sequence[Sequence[ChainTask]],
    intervention: WhatIf,
    arrivals: Optional[Sequence[float]] = None,
    deadline_ms: Optional[object] = None,
) -> Tuple[ExecutionResult, Dict[int, int]]:
    """Re-simulate the chain set under one intervention.

    The run has contention and the memory gate on unless the
    intervention turns one off.  A run writes to no task, so ``chains``
    may be the very chain set the executed run used: the ``baseline``
    intervention reproduces that run float-exactly.

    Returns:
        ``(result, request_map)`` where ``request_map`` maps original
        request ids to their index in the counterfactual result (the
        identity map except under ``drop:<request>``).

    Raises:
        ValueError: on an unknown processor / out-of-range request in
            the intervention, and the engine's own input errors.
    """
    times = list(arrivals) if arrivals is not None else None
    deadlines = (
        list(deadline_ms)
        if isinstance(deadline_ms, (list, tuple))
        else deadline_ms
    )
    request_map = {i: i for i in range(len(chains))}
    with_contention = enforce_memory = True
    if intervention.kind == SCALE_PROCESSOR:
        names = {p.name for p in soc.processors}
        if intervention.processor not in names:
            raise ValueError(
                f"unknown processor {intervention.processor!r} on "
                f"SoC {soc.name!r}"
            )
        if intervention.factor is None or intervention.factor <= 0:
            raise ValueError(
                f"scale intervention needs a factor > 0, got "
                f"{intervention.factor}"
            )
        chains = [
            [
                task._replace(solo_ms=task.solo_ms / intervention.factor)
                if task.proc.name == intervention.processor
                else task
                for task in chain
            ]
            for chain in chains
        ]
    elif intervention.kind == NO_CONTENTION:
        with_contention = False
    elif intervention.kind == UNLIMITED_MEMORY:
        enforce_memory = False
    elif intervention.kind == DROP_REQUEST:
        victim = intervention.request
        if victim is None or not 0 <= victim < len(chains):
            raise ValueError(
                f"drop request {victim} out of range [0, {len(chains)})"
            )
        survivors = [i for i in range(len(chains)) if i != victim]
        request_map = {old: new for new, old in enumerate(survivors)}
        chains = [
            [task._replace(request=new) for task in chains[old]]
            for new, old in enumerate(survivors)
        ]
        if times is not None:
            times = [times[i] for i in survivors]
        if isinstance(deadlines, list):
            deadlines = [deadlines[i] for i in survivors]
    result = simulate_chains(
        soc,
        chains,
        arrivals=times,
        with_contention=with_contention,
        enforce_memory=enforce_memory,
        record=False,
        deadline_ms=deadlines,
        track_causality=True,
    )
    return result, request_map


@dataclass(frozen=True)
class WhatIfReport:
    """Deltas of one counterfactual vs the baseline run.

    Negative deltas mean the intervention made things faster.
    Percentile deltas are None when either run completed no requests.
    """

    intervention: str
    makespan_ms: float
    delta_makespan_ms: float
    delta_p50_ms: Optional[float]
    delta_p95_ms: Optional[float]
    delta_p99_ms: Optional[float]
    delta_mean_latency_ms: float
    completed: int
    delta_completed: int
    request_latency_deltas_ms: Dict[int, float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "intervention": self.intervention,
            "makespan_ms": self.makespan_ms,
            "delta_makespan_ms": self.delta_makespan_ms,
            "delta_p50_ms": self.delta_p50_ms,
            "delta_p95_ms": self.delta_p95_ms,
            "delta_p99_ms": self.delta_p99_ms,
            "delta_mean_latency_ms": self.delta_mean_latency_ms,
            "completed": self.completed,
            "delta_completed": self.delta_completed,
            "request_latency_deltas_ms": {
                str(k): v
                for k, v in sorted(self.request_latency_deltas_ms.items())
            },
        }


def _pct_delta(
    baseline: ExecutionResult, variant: ExecutionResult, pct: float
) -> Optional[float]:
    if baseline.num_completed == 0 or variant.num_completed == 0:
        return None
    return variant.latency_percentile_ms(pct) - baseline.latency_percentile_ms(
        pct
    )


def compare_runs(
    baseline: ExecutionResult,
    variant: ExecutionResult,
    intervention: WhatIf,
    request_map: Dict[int, int],
) -> WhatIfReport:
    """Build the delta report for one counterfactual run."""
    deltas: Dict[int, float] = {}
    variant_completed = set(variant.completed_requests())
    for old in baseline.completed_requests():
        new = request_map.get(old)
        if new is None or new not in variant_completed:
            continue
        deltas[old] = variant.request_latency_ms(
            new
        ) - baseline.request_latency_ms(old)
    return WhatIfReport(
        intervention=intervention.label,
        makespan_ms=variant.makespan_ms,
        delta_makespan_ms=variant.makespan_ms - baseline.makespan_ms,
        delta_p50_ms=_pct_delta(baseline, variant, 50.0),
        delta_p95_ms=_pct_delta(baseline, variant, 95.0),
        delta_p99_ms=_pct_delta(baseline, variant, 99.0),
        delta_mean_latency_ms=(
            variant.mean_latency_ms() - baseline.mean_latency_ms()
        ),
        completed=variant.num_completed,
        delta_completed=variant.num_completed - baseline.num_completed,
        request_latency_deltas_ms=deltas,
    )


def run_whatifs(
    soc: SocSpec,
    chains: Sequence[Sequence[ChainTask]],
    interventions: Sequence[WhatIf],
    arrivals: Optional[Sequence[float]] = None,
    deadline_ms: Optional[object] = None,
) -> Tuple[ExecutionResult, List[WhatIfReport]]:
    """Run the baseline plus each intervention; return delta reports."""
    baseline, _ = run_counterfactual(
        soc, chains, WhatIf(kind=BASELINE), arrivals=arrivals, deadline_ms=deadline_ms
    )
    reports = []
    for intervention in interventions:
        variant, request_map = run_counterfactual(
            soc, chains, intervention, arrivals=arrivals, deadline_ms=deadline_ms
        )
        reports.append(
            compare_runs(baseline, variant, intervention, request_map)
        )
    return baseline, reports

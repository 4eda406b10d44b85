"""Calibration of the latency model against measured device latencies.

The paper profiles real phones; anyone adapting this reproduction to a
new device will have a handful of measured whole-model latencies and
needs the simulated SoC to match them.  This module fits one
multiplicative throughput scale per processor (equivalently, scaling
``peak_gflops``) by minimizing squared log-error against the provided
measurements — log-error because latencies span orders of magnitude and
multiplicative fit quality is what matters for planning decisions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import SocSpec
from ..models.zoo import get_model
from .profiler import SocProfiler


@dataclass(frozen=True)
class CalibrationTarget:
    """One measured data point: a model's solo latency on a processor."""

    model_name: str
    processor_name: str
    latency_ms: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency_ms) and self.latency_ms > 0):
            raise ValueError(
                f"measured latency must be finite and positive, got "
                f"{self.latency_ms}"
            )


@dataclass(frozen=True)
class CalibrationReport:
    """Fit outcome: per-processor scales and before/after errors."""

    scales: Dict[str, float]
    rms_log_error_before: float
    rms_log_error_after: float

    @property
    def improved(self) -> bool:
        return self.rms_log_error_after <= self.rms_log_error_before + 1e-12


def _rms_log_error(pairs: Sequence[Tuple[float, float]]) -> float:
    if not pairs:
        return 0.0
    total = sum(math.log(pred / meas) ** 2 for pred, meas in pairs)
    return math.sqrt(total / len(pairs))


def _scaled_processor(proc: ProcessorSpec, scale: float) -> ProcessorSpec:
    return dataclasses.replace(proc, peak_gflops=proc.peak_gflops * scale)


def _predictions(
    soc: SocSpec, targets: Sequence[CalibrationTarget]
) -> List[Tuple[float, float]]:
    profiler = SocProfiler(soc)
    pairs = []
    for target in targets:
        profile = profiler.profile(get_model(target.model_name))
        proc = soc.processor(target.processor_name)
        predicted = profile.whole_model_ms(proc)
        if math.isinf(predicted):
            raise ValueError(
                f"{target.model_name!r} cannot run on "
                f"{target.processor_name!r}; bad calibration target"
            )
        pairs.append((predicted, target.latency_ms))
    return pairs


def _fit_scale(
    soc: SocSpec,
    proc_name: str,
    targets: Sequence[CalibrationTarget],
    lo: float = 0.2,
    hi: float = 5.0,
    iterations: int = 40,
) -> float:
    """Golden-section search for one processor's throughput scale."""
    relevant = [t for t in targets if t.processor_name == proc_name]
    if not relevant:
        return 1.0

    def error(scale: float) -> float:
        trial = dataclasses.replace(
            soc,
            processors=tuple(
                _scaled_processor(p, scale) if p.name == proc_name else p
                for p in soc.processors
            ),
        )
        return _rms_log_error(_predictions(trial, relevant))

    phi = (math.sqrt(5) - 1) / 2
    a, b = math.log(lo), math.log(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = error(math.exp(c)), error(math.exp(d))
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = error(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = error(math.exp(d))
    return math.exp((a + b) / 2)


def calibrate(
    soc: SocSpec, targets: Sequence[CalibrationTarget]
) -> Tuple[SocSpec, CalibrationReport]:
    """Fit per-processor throughput scales to measured latencies.

    Args:
        soc: The starting SoC spec.
        targets: Measured (model, processor, latency) triples; at least
            one per processor you want calibrated.

    Returns:
        ``(calibrated_soc, report)``.  Processors without targets keep
        their original throughput.

    Raises:
        ValueError: on empty targets or a target whose model cannot run
            on the named processor.
    """
    if not targets:
        raise ValueError("need at least one calibration target")
    before = _rms_log_error(_predictions(soc, targets))

    scales: Dict[str, float] = {}
    processors = []
    for proc in soc.processors:
        scale = _fit_scale(soc, proc.name, targets)
        scales[proc.name] = scale
        processors.append(_scaled_processor(proc, scale))
    calibrated = dataclasses.replace(soc, processors=tuple(processors))

    after = _rms_log_error(_predictions(calibrated, targets))
    return calibrated, CalibrationReport(
        scales=scales,
        rms_log_error_before=before,
        rms_log_error_after=after,
    )

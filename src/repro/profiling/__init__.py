"""Solo-execution profiling and co-execution slowdown modelling.

Naming note: this package is **hardware latency profiling** — the
paper's offline step (solo latencies, PMU features, co-execution
slowdowns of the *simulated SoC*).  The other "profiler" in this repo,
:mod:`repro.obs.prof`, is **software self-profiling** — where the
planner's *own wall time* goes (``hetero2pipe profile``).  See
``docs/ARCHITECTURE.md`` for the disambiguation.
"""

from .calibration import CalibrationReport, CalibrationTarget, calibrate
from .latency import (
    MAX_AMPLIFICATION,
    copy_latency_ms,
    layer_latency_ms,
    layer_traffic_bytes,
    traffic_amplification,
)
from .pmu import PerfCounters, ground_truth_intensity, measure_counters
from .profiler import INFEASIBLE, ModelProfile, SocProfiler
from .slowdown import (
    MAX_SLOWDOWN,
    REFERENCE_BANDWIDTH_GBPS,
    SliceWorkload,
    intra_cluster_slowdown,
    pairwise_slowdown_table,
    slowdown_fraction,
)

__all__ = [
    "CalibrationReport",
    "CalibrationTarget",
    "calibrate",
    "MAX_AMPLIFICATION",
    "copy_latency_ms",
    "layer_latency_ms",
    "layer_traffic_bytes",
    "traffic_amplification",
    "PerfCounters",
    "ground_truth_intensity",
    "measure_counters",
    "INFEASIBLE",
    "ModelProfile",
    "SocProfiler",
    "MAX_SLOWDOWN",
    "REFERENCE_BANDWIDTH_GBPS",
    "SliceWorkload",
    "intra_cluster_slowdown",
    "pairwise_slowdown_table",
    "slowdown_fraction",
]

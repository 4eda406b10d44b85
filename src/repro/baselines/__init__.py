"""Re-implementations of the paper's comparison schemes."""

from .annealing import AnnealingConfig, anneal_plan
from .band import (
    BandMapping,
    execute_band,
    plan_band,
    segment_by_npu_support,
)
from .exhaustive import exhaustive_plan
from .mnn_serial import plan_mnn_serial, serial_latency_ms
from .pipe_it import local_search_split, plan_pipe_it

__all__ = [
    "AnnealingConfig",
    "anneal_plan",
    "BandMapping",
    "execute_band",
    "plan_band",
    "segment_by_npu_support",
    "exhaustive_plan",
    "plan_mnn_serial",
    "serial_latency_ms",
    "local_search_split",
    "plan_pipe_it",
]

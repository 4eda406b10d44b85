"""Pipeline execution substrate: timetables, event simulation, metrics."""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    make_arrival_process,
    resolve_arrivals,
)
from .engine import EVENT_KINDS, DiscreteEventEngine, Event
from .executor import (
    ChainTask,
    ExecutionResult,
    TaskRecord,
    TracePoint,
    async_makespan_ms,
    execute_plan,
    plan_to_chains,
    simulate_chains,
)
from .metrics import ComparisonMatrix, Scheme, compare_schemes, standard_schemes
from .tracing import ascii_gantt, to_chrome_trace, write_chrome_trace
from .schedule import (
    DiagonalCell,
    DiagonalColumn,
    SynchronousSchedule,
    build_schedule,
    plan_bubbles_ms,
    plan_makespan_ms,
)

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "make_arrival_process",
    "resolve_arrivals",
    "DiscreteEventEngine",
    "Event",
    "EVENT_KINDS",
    "ChainTask",
    "ExecutionResult",
    "TaskRecord",
    "TracePoint",
    "execute_plan",
    "plan_to_chains",
    "simulate_chains",
    "ComparisonMatrix",
    "Scheme",
    "compare_schemes",
    "standard_schemes",
    "ascii_gantt",
    "to_chrome_trace",
    "write_chrome_trace",
    "DiagonalCell",
    "DiagonalColumn",
    "SynchronousSchedule",
    "async_makespan_ms",
    "build_schedule",
    "plan_bubbles_ms",
    "plan_makespan_ms",
]

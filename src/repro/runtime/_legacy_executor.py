"""Frozen pre-engine executor loop, kept as an equivalence oracle.

This is the bespoke closed-loop simulator that ``simulate_chains`` was
before the discrete-event engine (:mod:`repro.runtime.engine`) replaced
it, preserved verbatim minus observability so the golden-equivalence
tests (``tests/test_runtime_engine.py``) can diff the engine against
the exact historical arithmetic.  **Do not fix bugs here** —
the point of the module is to stay byte-identical to the old behaviour,
including the known off-by-epsilon arrival scan (an arrival within
``_EPS`` of ``now`` is treated as already arrived, so a slice could
start up to 1e-9 ms before its request) and the O(n) arrival rescans
per event the engine's heap replaced.

Production code must import :func:`repro.runtime.executor.simulate_chains`;
nothing outside tests and benchmarks should touch this module.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from ..hardware.memory import MemoryDemand, MemoryGovernor
from ..hardware.soc import SocSpec
from ..profiling.slowdown import SliceWorkload, slowdown_fraction
from .engine import (
    _EPS,
    ChainTask,
    ExecutionResult,
    TaskRecord,
    TracePoint,
)


def legacy_simulate_chains(
    soc: SocSpec,
    chains: Sequence[Sequence[ChainTask]],
    arrivals: Optional[Sequence[float]] = None,
    with_contention: bool = True,
    enforce_memory: bool = True,
    trace: bool = False,
    processor_offline_ms: Optional[Dict[str, float]] = None,
) -> ExecutionResult:
    """The historical ``simulate_chains`` loop (reference only)."""
    # This loop writes its progress into its tasks: mutable copies.
    copies = [
        [SimpleNamespace(**t._asdict(), remaining_ms=t.solo_ms, start_ms=None) for t in c]
        for c in chains
    ]
    n = len(copies)
    if arrivals is None:
        arrivals = [0.0] * n
    if len(arrivals) != n:
        raise ValueError(f"expected {n} arrival times, got {len(arrivals)}")
    proc_names = {p.name for p in soc.processors}
    capacity = soc.memory_capacity_bytes
    for chain in copies:
        for task in chain:
            if task.proc.name not in proc_names:
                raise ValueError(
                    f"task processor {task.proc.name!r} not on SoC {soc.name!r}"
                )
            if enforce_memory and task.working_set > capacity:
                raise MemoryError(
                    f"slice of request {task.request} needs "
                    f"{task.working_set / 1e6:.0f} MB alone; capacity is "
                    f"{capacity / 1e6:.0f} MB"
                )

    governor = MemoryGovernor(soc)
    next_idx = [0] * n
    prev_done = [True] * n
    proc_running: Dict[str, Optional[SimpleNamespace]] = {
        p.name: None for p in soc.processors
    }
    request_alloc: Dict[int, float] = {}
    used_bytes = 0.0
    memory_pressure_events = 0
    now = 0.0
    records: List[TaskRecord] = []
    trace_points: List[TracePoint] = []
    busy: Dict[str, float] = {p.name: 0.0 for p in soc.processors}
    finish: List[float] = [0.0] * n
    total_tasks = sum(len(c) for c in copies)
    completed = 0
    offline = dict(processor_offline_ms or {})

    def is_offline(proc_name: str) -> bool:
        return proc_name in offline and now >= offline[proc_name] - _EPS

    def reassign_offline_heads() -> None:
        backlog: Dict[str, float] = {}
        for proc in soc.processors:
            running = proc_running[proc.name]
            backlog[proc.name] = (
                running.remaining_ms if running is not None else 0.0
            )
        for i in range(n):
            idx = next_idx[i]
            if idx >= len(copies[i]):
                continue
            task = copies[i][idx]
            if not is_offline(task.proc.name):
                backlog[task.proc.name] = (
                    backlog.get(task.proc.name, 0.0) + task.remaining_ms
                )
                continue
            candidates = []
            for proc in soc.processors:
                if is_offline(proc.name):
                    continue
                if task.workload is not None:
                    solo = task.workload.profile.exec_ms(
                        proc, task.workload.start, task.workload.end
                    )
                    if solo == float("inf"):
                        continue
                else:
                    solo = task.solo_ms
                candidates.append((backlog[proc.name] + solo, solo, proc))
            if not candidates:
                raise RuntimeError(
                    f"request {task.request}: no online processor can run "
                    f"its slice after {task.proc.name!r} went offline"
                )
            _, solo, proc = min(candidates, key=lambda c: c[0])
            backlog[proc.name] += solo
            task.proc = proc
            task.solo_ms = solo
            task.remaining_ms = solo
            if task.workload is not None:
                task.workload = SliceWorkload(
                    profile=task.workload.profile,
                    proc=proc,
                    start=task.workload.start,
                    end=task.workload.end,
                )

    def ready_task_for(proc_name: str) -> Optional[SimpleNamespace]:
        if is_offline(proc_name):
            return None
        best: Optional[SimpleNamespace] = None
        for i in range(n):
            idx = next_idx[i]
            if idx >= len(copies[i]) or not prev_done[i]:
                continue
            task = copies[i][idx]
            if task.proc.name != proc_name:
                continue
            if arrivals[i] > now + _EPS:
                continue
            if best is None or task.request < best.request:
                best = task
        return best

    def start_task(task: SimpleNamespace, proc_name: str) -> None:
        nonlocal used_bytes
        task.start_ms = now
        proc_running[proc_name] = task
        used_bytes += task.working_set
        request_alloc[task.request] = (
            request_alloc.get(task.request, 0.0) + task.working_set
        )
        next_idx[task.request] += 1
        prev_done[task.request] = False

    def try_start() -> bool:
        blocked = False
        for proc in soc.processors:
            if proc_running[proc.name] is not None:
                continue
            task = ready_task_for(proc.name)
            if task is None:
                continue
            if enforce_memory and used_bytes + task.working_set > capacity:
                blocked = True
                continue
            start_task(task, proc.name)
        return blocked

    def force_start_blocked() -> bool:
        nonlocal memory_pressure_events
        for proc in soc.processors:
            if proc_running[proc.name] is not None:
                continue
            task = ready_task_for(proc.name)
            if task is None:
                continue
            start_task(task, proc.name)
            memory_pressure_events += 1
            return True
        return False

    def record_trace() -> None:
        if not trace:
            return
        demands = []
        names = []
        for proc in soc.processors:
            task = proc_running[proc.name]
            if task is None or task.workload is None:
                continue
            names.append(proc.name)
            demands.append(
                MemoryDemand(
                    processor=proc.kind,
                    bandwidth_gbps=task.workload.profile.traffic_rate_gbps(
                        task.workload.proc,
                        task.workload.start,
                        task.workload.end,
                    ),
                    footprint_bytes=task.working_set,
                )
            )
        trace_points.append(
            TracePoint(
                time_ms=now,
                bandwidth_demand_gbps=sum(d.bandwidth_gbps for d in demands),
                memory_freq_mhz=governor.select_frequency(demands),
                used_bytes=used_bytes,
                active_processors=tuple(names),
            )
        )

    while completed < total_tasks:
        if offline:
            reassign_offline_heads()
        memory_blocked = try_start()
        running = [t for t in proc_running.values() if t is not None]
        if not running and memory_blocked:
            if force_start_blocked():
                running = [t for t in proc_running.values() if t is not None]
        record_trace()
        if not running:
            future = [a for a in arrivals if a > now + _EPS]
            if not future:
                raise RuntimeError(
                    "simulation wedged: no running task and no arrival"
                )
            now = min(future)
            continue

        rates: Dict[int, float] = {}
        for task in running:
            slowdown = 0.0
            if with_contention and task.workload is not None:
                others = [
                    t.workload
                    for t in running
                    if t is not task and t.workload is not None
                ]
                slowdown = slowdown_fraction(soc, task.workload, others)
            rates[id(task)] = 1.0 + slowdown

        dt = min(task.remaining_ms * rates[id(task)] for task in running)
        future = [a - now for a in arrivals if a > now + _EPS]
        if future:
            dt = min(dt, min(future))
        fault_edges = [t - now for t in offline.values() if t > now + _EPS]
        if fault_edges:
            dt = min(dt, min(fault_edges))
        dt = max(dt, _EPS)

        for task in running:
            task.remaining_ms -= dt / rates[id(task)]
            busy[task.proc.name] += dt
        now += dt

        for proc in soc.processors:
            task = proc_running[proc.name]
            if task is not None and task.remaining_ms <= _EPS * 10:
                proc_running[proc.name] = None
                prev_done[task.request] = True
                finish[task.request] = now
                completed += 1
                if next_idx[task.request] >= len(copies[task.request]):
                    used_bytes -= request_alloc.pop(task.request, 0.0)
                traffic = 0.0
                if task.workload is not None:
                    traffic = task.workload.profile.traffic_bytes(
                        task.workload.proc,
                        task.workload.start,
                        task.workload.end,
                    )
                records.append(
                    TaskRecord(
                        request=task.request,
                        stage=task.stage,
                        processor=proc.name,
                        start_ms=task.start_ms or 0.0,
                        finish_ms=now,
                        solo_ms=task.solo_ms,
                        traffic_bytes=traffic,
                    )
                )
        record_trace()

    return ExecutionResult(
        records=records,
        makespan_ms=now,
        request_arrival_ms=list(arrivals),
        request_finish_ms=finish,
        trace=trace_points,
        processor_busy_ms=busy,
        memory_pressure_events=memory_pressure_events,
    )

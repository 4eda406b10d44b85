"""Co-execution slowdown model for the shared memory bus.

Implements the ``T^co`` term of Eq. 2.  The model is built from the
paper's empirical observations:

* **Observation 1 (slowdown consistency).** Fairness-aware memory
  controllers spread the penalty across contenders, so a victim's
  slowdown can be predicted from the *solo* demand of its co-runners.
* **Sec. III pairwise structure.** CPU-GPU pairs interfere strongly
  (18-21 % for YOLOv4+BERT); any pair involving the NPU barely
  interferes (2-5 %) thanks to its dedicated memory path.
* **Fig. 10 intra-cluster contention.** Splitting a CPU cluster between
  two workloads causes conflicting L2 misses and up to ~70 % slowdown —
  which is why the planner never co-schedules within a cluster.

The victim's slowdown is a saturating function of the aggregate pressure
exerted by its co-runners::

    slowdown = S_MAX * (1 - exp(-sum_c coupling(v, c) * intensity_c * sens_v))

where ``intensity_c`` is the co-runner's solo bus-demand rate normalized
by :data:`REFERENCE_BANDWIDTH_GBPS` and ``sens_v`` grows with the
victim's own memory-boundness.  For small pressure the response is
linear (the common CPU-GPU regime); for pathological intra-cluster
sharing it saturates near :data:`MAX_SLOWDOWN` (the 70 % of Fig. 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..hardware.processor import ProcessorSpec
from ..hardware.soc import CouplingRow, SocSpec
from .profiler import ModelProfile

#: Bandwidth used to normalize solo traffic rates into intensities.
REFERENCE_BANDWIDTH_GBPS = 10.0

#: Saturation ceiling of the slowdown response.
MAX_SLOWDOWN = 0.90

#: Victim sensitivity: base + gain * memory_fraction.
SENSITIVITY_BASE = 0.65
SENSITIVITY_GAIN = 2.0

#: Fraction of a dedicated-path unit's traffic that leaks onto the shared
#: bus (NPU DMA descriptors, fallback tensors).  Applied both to the NPU
#: as a contention *source* and, as a sensitivity damping, to the NPU as
#: a *victim* — reproducing the 2-5 % NPU-pair slowdowns of Sec. III.
DEDICATED_PATH_LEAK = 0.05
DEDICATED_PATH_SENSITIVITY = 0.20


@dataclass(frozen=True)
class SliceWorkload:
    """One co-running slice: which layers of which model on which unit.

    :meth:`intensity`, :meth:`sensitivity` and :meth:`traffic_bytes`
    are pure functions of the (immutable) profile and slice, so all
    three are computed once, at construction: the engine asks for them
    on every step or departure, and objective probes share workload
    objects through the profile's slice-task memo
    (:attr:`~repro.profiling.profiler.ModelProfile.slice_tasks`).
    """

    profile: ModelProfile
    proc: ProcessorSpec
    start: int
    end: int
    _intensity: float = field(init=False, repr=False, compare=False)
    _sensitivity: float = field(init=False, repr=False, compare=False)
    _traffic_bytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rate = self.profile.traffic_rate_gbps(self.proc, self.start, self.end)
        if self.proc.dedicated_memory_path:
            rate *= DEDICATED_PATH_LEAK
        object.__setattr__(self, "_intensity", rate / REFERENCE_BANDWIDTH_GBPS)
        mem_frac = self.profile.memory_fraction(self.proc, self.start, self.end)
        sens = SENSITIVITY_BASE + SENSITIVITY_GAIN * mem_frac
        if self.proc.dedicated_memory_path:
            sens *= DEDICATED_PATH_SENSITIVITY
        object.__setattr__(self, "_sensitivity", sens)
        traffic = self.profile.traffic_bytes(self.proc, self.start, self.end)
        object.__setattr__(self, "_traffic_bytes", traffic)

    def solo_ms(self) -> float:
        return self.profile.exec_ms(self.proc, self.start, self.end)

    def intensity(self) -> float:
        """Solo bus-demand intensity this workload exerts on others.

        A dedicated-path unit (NPU) leaks only
        :data:`DEDICATED_PATH_LEAK` of its traffic onto the shared bus.
        """
        return self._intensity

    def sensitivity(self) -> float:
        """How strongly this workload suffers from bus pressure."""
        return self._sensitivity

    def traffic_bytes(self) -> float:
        """Effective DRAM traffic of the slice on its unit."""
        return self._traffic_bytes


#: The row of a victim that is not one of the SoC's own processors.
_NO_ROW: CouplingRow = {}


def slowdown_fraction(
    soc: SocSpec, victim: SliceWorkload, co_runners: Iterable[SliceWorkload]
) -> float:
    """Fractional slowdown of ``victim`` given simultaneous co-runners.

    Returns ``(t_co - t_solo) / t_solo``; 0 when the victim runs alone.
    Co-runners on the same processor as the victim are rejected — the
    simulator never time-shares one unit between two slices.

    The coupling of a pair of the SoC's own processors (name and kind
    both match) comes from :attr:`SocSpec.coupling_rows`; any other
    pair falls back to :meth:`SocSpec.coupling_factor`, which holds the
    same values.

    :class:`~repro.runtime.engine.ProbeRun` inlines these float
    operations in this order over :func:`coupling_matrix`, so a change
    here is a change there (``TestProbeDifferential`` holds the two
    runs bit-identical).

    Raises:
        ValueError: if a co-runner shares the victim's processor name.
    """
    vproc = victim.proc
    row = soc.coupling_rows.get(vproc.name, _NO_ROW)
    own = row.get(vproc.name)
    if own is None or own[0] is not vproc.kind:
        row = _NO_ROW
    pressure = 0.0
    for co in co_runners:
        cproc = co.proc
        if cproc.name == vproc.name:
            raise ValueError(
                f"co-runner and victim share processor {vproc.name!r}; "
                "the pipeline never time-shares a unit"
            )
        entry = row.get(cproc.name)
        if entry is not None and entry[0] is cproc.kind:
            coupling = entry[1]
        else:
            coupling = soc.coupling_factor(vproc.kind, cproc.kind)
        pressure += coupling * co._intensity
    if pressure <= 0.0:
        return 0.0
    exponent = pressure * victim._sensitivity
    return MAX_SLOWDOWN * (1.0 - math.exp(-exponent))


def coupling_matrix(soc: SocSpec) -> List[List[float]]:
    """The couplings :func:`slowdown_fraction` reads between the SoC's
    own processors, by slot.

    Entry ``[v][c]`` is the coupling a co-runner on
    ``soc.processors[c]`` exerts on a victim on ``soc.processors[v]``.
    It is :func:`slowdown_fraction`'s value for a pair of workloads that
    :func:`check_on_soc` accepts on those two processors.
    """
    rows = soc.coupling_rows
    return [[rows[v.name][c.name][1] for c in soc.processors] for v in soc.processors]


def check_on_soc(
    soc: SocSpec, proc: ProcessorSpec, workload: Optional[SliceWorkload]
) -> None:
    """Reject a slice whose coupling is not its slot's in :func:`coupling_matrix`.

    A slice on ``proc`` takes the slot of ``proc``'s name, while
    :func:`slowdown_fraction` reads the coupling of its workload's
    processor, and the SoC's row only for a processor with that name
    and kind.

    Raises:
        ValueError: unless ``proc``, and the workload's processor, are
            the SoC's processor of ``proc``'s name by name and kind.
    """
    own = soc.coupling_rows.get(proc.name, _NO_ROW).get(proc.name)
    if (
        own is None
        or proc.kind is not own[0]
        or (
            workload is not None
            and (workload.proc.name != proc.name or workload.proc.kind is not own[0])
        )
    ):
        raise ValueError(
            f"slice on {proc.name!r} does not run on SoC {soc.name!r}'s "
            "processor of that name and kind"
        )


def co_execution_ms(
    soc: SocSpec, victim: SliceWorkload, co_runners: Iterable[SliceWorkload]
) -> float:
    """Wall-clock time of the victim slice under co-execution (Eq. 2)."""
    solo = victim.solo_ms()
    if math.isinf(solo):
        return solo
    return solo * (1.0 + slowdown_fraction(soc, victim, list(co_runners)))


def pairwise_slowdown_table(
    soc: SocSpec,
    workload_a: SliceWorkload,
    workload_b: SliceWorkload,
) -> Tuple[float, float]:
    """Mutual slowdown fractions of two co-running workloads.

    Returns ``(slowdown_a, slowdown_b)`` — the Table II experiment.
    """
    return (
        slowdown_fraction(soc, workload_a, [workload_b]),
        slowdown_fraction(soc, workload_b, [workload_a]),
    )


def intra_cluster_slowdown(
    soc: SocSpec,
    victim: SliceWorkload,
    co_runner: SliceWorkload,
    victim_cores: int = 2,
    co_runner_cores: int = 2,
) -> float:
    """Slowdown when two workloads split cores of the *same* cluster.

    Models the Fig. 10 configurations ("BB-BB": YOLOv4 and VGG16 each on
    two Big cores; "BBB-B": a 3+1 split).  Both workloads also run
    slower from having fewer cores; this function returns only the
    *contention* component on top, using the intra-cluster coupling
    factor.  The shared L2 pressure a workload exerts scales with its
    share of the cluster's cores, so the minority side of an asymmetric
    split suffers more.

    Raises:
        ValueError: for non-positive core counts.
    """
    if victim_cores < 1 or co_runner_cores < 1:
        raise ValueError("core counts must be >= 1")
    coupling = soc.coupling_factor(victim.proc.kind, victim.proc.kind)
    total = victim_cores + co_runner_cores
    core_share = 2.0 * co_runner_cores / total  # 1.0 for an even split
    pressure = coupling * co_runner.intensity() * core_share
    if pressure <= 0.0:
        return 0.0
    return MAX_SLOWDOWN * (1.0 - math.exp(-pressure * victim.sensitivity()))

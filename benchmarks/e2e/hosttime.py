"""Host time on a shared machine: the clock and the speed reference.

Every host time the benchmark reports is this process's CPU time.  The
workloads are single-threaded and do no I/O, so on an idle machine CPU
time reads the same as wall time; on a shared machine it leaves out the
time other processes hold the CPU (a fixed loop's wall time varied
twofold there while its CPU time varied by 15%).

CPU time still slows down, in phases lasting seconds and in periods
lasting minutes, while other processes contend for the core and its
caches: a fixed loop's CPU time rose by up to 40% in them.  So the
benchmark samples the machine's speed with a fixed pure-Python
reference loop between steps (at most every ``SAMPLE_EVERY_S``) and
scales each step by ``REFERENCE_LOOP_S`` over the mean of the samples
taken around it: every step reads as if the loop had taken
``REFERENCE_LOOP_S``, the development box at its fastest.  Plan time
rose with loop time at a log-log slope of 0.94-0.98, and the scaling
cut the interquartile range of repeated cold plans from 0.23-0.39 of
the median to 0.08-0.09.  The loop runs no code of the program, so a
change to the program cannot move the reference.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

host_clock = time.process_time

#: Least host time between two speed samples.
SAMPLE_EVERY_S = 0.1
#: Iterations of the reference loop (about a millisecond).
_LOOP_ITERATIONS = 10_000
#: The reference speed: the loop's time on the development box at its
#: fastest.
REFERENCE_LOOP_S = 0.8e-3


def _reference_loop_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = host_clock()
        table = {}
        total = 0
        for i in range(_LOOP_ITERATIONS):
            total += i * i
            table[i & 255] = total
        best = min(best, host_clock() - start)
    return best


def at_reference_speed(host_s: float, sampled_s: float) -> float:
    """``host_s`` measured while the loop took ``sampled_s``, scaled to
    the reference speed."""
    return host_s * REFERENCE_LOOP_S / sampled_s


class SpeedProbe:
    """Speed samples of one run (see the module docstring)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.current: Optional[float] = None
        #: While set, steps keep the current sample: a traced pass takes
        #: none, since the loop would run inside the layers it times.
        self.frozen = False
        self._due_at = 0.0

    def sample(self) -> float:
        self.current = _reference_loop_s()
        self.samples.append(self.current)
        self._due_at = host_clock() + SAMPLE_EVERY_S
        return self.current

    def sample_if_due(self) -> None:
        if not self.frozen and host_clock() >= self._due_at:
            self.sample()


class Steps:
    """Host times of consecutive steps, each paired with the mean of the
    speed samples taken just before and just after it (a long step can
    straddle a change of phase); the samples themselves are not timed."""

    def __init__(self, speed: SpeedProbe) -> None:
        self.speed = speed
        self.measured: List[Tuple[float, float]] = []
        self._start = 0.0

    def start(self) -> None:
        self.speed.sample_if_due()
        self._start = host_clock()

    def mark(self) -> None:
        """End the current step and start the next."""
        host_s = host_clock() - self._start
        before = self.speed.current
        self.start()
        self.measured.append((host_s, (before + self.speed.current) / 2))

    def extend_last(self) -> None:
        """Add the time since the last mark to the last step."""
        host_s, sampled_s = self.measured[-1]
        self.measured[-1] = (host_s + host_clock() - self._start, sampled_s)

"""Times at a fixed reference speed, on a CPU whose speed changes.

The machines this benchmark runs on are shared.  The CPU it gets runs at
full speed for a while and then at up to half speed, in stretches that
last from a fraction of a second to many minutes, so one wall time says
as much about the neighbours as about szego.  ``SpeedProbe`` samples the
current speed throughout the run.  An interval timer interrupts the
process every 25 ms, and the handler times a fixed piece of Fraction
arithmetic (the probe).  It runs the probe once untimed first, so that
the timed pass finds its code and data in cache whatever the interrupted
op did to the caches; otherwise the probe would slow down with an op's
working set and divide part of that op's cost out (probe_check.py
measures this).  ``at_reference_speed`` scales the wall time of an
interval by the mean of REFERENCE_PROBE_S / probe over the probes taken
inside it, or by the nearest probe if none was.  Probes are taken at
even steps of wall time, so the scaled time is what the interval would
have taken on a CPU that runs the probe in REFERENCE_PROBE_S throughout.
The reference is a constant rather than the fastest probe of the run,
because some runs never see the CPU at full speed.

What this corrects is a change of the speed at which the CPU runs the
process: clock frequency, a busy hyperthread sibling, shared caches.  It
does not correct time in which the process does not run at all, such as
a CPU quota throttling it: the timer's probe then runs when the process
runs again, at normal speed, and the lost time stays in the op's time.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.025
# the timed (warm) probe pass at full speed on the machine the benchmark
# was tuned on (2-core x86-64 VM, CPython 3.11); it only fixes the unit
# of time
REFERENCE_PROBE_S = 74e-6


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(1, i)
    return acc


class SpeedProbe:
    """Context manager that samples the CPU speed while it is active."""

    def __init__(self):
        self.at = array("d")
        self.cost = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        _probe_work()  # warms the caches the interrupted op may have evicted
        t0 = time.perf_counter()
        _probe_work()
        self.cost.append(time.perf_counter() - t0)
        self.at.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference_speed(self, t0: float, t1: float) -> float:
        """Time the wall interval [t0, t1] would take at the reference speed."""
        if not self.cost:
            return t1 - t0
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi > lo:
            costs = self.cost[lo:hi]
        elif lo == 0:
            costs = self.cost[:1]
        elif lo == len(self.at) or t0 - self.at[lo - 1] <= self.at[lo] - t1:
            costs = self.cost[lo - 1 : lo]
        else:
            costs = self.cost[lo : lo + 1]
        return (t1 - t0) * sum(REFERENCE_PROBE_S / c for c in costs) / len(costs)

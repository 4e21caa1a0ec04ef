"""Host speed measured beside the work, and times scaled to a reference speed.

On a small shared VM a core's speed changes every few seconds with what
other tenants run on its sibling hyperthread: a fixed Python loop takes
~12 ms in one state and ~18 ms in the other, the two cores change
independently, and over minutes the share of slow time drifts.  A run's
raw timings follow that share more than they follow the code.

:class:`Speedometer` runs a fixed probe -- pure Python, so it imports
nothing a cold start would not -- from a ``SIGALRM`` timer every
:data:`PERIOD_S` in the process doing the work, on the core doing it.
Python runs the handler between bytecodes of the main thread, so the probes
land inside the requests.  :meth:`Timeline.normalise` turns a stretch of
wall time into *reference seconds*: each piece of the stretch is divided by
the host's slowdown (probe time over :data:`REFERENCE_S`) measured by the
probes around it, and the probes' own time is left out.  A code change that
makes a request 10% faster makes its reference time 10% smaller; a slow
spell of the host changes it much less than it changes the raw time.

Contention slows different code by different amounts.  A tight integer loop
slowed less than the workloads did, so against it alone they read slower on
a contended host; allocating small objects, filling a dict and sorting
slowed more, so against that alone they read faster.  The probe does some
of each.

The probe runs in the measured process, so a program that kept its own
core busy from another thread would slow the probe too and hide that cost;
every workload here is single-threaded with BLAS threads fixed at 1.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

now = time.perf_counter

#: Time between probes.
PERIOD_S = 0.025
#: Iterations of the probe's arithmetic loop and of its object loop.
ARITHMETIC_LOOPS = 3000
OBJECT_LOOPS = 400
#: The probe's time between a workload's steps on an uncontended core of the
#: VM the benchmark was built on (2.1 GHz Xeon: the 2nd-5th percentile of
#: in-run probes; the median was 0.38-0.53 ms).  A reference second is a
#: second at that speed.
REFERENCE_S = 2.7e-4


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def probe() -> tuple[float, float]:
    """Run the fixed work once; return its start and end."""
    start = now()
    x = 0
    for i in range(ARITHMETIC_LOOPS):
        x += i * i
    table: dict[int, int] = {}
    items = []
    for i in range(OBJECT_LOOPS):
        item = _Item(i)
        table[i & 63] = table.get(i & 63, 0) + item.value
        items.append((i, item))
    items.sort(key=lambda pair: -pair[0])
    return start, now()


class Speedometer:
    """Probes from a timer signal, recorded as (start, end) pairs."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None) -> None:
        self.probes.append(probe())

    def start(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return self.probes


class Timeline:
    """A process's probes, for scaling stretches of its wall time."""

    def __init__(self, probes) -> None:
        probes = sorted((float(a), float(b)) for a, b in probes)
        if not probes:
            raise ValueError("no probes")
        self.starts = [a for a, _ in probes]
        self.ends = [b for _, b in probes]
        raw = [(b - a) / REFERENCE_S for a, b in probes]
        # A probe that a context switch or an interrupt cut into reads far
        # slower than the host was; the median of each three neighbours
        # drops such single readings.
        self.slowdown = [
            statistics.median(raw[max(0, k - 1):k + 2]) for k in range(len(raw))
        ]

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdown)

    def normalise(self, a: float, b: float) -> float:
        """Reference seconds of the wall-time stretch [a, b], probes excluded.

        The gap between two probes is scaled by the mean slowdown of the
        two; time before the first probe or after the last by that probe's.
        """
        total = 0.0
        k = max(0, bisect.bisect_right(self.ends, a) - 1)
        n = len(self.starts)
        # Gap g runs from the end of probe g-1 to the start of probe g.
        for g in range(k, n + 1):
            lo = self.ends[g - 1] if g > 0 else float("-inf")
            hi = self.starts[g] if g < n else float("inf")
            if lo >= b:
                break
            piece = min(b, hi) - max(a, lo)
            if piece > 0:
                if g == 0:
                    factor = self.slowdown[0]
                elif g == n:
                    factor = self.slowdown[-1]
                else:
                    factor = 0.5 * (self.slowdown[g - 1] + self.slowdown[g])
                total += piece / factor
        return total

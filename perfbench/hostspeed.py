"""Host speed, measured by a fixed reference kernel during a run.

The shared 2-vCPU host this benchmark was written on changes speed by up to
a factor of two over seconds to minutes, alike for every kind of operation,
so raw times from runs a few minutes apart spread by 0.2-0.4 (quartile
distance over median).  A run therefore times a fixed kernel, made only of
Python and numpy and none of the package's code, in short bursts between
operations and around each set-up probe.  The host factor of a moment is
the median burst time near it over NOMINAL_S; it is above 1 when the host
is slow.  The end-to-end times are the measured times divided by the host
factor of their moment: what they would have been with the host at full
speed.  The raw times stay in the run record next to them.
"""

from __future__ import annotations

import gc
import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# Burst time of the kernel with the host at full speed (a 2-vCPU Xeon VM);
# a constant, so that it scales every run the same way.
NOMINAL_S = 1.0e-3
BURST_REPS = 3
BURST_EVERY_S = 0.4
# Bursts within this distance of an operation set its factor.
WINDOW_S = 5.0

_M = np.array([[0.96, 0.28], [-0.28, 0.96]])


def _kernel() -> float:
    """A small mix of what the workloads spend their time on: Python float
    arithmetic and calls, tiny numpy arrays, and dict and list work."""
    v = np.array([1.0, 0.0])
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(800):
        v = _M @ v
        acc += math.sqrt(i + 1.0) / (1.0 + abs(float(v[0])))
        table[i & 31] = table.get(i & 31, 0) + i
    xs = np.linspace(0.0, 1.0, 257)
    acc += float(np.sqrt(1.0 - 0.99 * 4.0 * xs * (1.0 - xs)).sum())
    acc += sum(sorted(table.values(), reverse=True)[:8])
    return acc


def burst(reps: int = BURST_REPS) -> float:
    """Median time of `reps` runs of the kernel, in seconds."""
    times = []
    # a collection of the caller's heap would time the heap, not the host
    gc.disable()
    try:
        for _ in range(reps):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class HostClock:
    """Bursts at most every BURST_EVERY_S, stamped with their time."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self, now: float) -> None:
        """Run a burst if the last one is BURST_EVERY_S before `now`."""
        if now >= self._next:
            t0 = perf_counter()
            self.times.append(burst())
            self.stamps.append(now)
            took = perf_counter() - t0
            self.spent += took
            self._next = now + took + BURST_EVERY_S

    def factor(self, t0: float, t1: float) -> float:
        """Host factor for an operation that ran from t0 to t1."""
        lo = bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect_right(self.stamps, t1 + WINDOW_S)
        near = self.times[lo:hi]
        if not near:
            mid = 0.5 * (t0 + t1)
            near = [min(zip(self.stamps, self.times), key=lambda st: abs(st[0] - mid))[1]]
        return statistics.median(near) / NOMINAL_S

"""Machine-speed gauge: a fixed reference kernel timed between operations.

The 2-vCPU virtual machine this benchmark was tuned on shares its cores
with other tenants.  Each vCPU flips between a fast state and one up to
~1.9x slower every fraction of a second to a few seconds, and the share of
slow time drifts over minutes, so a whole run can fall in a slow spell.
Neither medians nor minima over a run remove that.  The kernel below has
the character of wavecrit's hot loops (the marcher's small-array index
arithmetic, a Python-level loop) and slows with them; it is timed between
operations, outside the timed region, and ``factor()`` turns a run's mean
kernel time into the ratio by which ``run.py`` scales the run's times back
to the fast state.

The kernel uses numpy and plain Python only, never wavecrit, so a change
to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the kernel's time in the machine's fast state (the low mode of 1,000
# back-to-back calls on the Xeon VM described in README.md); scaled times
# read as seconds at that speed
REFERENCE_S = 0.011
SHARE = 0.05  # kernel time per second of measured time

_J = np.arange(818)
_Q = np.linspace(0.0, 1.0, 820)


def kernel() -> float:
    acc = np.zeros(818)
    s = 0.0
    for m in range(1, 1000):
        hi = np.minimum(m % 800 + _J, 819)
        lo = np.minimum(np.abs(m % 800 - _J), 819)
        acc += 0.5 * (_Q[hi] - _Q[lo])
        for k in range(20):
            s += math.sqrt(m + k)
    return s + float(acc[-1])


class Gauge:
    def __init__(self):
        self.samples = []

    def sample(self, busy_s: float = 0.0) -> list:
        """Time the kernel for about ``SHARE`` of ``busy_s``, at least once;
        returns the new samples."""
        new = []
        for _ in range(max(1, round(SHARE * busy_s / REFERENCE_S))):
            start = time.perf_counter()
            kernel()
            new.append(time.perf_counter() - start)
        self.samples += new
        return new

    def factor(self) -> float:
        """Fast-state time over this run's time.  A mean, like the mean pass
        time it scales: both average over the run's fast and slow spells."""
        return REFERENCE_S / statistics.fmean(self.samples)

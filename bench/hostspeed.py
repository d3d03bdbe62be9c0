"""Host-speed calibration: a fixed reference task timed between ops.

On a shared virtual machine the same code runs up to 1.5x slower in phases
that last from seconds to minutes, and the slowdown is not steal time: the
process gets the CPU but the CPU does less.  Interpreter loops and numpy
integer kernels slow down together.  The benchmark therefore times this
fixed task, which touches neither ``mathieu_kit`` nor its data, at least
every :data:`EVERY_S` seconds, and scales each timed interval by
``NOMINAL_S / (reference time around it)``: the result is the interval in
seconds on a host where the reference task takes :data:`NOMINAL_S`.  A
change to the program moves the scaled time; a change of host speed moves
both and cancels.  The raw wall-clock times are reported beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

#: The reference task's time on a nominal host: an arbitrary fixed scale,
#: chosen near its time on the 2-vCPU Xeon VM the benchmark was sized on.
NOMINAL_S = 0.1
#: Longest wall time between two reference timings ...
EVERY_S = 1.0
#: ... and the share of a run they take: after a long op the reference
#: runs several times in a row, one timing each.
SHARE = 0.1
#: An interval is scaled by the timings within this many seconds of it.
WINDOW_S = 8.0

_PY_STEPS = 200_000
_ROWS, _D, _P = 1 << 14, 9, 5
_rng = np.random.default_rng(0)
_X = _rng.integers(0, _P, (_ROWS, _D))
_T = _rng.integers(0, _P, (_D, _D * _D))


def reference() -> float:
    """Seconds the reference task takes now: an interpreter loop over small
    ints and dicts, then int64 block products reduced mod p, the two kinds
    of work the package's layers do."""
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(_PY_STEPS):
        acc = (acc * 31 + i) % 1_000_003
        seen[i & 255] = acc
    for _ in range(2):
        part = (_X @ _T) % _P
        np.matmul(_X[:, None, :], part.reshape(-1, _D, _D))[:, 0, :] % _P
    return perf_counter() - t0


class HostClock:
    """Reference timings taken during a run, and the scale they give each
    timed interval."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the end of each timing
        self.seconds: list[float] = []

    def measure(self) -> None:
        """Time the reference, more often the longer it has not run."""
        gap = perf_counter() - self.at[-1] if self.at else 0.0
        for _ in range(max(1, round(SHARE * gap / NOMINAL_S))):
            s = reference()
            self.at.append(perf_counter())
            self.seconds.append(s)

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median reference time of the timings within
        WINDOW_S of [t0, t1].  One timing is short and often 20% off, so the
        median of several, not the mean, tracks the host's speed."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])

"""Calibrated seconds: wall time corrected for the machine's speed swings.

The machine this benchmark was tuned on runs at speeds up to 1.5x apart, in
phases of a few seconds to tens of seconds, so equal work took up to 1.5x
as long from one run to the next.  While a measured region runs, a SIGALRM
every PROBE_PERIOD_S runs a short reference kernel, and one more kernel
runs just before and just after the region.  The region's calibrated time
is its wall time, less the time spent in probes, scaled by NOMINAL_KERNEL_S
over the mean kernel time.  A calibrated second is thus the time in which
the kernel takes NOMINAL_KERNEL_S.  The kernel runs plain Python arithmetic
and small numpy products, the same mix as the program, but none of the
program's code.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_KERNEL_S = 0.0005
PROBE_PERIOD_S = 0.02
# Large enough to leave the first-level cache, as the program's arrays do.
_MATRIX = np.linspace(-1.0, 1.0, 22500).reshape(150, 150) / 15.0


def kernel_s():
    """Wall time of one run of the reference kernel (about 0.5 ms here)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    np.tanh(_MATRIX @ _MATRIX)
    return time.perf_counter() - t0


class Clock:
    """Measures regions of code in wall and calibrated seconds."""

    def __init__(self):
        self._samples = []
        self._probe_s = 0.0

    def _probe(self, signum, frame):
        k = kernel_s()
        self._samples.append(k)
        self._probe_s += k

    @contextmanager
    def measure(self):
        """Yields a dict that holds `wall_s` and `calibrated_s` once the
        region ends, normally or by an exception."""
        result = {}
        before = kernel_s()
        self._samples, self._probe_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            kernels = [before, *self._samples, kernel_s()]
            result["wall_s"] = wall
            result["calibrated_s"] = (wall - self._probe_s) * NOMINAL_KERNEL_S / statistics.fmean(kernels)

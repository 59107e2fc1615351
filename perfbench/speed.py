"""Machine-speed calibration, so that times from a shared host can be compared.

The host this benchmark was built on switches between two speed levels about
1.8x apart, for reasons outside the process (the same fixed loop reads
0.7 ms or 1.3 ms), and stays on one level for a fraction of a second to a few
seconds.  Raw times from runs of 25 s therefore differ by up to 1.9x between
runs of the same code.  A fixed kernel that uses no package code is timed
right before and right after every op, and every timed step of the set-up;
the step's wall time is then scaled by ``REFERENCE_S / k``, with k the mean
of the two kernel times.  The import is timed in a fresh interpreter, which
may run on another core at another speed, so that interpreter times the
kernel itself right after the import.  Over 3000 ops of the three workloads on that host,
the scatter of an input's scaled op times was smallest with the kernel times
taken at both ends of the op and with op time proportional to kernel time
(a log-log slope of 1).  A scaled time reads "ms on a machine where the
kernel takes 1 ms".  The report prints raw wall times next to the scaled
ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
# The package's import reads files as well as computing, so its time moves
# less than the kernel's: over 80 imports on the build host, scaled import
# times spread least with this exponent (IQR/median 0.13, against 0.20 at 1).
IMPORT_EXPONENT = 0.75
_M = np.linspace(-1.0, 1.0, 64).reshape(8, 8) + 1j * np.eye(8)


def kernel():
    """Fixed work in the package's own mix: interpreted complex arithmetic
    and small numpy products."""
    z = 0.1 + 0.2j
    for i in range(1500):
        z = z * z * 0.5 + complex(math.cos(i), 0.25)
    a = _M
    for _ in range(30):
        a = (a @ _M) * 0.1 + np.abs(a).max()
    return z, a


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale factor for a step that ran between kernel times `before` and `after`."""
    return REFERENCE_S / statistics.fmean((before, after))


def import_factor(k: float) -> float:
    """Scale factor for an import followed by the kernel time `k`."""
    return (REFERENCE_S / k) ** IMPORT_EXPONENT


class Stopwatch:
    """Scaled wall time of a sequence of steps.  ``lap()`` ends a step: the
    step is scaled by the kernel samples at its two ends, and the time the
    samples take is left out."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        sample()  # the first call in a process is slow, so it is not a sample
        self._k = sample()
        self._t = time.perf_counter()

    def lap(self) -> None:
        """End a step."""
        dt = time.perf_counter() - self._t
        k = sample()
        self.raw += dt
        self.scaled += dt * factor(self._k, k)
        self._k = k
        self._t = time.perf_counter()

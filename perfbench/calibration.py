"""Host-speed calibration: a fixed probe timed around and inside every measured operation.

The benchmark runs on a shared virtual machine whose speed changes by up to
2x within a fraction of a second, as other tenants load the same physical
cores.  Medians over the passes of a run do not remove that: a run that falls
in a slow stretch is slow throughout.  So every timed stretch of work is
sampled with this probe: once before it and once after it (an edge probe of
`EDGE_UNITS` units), and one unit every `INTERVAL_S` seconds while it runs
(from a SIGALRM handler).  The stretch's time, less the time its in-op
samples took, is divided by the host's slowdown over those samples.

The probe is the benchmark's own code and calls nothing of `ucpspace`, so a
change to the package does not move it: a program that gets slower still
reads slower.  One unit mixes the kinds of work the two lanes do (exact
Fraction row reduction, dict updates, batched 3x3 einsum).
"""

import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

# The time of one probe unit on a host of reference speed.  A calibrated time
# is the time the work would take on a host where one unit takes this long.
UNIT_REF_S = 0.0007
EDGE_UNITS = 10
INTERVAL_S = 0.02

_MATRICES = np.random.default_rng(0).standard_normal((4, 3, 3))


def _unit():
    rows = [[Fraction((i * 7 + j * 3) % 13, j % 5 + 1) for j in range(8)] for i in range(8)]
    for k in range(3):
        pivot = rows[k][k] or Fraction(1)
        for r in range(k + 1, 8):
            factor = rows[r][k] / pivot
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    counts = {}
    for i in range(600):
        counts[i % 50] = counts.get(i % 50, 0) + i
    for _ in range(15):
        np.einsum("bij,bjk->bik", _MATRICES, _MATRICES)
    return rows, counts


def probe(units=EDGE_UNITS):
    """Seconds `units` probe units take now."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - start


class Sampler:
    """Probe samples of one timed stretch of work: its edges and its inside."""

    def __init__(self):
        self.seconds = 0.0  # probe time summed over samples
        self.units = 0  # probe units summed over samples
        self.spent = 0.0  # wall time the in-op samples took, handler included

    def add(self, seconds, units=EDGE_UNITS):
        self.seconds += seconds
        self.units += units

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.add(probe(1), 1)
        self.spent += time.perf_counter() - start

    @contextmanager
    def inside(self, enabled=True):
        """Sample one unit every INTERVAL_S seconds of wall time inside the block."""
        if not enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self):
        """How much slower than the reference host the probe ran, over all samples."""
        return self.seconds / self.units / UNIT_REF_S

    def calibrated(self, seconds):
        """`seconds` of work, less the in-op samples, at the reference host speed."""
        return (seconds - self.spent) / self.slowdown()

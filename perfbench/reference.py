"""Host-speed reference: a fixed computation that runs no hyperselect code.

The shared 2-vCPU host this benchmark was built on runs the same pass up to
25-30% slower for seconds or minutes at a time, and process CPU time slows
with it, so a raw wall time measures the host as much as the program.  While
a pass runs, `Sampler` interrupts it every `INTERVAL_S` to time one short
slice of this reference, so the slices see the same host as the pass.  The
pass's wall time, less the time the slices took, divided by the mean slice
time is the pass in units of the host's speed during it; times
`NOMINAL_S` it reads again as seconds, on a host as fast as the one that
measured the baseline.  The reference runs no hyperselect code, so the
scaled time moves with the program and not with the host.

The slice mixes what the scenarios do: interpreted loops, numpy operations
on small and on mid-sized arrays, and BLAS products.
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Median slice seconds on the baseline host (2-vCPU Xeon at 2.1 GHz).
NOMINAL_S = 0.0127
INTERVAL_S = 0.2

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((64, 3))
_CLOUD = _RNG.standard_normal((2000, 3))
_MATRIX = _RNG.standard_normal((400, 400))


def _slice():
    total = 0
    for i in range(30000):
        total += i * i % 7
    for i in range(300):
        total += float(np.abs(_SMALL - _SMALL[i % 64]).sum(axis=1).min())
    for i in range(30):
        total += float(np.sort(np.sqrt((_CLOUD - _CLOUD[i]) ** 2).sum(axis=1))[0])
    for _ in range(2):
        total += float((_MATRIX @ _MATRIX)[0, 0])
    return total


def slice_seconds():
    """Wall seconds of one slice of the reference."""
    start = perf_counter()
    _slice()
    return perf_counter() - start


class Sampler:
    """Slice timings taken every `INTERVAL_S` of wall time while `running`.

    The slices run in a SIGALRM handler, between two bytecodes of whatever
    the main thread is doing; `now` is `perf_counter` less the time spent in
    the handler, so a pass timed with it leaves the slices out.
    """

    def __init__(self):
        self.samples = []
        self._stolen = 0.0

    def now(self):
        return perf_counter() - self._stolen

    def _tick(self, _signum, _frame):
        start = perf_counter()
        self.samples.append(slice_seconds())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._stolen += perf_counter() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self, count):
        """Time `count` slices now, outside any pass."""
        self.samples.extend(slice_seconds() for _ in range(count))

    def scaled(self, wall, first):
        """`wall` at the baseline host's speed, from the slices since index
        `first`; a pass too short to be interrupted gets one slice after it."""
        if len(self.samples) == first:
            self.take(1)
        taken = self.samples[first:]
        return wall * NOMINAL_S * len(taken) / sum(taken)

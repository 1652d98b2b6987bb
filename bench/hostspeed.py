"""Host-speed normalisation: time ops as if the machine ran at a fixed speed.

On a shared virtual machine the speed of a core moves with the load of
other tenants: the same code takes 1.5x as long in the slow state as in
the fast one, the state changes within seconds, and CPU time moves with
wall time, so neither clock can tell the two apart.  The benchmark
therefore samples a fixed calibration kernel, which does not touch
gainforge, every PERIOD_S seconds from a SIGALRM handler while it times
ops.  An op's time is then

    (wall time - time spent in the handler) * REF_KERNEL_S / kernel time

where the kernel time is the mean of the samples taken during the op
and the nearest one on either side of it.  The kernel mixes interpreted
Python with a small dense eigensolve, as gainforge does.  README.md
("Steadiness") gives the measurements that motivate it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# the kernel's time on the machine the benchmark was written on in its
# fast state; normalised times read as milliseconds on that machine
REF_KERNEL_S = 0.55e-3
_LOOP = 3000
_MATRIX_N = 48

_clock = time.perf_counter


def _matrix() -> np.ndarray:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((_MATRIX_N, _MATRIX_N)) \
        + 1j * rng.standard_normal((_MATRIX_N, _MATRIX_N))
    return x + x.conj().T


def kernel(matrix: np.ndarray) -> float:
    """Seconds taken by one run of the calibration kernel."""
    t0 = _clock()
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    np.linalg.eigvalsh(matrix)
    return _clock() - t0


class Sampler:
    """Runs the kernel every PERIOD_S seconds between start() and stop()."""

    def __init__(self) -> None:
        self._matrix = _matrix()
        self.starts: list[float] = []    # handler entry times, increasing
        self.ends: list[float] = []      # handler exit times
        self.kernel_s: list[float] = []  # the kernel's time in each sample
        self.handler_s = 0.0             # time spent in the handler so far

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        k = kernel(self._matrix)
        self.starts.append(t0)
        self.kernel_s.append(k)
        self.ends.append(_clock())
        self.handler_s += self.ends[-1] - t0

    def clock(self) -> float:
        """perf_counter without the time spent sampling, for the tracer's spans."""
        return _clock() - self.handler_s

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def normalise(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at the reference host speed.

        t1 must come before stop(); t0 may precede start() (set-up starts
        timing before numpy, which the kernel needs, is imported).
        """
        first = bisect.bisect_right(self.starts, t0)   # first sample inside
        hi = bisect.bisect_left(self.starts, t1)       # first sample after t1
        busy = t1 - t0 - sum(self.ends[i] - self.starts[i] for i in range(first, hi))
        speed = statistics.fmean(self.kernel_s[max(first - 1, 0):hi + 1])
        return busy * REF_KERNEL_S / speed

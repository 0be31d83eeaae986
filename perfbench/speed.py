"""Samples how fast the host runs while the benchmark measures.

The host this benchmark was defined on changes speed by up to 2x under
load from other guests, from one second to the next and over minutes.  CPU
time tracks wall time, so no clock removes it.  ``Sampler`` therefore
interrupts the measured process every ``INTERVAL_S`` (``SIGALRM``) and times
a short fixed kernel in the signal handler, on the same CPU and in the same
process as the request.  A batch of requests is then reported scaled to a
reference host speed:

    scaled = measured * REF_S / mean(kernel times sampled during the batch)

``REF_S`` is a fixed constant within the range of the kernel's time on the
baseline host (0.014 s when it runs fast, 0.022 s at the median of the
proof runs), so scaled values have the size of raw ones; it must never
change, or every scaled baseline moves with it.  ``Sampler.clock`` is a
``perf_counter`` that stops while the handler runs, so the sampling itself
is never part of a measured time.  The kernel lives in the benchmark, not
in the package, so no change to the package moves it.  It mixes in about
equal parts what the package's run time is made of: numpy passes over
arrays larger than the L2 cache, scalar Python calls into numpy on tiny
arrays, and float formatting.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REF_S = 0.017  # seconds; see above
INTERVAL_S = 0.5


def _kernel(x: np.ndarray, y: np.ndarray) -> float:
    total = 0.0
    for _ in range(2):  # numpy passes over arrays larger than the L2 cache
        np.log(x, out=y)
        y *= x
        y += 0.3
        total += np.count_nonzero(np.diff(np.signbit(y)))
    for i in range(1_000):  # scalar calls into numpy
        a = np.asarray([i * 1e-4, 0.5])
        total += float(np.clip(a, 0.0, 1.0).sum()) + math.log1p(i * 1e-4)
    for _ in range(2):  # float formatting
        total += len(",".join(f"{i * 1e-3:.6g};{math.sin(i):.6g}" for i in range(3_000)))
    return total


class Sampler:
    """Times ``_kernel`` every ``INTERVAL_S`` of wall time while active."""

    def __init__(self) -> None:
        # The kernel's large arrays are allocated once, so the sampler adds a
        # fixed 4 MB to the peak resident set rather than a varying amount.
        self._x = np.geomspace(1e-6, 1.0, 250_000)
        self._y = np.empty_like(self._x)
        self.samples: list[tuple[float, float]] = []  # (clock() at the sample, kernel seconds)
        self.paused_s = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the sampling handler."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if paused == self.paused_s:  # no sample ran in between
                return now - paused

    def sample(self) -> float:
        """Time the kernel once, now; returns its seconds."""
        self._busy = True
        start = time.perf_counter()
        _kernel(self._x, self._y)
        end = time.perf_counter()
        self.samples.append((start - self.paused_s, end - start))
        self.paused_s += end - start
        self._busy = False
        return end - start

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_between(self, start: float, end: float) -> list[float]:
        """Kernel times sampled between two ``clock()`` readings."""
        return [s for t, s in self.samples if start <= t <= end]

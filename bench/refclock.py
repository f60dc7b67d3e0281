"""Reference clock: wall time converted to seconds at a fixed host speed.

The benchmark host is shared. Other tenants slow this process by up to
1.7x for stretches of seconds to minutes, and no run length averages that
away: on a 2-vCPU VM, the IQR/median of ``tour``'s median pass time over
30-s windows was 0.17. So while a run measures, a SIGALRM handler on the
measuring thread times a fixed reference kernel every ``PERIOD_S``
seconds, and each measured interval is converted to reference seconds:
wall time scaled by ``REF_KERNEL_S`` over the kernel's time in that
interval. Over the same windows the IQR/median of the converted pass time
was 0.03 on ``tour`` and on ``pie``.

The kernel does the three kinds of work the package does, because
contention slows each by a different factor: an interpreter loop (the
search move loop), numpy scalar indexing in generator expressions over
``itertools.combinations`` (the subset scans), and a memory-bound numpy
pass over 4 MB arrays (the dose kernel). Without the last part the clock
tracked ``pie`` worse than raw wall time, and without the middle one it
tracked ``tour`` at 0.06.

The clock assumes that the timed calls run on the thread that enters it,
as they do with ``--threads 1``. The handler's own time is taken out of
every interval, and numpy is imported only when the clock starts, so that
importing this module does not pull numpy in.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import combinations

# Seconds between kernel samples; the kernel takes about 2% of that.
PERIOD_S = 0.2
# Kernel time that a reference second stands for: about the kernel's
# median on the 2-vCPU VM the benchmark was tuned on, so reference
# seconds read close to that machine's wall seconds.
REF_KERNEL_S = 0.0035
_PY_LOOP = 15_000
_PAIRS = ((0, 1), (0, 2), (1, 2))
_NP_LEN = 1 << 19


class RefClock:
    """Samples host speed while it is entered; converts intervals after.

    ``samples`` holds (start, end, kernel seconds) per sample. A sample is
    taken on entry and on exit as well, so every interval measured inside
    the ``with`` block has one within ``PERIOD_S`` of each end.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list[tuple[float, float, float]] = []
        self._arrays = None
        self._matrix = None
        self._previous = None

    def _kernel(self) -> float:
        import numpy

        a, b, c = self._arrays
        d = self._matrix
        start = time.perf_counter()
        x = 0
        for i in range(_PY_LOOP):
            x += i * i
        for sigma in combinations(range(16), 3):
            max(d[sigma[u], sigma[v]] for u, v in _PAIRS)
        numpy.multiply(a, b, out=c)
        return time.perf_counter() - start

    def sample(self, *_) -> None:
        start = time.perf_counter()
        kernel = self._kernel()
        self.samples.append((start, time.perf_counter(), kernel))

    def __enter__(self) -> "RefClock":
        import numpy

        self._arrays = (numpy.ones(_NP_LEN), numpy.ones(_NP_LEN), numpy.ones(_NP_LEN))
        self._matrix = numpy.arange(256.0).reshape(16, 16)
        self._kernel()  # warm-up, not a sample
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self._arrays = self._matrix = None

    def convert(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the interval [t0, t1],
        both without the handler's time inside it. The speed is the mean,
        over the samples that start within ``period`` of the interval, of
        ``REF_KERNEL_S / kernel``: a time-weighted mean when samples are
        evenly spaced."""
        wall = (t1 - t0) - sum(end - start for start, end, _ in self.samples if t0 <= start < t1)
        near = [s for s in self.samples if t0 - self.period <= s[0] <= t1 + self.period]
        return _scale(wall, near)

    def kernel_median(self) -> float:
        return statistics.median(k for _, _, k in self.samples)


def _scale(wall: float, samples) -> tuple[float, float]:
    if not samples:
        raise ValueError("no reference sample near the interval; was it timed inside the clock?")
    return wall, wall * statistics.fmean(REF_KERNEL_S / k for _, _, k in samples)


def convert_samples(wall: float, samples) -> tuple[float, float]:
    """(wall, reference) seconds of a child process that ran the whole of
    its work inside a clock and printed ``samples``; ``wall`` is the
    parent's measure of it, from which the child's handler time is taken."""
    return _scale(wall - sum(end - start for start, end, _ in samples), samples)

"""Machine-speed probe for the end-to-end timings.

The machines this benchmark runs on are shared: the speed at which the
same Python code runs drifts by up to 2x over seconds, so raw wall times
of one pass spread by 15-40 % from run to run.  While a pass runs, a timer
signal every INTERVAL_S runs a fixed pure-Python kernel (Fraction
arithmetic and a dict, the same kind of work the library does) and records
speed = REFERENCE_S / kernel duration.  An op that took wall time T, less
the time the kernel itself took inside it, while the sampled speed was v,
did the work the reference machine does in T * v seconds ("reference
seconds").  The kernel does not touch the library, so a change to fockrep
moves reference time exactly as it moves the work.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.01
# the kernel's unloaded duration on the 2-vCPU Xeon, Python 3.11, on which
# the benchmark was defined; any constant works, results scale with it
REFERENCE_S = 0.0004


def kernel():
    acc = {}
    for i in range(120):
        f = Fraction(i % 7 + 1, i % 5 + 2)
        acc[i & 15] = acc.get(i & 15, 0) + f * f
    return acc


class SpeedProbe:
    """Context manager sampling the machine's speed on SIGALRM."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._sampling = False
        self._old_handler = None

    def _sample(self, signum, frame):
        if self._sampling:  # the timer fired inside a sample
            return
        self._sampling = True
        # a collection triggered inside the kernel would time the library's
        # garbage, not the machine
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        if collecting:
            gc.enable()
        self.times.append(start)
        self.durations.append(elapsed)
        self._sampling = False

    def sample(self, count):
        """Take `count` samples now, besides the timer's."""
        for _ in range(count):
            self._sample(None, None)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if not self.durations:
            self.sample(1)
        self._speeds = [REFERENCE_S / d for d in self.durations]
        self._busy = [0.0, *accumulate(self.durations)]

    @property
    def mean_speed(self) -> float:
        return sum(self._speeds) / len(self._speeds)

    def reference_time(self, start, end) -> float:
        """The wall time [start, end] less the kernel's own time inside it,
        in reference seconds: at the mean speed sampled inside the span, or
        at the two samples around it when the span is shorter than the
        interval (the machine's speed changes within a second)."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        own = end - start - (self._busy[hi] - self._busy[lo])
        window = self._speeds[lo:hi] or self._speeds[max(lo - 1, 0):lo + 1]
        return own * sum(window) / len(window)

"""The reference computation: the unit `ref` of every timing.

The engine's hot paths build `Fraction`s, hash tuples of them into dicts
and sort by tuple keys.  `reference_unit` does a fixed amount of that same
kind of work with the standard library alone and calls no engine code.

The machine this benchmark was built on changes speed from one tenth of
a second to the next, so one sample of the reference between two ops
says little about the speed an op ran at.  `Sampler` runs the reference
on a timer signal every INTERVAL seconds, during the ops as well as
between them, in the same process and thread.  An op's wall time, less
the samples taken inside it, divided by the mean of the samples taken
around it, is its cost in reference units; that stays put when the
machine as a whole speeds up or slows down.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

ITEMS = 60
# the exact value of reference_unit(); a changed value means the unit no
# longer does the work the figures in README.md were measured with
EXPECTED = Fraction(17831, 252)
INTERVAL = 0.02  # seconds between samples
NEAR = 6  # samples an op's speed is averaged over, at the least


def reference_unit():
    table = {}
    for i in range(ITEMS):
        key = (i % 13, Fraction(i % 7, 5), (i * 5) % 11)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 9 + 1, i % 8 + 2)
    ordered = sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0]))
    return sum((w for _, w in ordered), Fraction(0))


class Sampler:
    """Samples the reference computation on SIGALRM while started."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.starts = []  # perf_counter() at the start of each sample
        self.seconds = []  # wall time of each sample
        self.bad = 0  # samples that computed a wrong value
        self._busy = False

    def _sample(self, _signum, _frame):
        if self._busy:  # a signal that arrived during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        value = reference_unit()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)
        self.bad += value != EXPECTED
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def inside(self, start, end):
        """Seconds spent sampling between start and end."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.seconds[lo:hi])

    def speed(self, start, end):
        """Mean sample time over [start, end], widened on both sides until
        it holds at least NEAR samples."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < NEAR and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return statistics.fmean(self.seconds[lo:hi])

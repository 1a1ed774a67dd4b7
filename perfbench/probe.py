"""Machine-speed probe: a fixed reference computation run on a wall timer.

The sandboxes this benchmark runs in share their cores with other
machines, and their speed drifts by a factor of up to 1.7 over seconds to
minutes, for all code alike.  Every ``INTERVAL_S`` a SIGALRM handler runs
``reference_work`` and records how long it took.  A timed interval is then
reported net of the probes that ran inside it and scaled by the mean speed
the probes saw during it and in the second around it:
seconds at the speed at which ``reference_work`` takes ``NOMINAL_S``.
Work at speed v(t) gets done at rate proportional to v(t), so the mean of
speeds sampled uniformly in time is the right average.

The reference work runs with the garbage collector off.  It shares the
engine's heap, so a collection over the engine's objects landing inside a
probe would slow the probe too and cancel that cost out of the engine's
figures; with collection off, it stays in the engine's time.
"""

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.25
WINDOW_S = 1.0
NOMINAL_S = 0.0025


def reference_work():
    """Pure-Python rational arithmetic and dict stores, like the engine's."""
    acc, seen = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
        seen[i % 53] = acc
    return acc


class SpeedProbe:
    """Samples the speed of the machine while it is entered."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.busy = [0.0]
        self._previous = None

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.busy.append(self.busy[-1] + (t1 - t0))

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _speed(self, lo, hi):
        costs = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return sum(NOMINAL_S / c for c in costs) / len(costs)

    def mean_speed(self):
        """Mean speed over the whole run; 1 is nominal, 2 twice as fast."""
        return self._speed(0, len(self.starts))

    def adjusted(self, t0, t1):
        """Seconds ``[t0, t1]`` would have taken at nominal speed, without
        the probes that ran inside it.  The speed is the mean over the
        probes within ``WINDOW_S`` of the interval, at least one each side."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        net = t1 - t0 - (self.busy[hi] - self.busy[lo] if hi > lo else 0.0)
        first = min(bisect.bisect_left(self.starts, t0 - WINDOW_S), lo - 1)
        last = max(bisect.bisect_right(self.ends, t1 + WINDOW_S), hi + 1)
        return net * self._speed(max(first, 0), last)

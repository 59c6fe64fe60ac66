"""Timings corrected for the speed of a shared machine.

On a shared host the other tenants change how fast this process runs, by
up to 2x from one tenth of a second to the next, for the program and for
any fixed loop alike (process time grows with wall time, so it does not
help).  The ``Sampler`` measures that speed while the program runs: a
SIGALRM timer interrupts the measured process every ``INTERVAL_S`` of
wall time and, in the interrupted thread, runs ``reference()``, a fixed pure-Python loop of dict, string and
sort work that shares no code with homcx, and records how long it took.

A calibrated duration is the wall time of an interval less the time spent
in the reference loops inside it, times ``REFERENCE_S`` over the observed
time of the reference loop around it: the time the interval would have
taken on a machine on which ``reference()`` takes ``REFERENCE_S``.  A
change to the program moves it as much as the wall time; a neighbour
that slows the reference loop and the program alike does not.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.05
# The reference loop's typical time on the 2-core Xeon VM on which the
# benchmark was defined; it only sets the scale of calibrated times.
REFERENCE_S = 0.0012


def reference():
    d = {}
    acc = 0
    for i in range(3500):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        acc += len(str(i))
    ordered = sorted(d.items(), key=lambda kv: kv[1])
    return acc + len({k for k, _ in ordered})


class Sampler:
    """Runs ``reference()`` every ``INTERVAL_S`` while started."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def sampled_s(self, a, b):
        """Time spent in reference loops that started in [a, b)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(self.durations[lo:hi])

    def speed(self, a, b):
        """REFERENCE_S over the reference loop's time around [a, b): the
        mean over the samples taken in it and the nearest one on either
        side (the speed changes within a tenth of a second)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        near = self.durations[max(lo - 1, 0) : hi + 1]
        if not near:
            raise RuntimeError("no reference samples were taken")
        return sum(REFERENCE_S / d for d in near) / len(near)

    def calibrated(self, a, b):
        """The calibrated duration of the interval [a, b) of perf_counter."""
        return (b - a - self.sampled_s(a, b)) * self.speed(a, b)

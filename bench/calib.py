"""Machine-speed calibration: a fixed pure-Python reference computation.

Wall time of identical code drifts between processes and within a run on
a shared machine.  The benchmark times `reference()` throughout a run and
reports every timing in calibrated seconds, wall * R0 / R, where R is the
median time of the reference samples taken nearest to the timed interval
and R0 is the constant below.  The reference imports nothing from
cantorconj; it does the same kind of work the deciders do (small integer
matrix products, tuple building, dict tallies).
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# Median reference time, in seconds, on the machine whose figures the
# README gives.  Calibrated seconds are seconds of that machine at that speed.
R0 = 0.00150

_MATRIX = ((2, 1, 0), (1, 1, 1), (0, 1, 2))
_CHECKSUM = 21312


def reference() -> int:
    """Matrix products modulo a small prime, residue tallies and a sort:
    small-integer interpreter work, like the deciders' own."""
    acc = _MATRIX
    tally = {}
    for _ in range(75):
        acc = tuple(
            tuple(sum(row[k] * _MATRIX[k][j] for k in range(3)) % 9973 for j in range(3))
            for row in acc
        )
        for row in acc:
            for x in row:
                tally[x % 61] = tally.get(x % 61, 0) + 1
    return sum(k * v for k, v in sorted(tally.items()))


class Calibrator:
    """Reference samples taken throughout a run, and the calibration of an
    interval of wall time from the samples nearest to it.

    The speed of this kind of shared machine changes by up to a factor of
    two between regimes that last from tens of milliseconds to about a
    second, so one median over a whole run does not track it.  While
    `running()` is active, an interval timer takes a sample every `every`
    seconds, also in the middle of a long operation (the handler runs
    between bytecodes of the main thread); `busy(start, end)` gives the time
    the samples took inside an interval, which the caller subtracts from
    the interval's wall time.  Outside it, `maybe_sample` takes one when
    `every` has passed.  An interval [start, end] is calibrated with the
    median of the samples inside it and the NEAR samples on each side.
    """

    NEAR = 3

    def __init__(self, every: float = 0.02):
        self.every = every
        self.starts = []  # sample start times, increasing
        self.times = []  # sample end times, increasing
        self.samples = []
        self._last = float("-inf")
        self._sampling = False

    def sample(self, count: int = 1) -> None:
        self._sampling = True
        try:
            self._sample(count)
        finally:
            self._sampling = False

    def _sample(self, count):
        for _ in range(count):
            t0 = time.perf_counter()
            value = reference()
            t1 = time.perf_counter()
            if value != _CHECKSUM:
                raise AssertionError("reference computation returned %r" % value)
            self.starts.append(t0)
            self.times.append(t1)
            self.samples.append(t1 - t0)
            self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:  # never inside a sample being taken
            self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample on an interval timer for the duration of the block."""
        old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def busy(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent taking samples."""
        lo = max(0, bisect.bisect_right(self.times, start))
        hi = bisect.bisect_left(self.starts, end)
        return sum(
            max(0.0, min(end, self.times[i]) - max(start, self.starts[i]))
            for i in range(lo, hi)
        )

    def scale(self, start: float, end: float) -> float:
        """R0 / R for the interval: multiply its wall time by this."""
        lo = max(0, bisect.bisect_left(self.times, start) - self.NEAR)
        hi = bisect.bisect_right(self.times, end) + self.NEAR
        near = self.samples[lo:hi]
        if not near:
            raise AssertionError("no reference sample near the interval")
        return R0 / statistics.median(near)

    def ratio(self) -> float:
        """R0 / R over the whole run, for reporting."""
        return R0 / statistics.median(self.samples)

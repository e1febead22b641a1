"""Machine speed, sampled by a fixed pure-Python loop between measurements.

On a shared host the same work can take half as long again from one minute
to the next, in CPU time as well as wall time, so raw timings from separate
runs are not comparable.  Every pass of the benchmark therefore runs a short
burst of a fixed loop of Fraction arithmetic (the kind of work icosym does)
after each measurement, about a tenth as long as the measurement, and
reports its timings scaled to a nominal speed of the loop.  The loop is the
benchmark's own code and runs with the garbage collector off, so that a
collection of the heap icosym has built up (its caches grow during a run)
is not charged to it.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

NOMINAL_UNIT_S = 2e-4  # seconds one unit of the loop takes at nominal speed
DUTY = 0.1  # calibration time per measured second
MIN_WINDOW_S = 0.002
_A, _B, _C = Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13)


class Speed:
    def __init__(self) -> None:
        # burst end times, and running totals of loop seconds and units
        self.ends: list[float] = []
        self.seconds: list[float] = [0.0]
        self.units: list[int] = [0]
        self.sample(0.0)  # so that every measurement has a burst before it

    def sample(self, after_s: float) -> None:
        """Run the loop for about DUTY * after_s seconds (two units at least)
        right after a measurement of after_s seconds."""
        units = max(2, int(after_s * DUTY / NOMINAL_UNIT_S))
        # a collection of the measured program's heap must not be charged
        # to the loop
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(units):
            for _ in range(50):
                _A * _B + _C
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.seconds.append(self.seconds[-1] + end - t0)
        self.units.append(self.units[-1] + units)

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """The factor that takes a time measured here to the nominal speed.

        For a measurement from *start* to *end* it comes from the bursts
        that end within one measurement length (MIN_WINDOW_S at least) of
        it, and always the bursts just before and just after it: the
        machine's speed changes within milliseconds, and a window that
        follows the measurement tracks it best.  Without arguments it
        comes from every burst.
        """
        lo, hi = 0, len(self.ends)
        if start is not None:
            width = max(end - start, MIN_WINDOW_S)
            before = bisect.bisect_left(self.ends, start) - 1
            after = bisect.bisect_left(self.ends, end)
            lo = max(0, min(bisect.bisect_left(self.ends, start - width), before))
            hi = min(hi, max(bisect.bisect_right(self.ends, end + width), after + 1))
        seconds = self.seconds[hi] - self.seconds[lo]
        return NOMINAL_UNIT_S * (self.units[hi] - self.units[lo]) / seconds

    def measure(self, fn) -> float:
        """Run fn once; its time at nominal speed."""
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        self.sample(t1 - t0)
        return (t1 - t0) * self.scale(t0, t1)


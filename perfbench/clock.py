"""Timing that absorbs the machine's speed swings.

On a shared 2-core Xeon box the same work ran up to 1.7 times slower for
minutes at a time, which no number of repeats within a 30-s run averages
out. A fixed pure-Python calibration loop (deque, integer and dict work,
like the package's own inner loops) slows down by nearly the same factor:
over 30-s windows the median time of a 300-match batch moved from 27 to
38 ms while its ratio to such a loop stayed within 3 % of its median.

So the benchmark runs the calibration loop between ops, at least every
CAL_EVERY_S, and scales each op's wall time by CAL_REF_S divided by the
median calibration time around that op. The results read as seconds on a
machine where the loop takes CAL_REF_S, which is about what it took on
that box when nothing else was running. The calibration loop does not
call the package, so no change to the package moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import deque

CAL_REF_S = 0.0018   # loop time that counts as speed 1.0: that box, idle
CAL_EVERY_S = 0.25   # calibrate at least this often while ops run
CAL_MARGIN_S = 1.0   # use the calibrations this close to an op


def calibration_loop() -> int:
    d = deque(range(64))
    acc = 0
    seen = {}
    for i in range(10_000):
        x = d.popleft()
        d.append((x * 31 + i) & 1023)
        acc ^= x
        if i & 7 == 0:
            seen[(acc, i & 255)] = i
    return acc + len(seen)


class Clock:
    """Calibration samples over time and the speed factor at any moment."""

    def __init__(self):
        self.at = []       # perf_counter when each calibration ended
        self.took = []     # its duration

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            self.at.append(t1)
            self.took.append(t1 - t0)

    def tick(self) -> None:
        """Calibrate if the last calibration is older than CAL_EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.calibrate()

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the median calibration near [start, end]."""
        lo = bisect.bisect_left(self.at, start - CAL_MARGIN_S)
        hi = bisect.bisect_right(self.at, end + CAL_MARGIN_S)
        near = self.took[lo:hi]
        if len(near) < 2:  # fall back to the nearest one on each side
            i = bisect.bisect_left(self.at, start)
            near = self.took[max(i - 1, 0):i + 1]
        return CAL_REF_S / statistics.median(near)

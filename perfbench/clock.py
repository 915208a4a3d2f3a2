"""Wall times scaled to a reference speed of the host.

On a host shared with other tenants the speed of a core drifts: a fixed
pure-Python loop can take 1.5 to 2 times as long for tens of seconds, while
the thread's CPU time still equals its wall time. A median over one run
cannot remove drift that lasts longer than the run. So the clock runs a
calibration just before and just after every timed call: three runs each of
a fixed kernel that does not use fedcp, made of the same kind of work as
fedcp's hot loop (a Python loop over small numpy row products). A call's
scaled time is its wall time times ``REFERENCE_S`` over the mean time of
those six kernel runs. On a core as fast as the reference the scaled time
equals the wall time; when the host slows down, the kernel slows with it
and the scaled time stays put. A change to fedcp moves the call's wall time
but not the kernel's.

Five runs of each workload, scored every way from the same timings, gave
these quartile spreads of the median run step: raw wall time 34 %, 18 % and
17 % (small_rounds, readme_pooled, cli_large_io); scaled by each call's own
calibrations 3 %, 9 % and 18 %; scaled by the kernel runs within 2.5 s of
the call 6 %, 15 % and 18 %; scaled by one mean over the whole run 22 %,
19 % and 11 %.
"""

import statistics
import time

import numpy as np

# seconds the kernel takes on the reference host (2-vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6) in its fastest state
REFERENCE_S = 0.010
_KERNEL_STEPS = 5000
_KERNEL_RUNS = 3  # before and after each call


class Clock:
    """Times calls; scales each by the calibrations made around it."""

    def __init__(self):
        self._rows = np.random.default_rng(0).random((64, 8))
        self._calls = []  # (wall seconds, mean kernel seconds)

    def _kernel(self):
        rows = self._rows
        acc = 0.0
        for n in range(_KERNEL_STEPS):
            a = rows[n % 64]
            b = rows[(n * 7) % 64]
            acc += float(a @ (a * b))
        return acc

    def _calibrate(self):
        times = []
        for _ in range(_KERNEL_RUNS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return times

    def time(self, fn, *args):
        """``(fn(*args), call index)``; pass the index to ``wall`` or ``scaled``."""
        before = self._calibrate()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self._calls.append((wall, statistics.fmean(before + self._calibrate())))
        return result, len(self._calls) - 1

    def wall(self, call):
        return self._calls[call][0]

    def scaled(self, call):
        """The call's wall time at the reference speed."""
        wall, kernel = self._calls[call]
        return wall * REFERENCE_S / kernel

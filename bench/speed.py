"""Times in reference seconds: CPU time corrected for the machine's speed.

On a shared machine the speed of a core swings by half or more for tens of
seconds at a time (another tenant's work on the same physical core, say), and
the process's CPU time swings with it: a fixed query loop ran at 3.2 ms per
query in one half-minute and at 5.5 ms in the next, so a whole run can fall in
a slow spell. A calibration loop that runs next to the measured work slows in
step with it: the ratio of the two moved by 2% where each alone moved by 25%.

While a ``Sampler`` is active, a SIGPROF timer runs ``calibrate`` (a fixed
loop of small numpy and Python work, no ``invmet`` code) every ``PERIOD`` CPU
seconds, in the middle of whatever call is running, so a call that runs for
seconds (verify-all) is sampled all along. ``Sampler.now()`` is the main
thread's CPU time less the time spent calibrating: the program runs on the
main thread, and while a process-wide CPU timer is armed the process's own
CPU clock only advances in scheduler ticks (4 ms), where the thread's stays
exact. ``Sampler.other_threads`` is the share of the process's CPU time spent
off the main thread, which that clock would miss.

One calibration is noisy (consecutive ones differ by 20% a fifth of the
time), so each is replaced by the median of the ``SMOOTH`` around it, which
follows the swings of seconds but not the noise. ``Sampler.scale`` turns
intervals of the clock into reference seconds: it multiplies each by
``REFERENCE_S`` over the mean of the smoothed calibrations taken inside it and
the one on either side. A time in reference seconds is what the work would
take on a core that runs the calibration loop in ``REFERENCE_S``: on the
2-vCPU x86_64 machine the benchmark was written on, that is its speed in a
fast spell.

The loop's own time depends somewhat on the work around it: there, it ran the
same after queries or distances of either query workload, but 18% slower after
a pure-Python loop and 28% after a sleep. A change that makes the program's
work very different in kind can so shift the reference too, so a run also
prints the median calibration and, untraced, its median pass in plain CPU
seconds. A calibration that lands inside a call adds about 1% to its time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

CLOCK = time.thread_time
# CPU seconds between two calibrations, and the calibration loop's length;
# one calibration takes 0.5 to 1 ms, 5 to 10% of the period.
PERIOD = 0.01
CALIBRATION_STEPS = 75
SMOOTH = 9   # calibrations per running median, about 0.1 s of work
# The calibration loop's CPU time in a fast spell of the machine the benchmark
# was written on; it makes one reference second about one second there.
REFERENCE_S = 0.5e-3

_M = np.array([[0.8, 0.3 + 0.2j], [0.1j, 0.9]])


def calibrate() -> float:
    """CPU seconds of one run of the fixed calibration loop."""
    t = CLOCK()
    z, acc = np.ones(2, dtype=complex), 0.0
    for i in range(CALIBRATION_STEPS):
        z = _M @ z
        z = z / np.linalg.norm(z)
        acc += abs(z[0]) * i % 7
        acc += len(str({"step": i, "acc": [i, acc]}))
    return CLOCK() - t


class Sampler:
    """Samples the machine's speed while active; a context manager."""

    def __init__(self):
        self._at, self._cost, self._spent = [], [], 0.0

    def _sample(self, *_):
        t = CLOCK()
        cost = calibrate()
        self._at.append(t - self._spent)
        self._cost.append(cost)
        self._spent += CLOCK() - t

    def now(self) -> float:
        """CPU seconds of this thread, less the time spent calibrating."""
        while True:   # a sample taken between the two reads would skew them
            spent = self._spent
            t = CLOCK()
            if spent == self._spent:
                return t - spent

    def __enter__(self):
        self._cpu = (time.process_time(), CLOCK())
        self._sample()
        self._handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._handler)
        self._sample()
        process, thread = (b - a for a, b in zip(self._cpu, (time.process_time(), CLOCK())))
        self.other_threads = 1.0 - thread / process

    def median_calibration(self) -> float:
        return float(np.median(self._cost))

    def scale(self, start, end) -> np.ndarray:
        """Intervals ``[start, end]`` of ``now()`` in reference seconds; call it
        once the intervals are over, so the calibration after each is taken."""
        start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
        at, k = np.asarray(self._at), SMOOTH // 2
        padded = np.pad(np.asarray(self._cost), k, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, 2 * k + 1),
                           axis=1)
        total = np.concatenate([[0.0], np.cumsum(smooth)])
        lo = np.maximum(np.searchsorted(at, start, "right") - 1, 0)
        hi = np.minimum(np.searchsorted(at, end, "left"), len(at) - 1)
        mean = (total[hi + 1] - total[lo]) / (hi - lo + 1)
        return (end - start) * REFERENCE_S / mean

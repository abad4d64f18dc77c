"""Host speed probe: a fixed pure-Python kernel timed every quarter second.

On a shared virtual machine the same work runs up to a third slower in slow
spells that last for minutes, far more than the differences the benchmark
has to resolve, and no statistic taken within one run removes a spell that
covers the whole run.  Each timed operation is therefore reported at
reference speed: its wall time times REFERENCE_S over the median kernel
time of the samples taken during it and next to it.  An interval timer
takes the samples, so long operations are sampled while they run; the
kernel's own time is left out of the operation's.  The kernel does the kind
of work the library does (rational arithmetic and small dicts), and it is
benchmark code, so a change to the library cannot speed it up or slow it
down.
"""

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median

# The kernel's median time on the 2-vCPU machine the benchmark was
# calibrated on; it fixes the unit of reference-speed seconds and nothing
# else.
REFERENCE_S = 0.0052
INTERVAL_S = 0.25
NEAREST = 3     # samples taken on each side of an operation


def kernel():
    total = Fraction(0)
    counts = {}
    for i in range(1, 1400):
        total += Fraction(1, i % 89 + 1)
        counts[i % 37] = counts.get(i % 37, 0) + i
    return total


class SpeedProbe:
    """Samples the kernel on SIGALRM while used as a context manager."""

    def __init__(self):
        self.at = []        # end of each sample, perf_counter seconds
        self.took = []      # kernel seconds of each sample
        self.spent = 0.0    # kernel seconds so far
        self._handler = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scale(self, start, end):
        """REFERENCE_S over the median kernel time of the samples taken
        between start and end and the NEAREST ones on either side."""
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, end)
        return REFERENCE_S / median(
            self.took[max(0, lo - NEAREST):hi + NEAREST])

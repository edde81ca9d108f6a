"""Host-speed calibration for the benchmark's timings.

The shared host this benchmark was built on changes speed by up to 1.9x
over tens of seconds, for every kind of Python work alike: a pass that
took 2.4 s in one minute took 4.5 s in the next, and a pure-Python loop
timed beside it slowed by the same factor. So every timing is taken beside
this fixed loop and reported at the loop's nominal speed:

    reported = measured * NOMINAL_S / (loop time measured around it)

A program change cannot touch the loop, so a faster program still reads
faster; only the host's drift cancels. Raw timings are printed as well.
"""

import statistics
import time

# the loop's time on the unloaded host; it sets the scale of every
# reported time and must never change once a baseline exists
NOMINAL_S = 0.0005


def loop():
    """A fixed slice of pure-Python work: small-int dict updates and
    big-int products, the two kinds of work the program mostly does."""
    counts = {}
    big = 7**300
    total = 0
    for i in range(1500):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += big * (i | 1) % 1000003
    return total


def timed_loop():
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def factor(loop_times):
    """Multiplier taking a time measured beside these loop times to the
    nominal speed."""
    return NOMINAL_S / statistics.median(loop_times)

"""Machine-speed calibration for the benchmark's timings.

On the 2-vCPU Xeon virtual machine the benchmark was tuned on, each CPU runs
at one of two speeds that alternate every second or so: the fixed task below
takes about 1.5 ms at the fast speed and 2.5 ms at the slow one, and the
share of slow time drifts over minutes.  Raw wall times of unchanged code moved by 10-40 %
between runs there.

So every timed operation is bracketed by two runs of ``calibrate`` on the
same CPU (the run is pinned to one), and its wall time is multiplied by
``REFERENCE_S`` over the mean of the two.  ``REFERENCE_S`` is the task's time
at the fast speed, so the scaled figures read as seconds at that speed.  The
task mixes the operations the package spends its time on: tuple subsets
tallied in a dict, big-integer bit masks and Fractions.  The raw times stay
in the result file.
"""

import os
import time
from fractions import Fraction
from itertools import combinations

REFERENCE_S = 0.0015


def calibrate():
    """Seconds one fixed pure-Python task takes now."""
    start = time.perf_counter()
    counts = {}
    for block in range(200):
        row = tuple((block * 7 + j * 13) % 101 for j in range(7))
        for sub in combinations(row, 3):
            counts[sub] = counts.get(sub, 0) + 1
    mask = 0
    for m in range(300):
        mask |= 1 << (m * 37 % 1000)
        mask.bit_count()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 1)
    return time.perf_counter() - start


def timed(operation):
    """Run ``operation()``; return (result, scaled seconds, raw seconds)."""
    before = calibrate()
    start = time.perf_counter()
    result = operation()
    raw = time.perf_counter() - start
    after = calibrate()
    return result, raw * REFERENCE_S * 2 / (before + after), raw


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that calibration
    and timed work see the same CPU's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the same op can take 1.7 times as long from
one minute to the next, with no steal time reported, so wall-clock figures
of identical work spread by a quarter across runs.  The benchmark
therefore times a fixed pure-Python loop right before each op (and each
set-up launch) and scales the op's time to a machine on which the loop
takes REFERENCE_S: the time is multiplied by REFERENCE_S over the loop
time, the median of the last few passes.
Over repeated passes of the accel-deep design this cut the run-to-run
spread of the median op time from 22% to about 6% and of the tail from
18% to about 5%.  Runs print the raw wall-clock values as well.
"""

from __future__ import annotations

from time import perf_counter

# The loop's time on the x86-64 machine the benchmark was tuned on.
REFERENCE_S = 0.002


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    start = perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return perf_counter() - start

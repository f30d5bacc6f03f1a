"""The machine's current speed, from a fixed kernel of the benchmark's own.

The machine's speed drifts by a fifth or more over minutes, through
contention for the host, and no run length averages that away.  So the
times of the workloads in workloads.SCALED are scaled to a reference
speed: multiplied by REFERENCE_KERNEL_S over the median time of this
kernel (Python and small numpy steps, like the library's own), timed
between cases throughout the run.  hypersign cannot move the kernel, so
a program that gets faster reads faster by the same share.
"""

import time

# The kernel's time at an idle moment of the machine the bounds were set on.
REFERENCE_KERNEL_S = 0.0033


def kernel_s() -> float:
    """Best of three timings of the kernel; about 3 ms each."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for j in range(20_000):
            total += j * j
        vec = np.arange(40.0)
        for _ in range(800):
            vec = vec * 1.0000001 + 0.5
        best = min(best, time.perf_counter() - start)
    return best

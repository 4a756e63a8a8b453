"""Fixed reference work that measures how fast the host runs Python right now.

On a shared host the speed of a vCPU drifts: over seven minutes of a 2-vCPU
VM the CPU time of one fixed ``run_training`` call fell from 0.51 s to 0.28 s
and rose again, and within a run it can change by 1.5x in a few seconds.
The medians of ten benchmark runs of the same code spread by up to 0.34 of
their value, in CPU time as in wall time.  A loop of interpreted Python and
small-array numpy calls, the mix the training loop spends its time in, slows
and speeds up with it: over 9-second windows the CPU time of a 50 ms version
of it correlated with the training loop's at 0.96.  Scaled by the slices
below, the medians of ten runs per workload spread by 0.01-0.05, against
0.07-0.19 unscaled in the same runs.

So the worker runs a short slice of that loop between rollouts, about every
``SLICE_EVERY_S`` CPU seconds of the program's own work, takes the slices'
time out of the program's times, and reports ``REFERENCE_SLICE_S`` over the
slices' mean CPU time as the rep's speed factor.  Multiplying a CPU time by
it gives the time at a fixed speed: the speed at which a slice takes
``REFERENCE_SLICE_S`` CPU seconds.  The slice touches nothing of the program,
so a change to the program moves the scaled times and leaves the slices alone.

    python3 perfbench/reference.py     # prints the mean CPU seconds of a slice
"""

from __future__ import annotations

from time import process_time

import numpy as np

# About the CPU time of one slice on the 2-vCPU Xeon VM the benchmark was
# written on, at its faster speed.
REFERENCE_SLICE_S = 0.0015
SLICE_EVERY_S = 0.05

_DATA = np.random.default_rng(0).random(4096)


def reference_slice() -> float:
    total = 0.0
    counts: dict[int, float] = {}
    for i in range(240):
        x = _DATA[(i * 8) % 4000:(i * 8) % 4000 + 8]
        e = np.exp(x - x.max())
        total += float((e / e.sum()) @ x)
        counts[i % 101] = counts.get(i % 101, 0.0) + total
        if i % 60 == 0:
            total += float(np.sqrt(_DATA + 1.0).sum())
    return total


if __name__ == "__main__":
    begin = process_time()
    for _ in range(500):
        reference_slice()
    print((process_time() - begin) / 500)

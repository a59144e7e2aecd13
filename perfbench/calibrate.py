"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts. On a 2-vCPU KVM
guest (Intel Xeon, 2.1 GHz) the same sim-gate gate took from 1.0 s to
1.46 s within two minutes, and the process's CPU time drifted alike. So the
cause is contention for the core, its caches and memory; descheduling,
which CPU time would hide, is not. The benchmark therefore times this fixed
kernel right before and right after every timed gate or setup probe, and
scales each measured time to the reference speed:

    calibrated = wall * REFERENCE_S / mean(kernel before, kernel after)

On that host, over ten runs per workload, this cut the run-to-run spread
(quartile distance over median) of the median gate time from 6 % to 2 %
on sim-gate and from 11 % to 3 % on sim-archive.

The kernel mixes the two kinds of work the gates do: numpy gathers and
medians over a resample-sized index array, and a pure-Python integer loop.
It calls no duetbench code, so no change to duetbench moves it.

The kernel allocates about 72 MB, as much as sim-gate's own bootstrap
chunk. It therefore never runs in the measuring child, whose peak RSS is
`peak_rss_mb`: the child writes `REQUEST` as a line to its stdout, and
`run.py` runs the kernel in its own process and writes the time back as a
line to the child's stdin.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference host named above.
REFERENCE_S = 0.16

# The line a measuring child prints to have the kernel run for it.
REQUEST = "perfbench:kernel"


def kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    rng = np.random.default_rng(12345)
    values = rng.normal(size=1500)
    t0 = time.perf_counter()
    for _ in range(2):
        idx = rng.integers(0, values.size, size=(2000, values.size))
        np.median(values[idx], axis=1)
    x = 0
    for i in range(150_000):
        x = (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two kernel runs, at the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (before + after)

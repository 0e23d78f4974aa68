"""Fixed calibration kernel: how fast the host runs right now.

The benchmark's host is a shared 2-vCPU VM whose speed moves by up to 1.9x
over seconds to minutes.  The kernel below is small numpy work of the same
kind as the program's (einsum trace-outs and 4x4 / 16x16 eigvalsh calls on
single points) but imports nothing from wtangles, so no change to the
program can move it.  run.py times it between operations and reports each
operation's time divided by the median kernel time around it, scaled by
NOMINAL_S: a time in reference seconds, from which most of the host's
speed swings cancel.
"""

from __future__ import annotations

import statistics
import time

import reference as ref

POINTS = ((0.0, 0.0), (0.1, 0.7), (0.25, 0.25), (0.4, 0.05), (0.55, 0.6), (0.7, 0.35))
# the kernel's time on the reference host in its fast state (see README.md)
NOMINAL_S = 0.0025


def kernel_seconds() -> float:
    start = time.perf_counter()
    for r_c, r_d in POINTS:
        ref.measures([r_c], [r_d])
    return time.perf_counter() - start


def host_seconds(repeats: int = 5) -> float:
    """Median kernel time after one untimed call (for a fresh process)."""
    kernel_seconds()
    return statistics.median(kernel_seconds() for _ in range(repeats))

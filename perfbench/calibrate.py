"""The calibration kernel that the end-to-end times are scaled by.

The benchmark runs on a few cores of a shared host, whose speed drifts with
the neighbours' load, within seconds and over minutes: the same small_batch
pass took from 4.2 s to 7.5 s within five minutes, and a whole run can fall
in a slow stretch. A fixed kernel, timed just before every op, measures the
host's speed at that moment in the same process. Each op's latency is then
scaled by REFERENCE_S / (the kernel's time before it), which gives seconds
at the reference speed. The kernel does what the program spends most of
its time on, numpy calls on small arrays made from Python. Of six candidate
kernels (also a pure-Python loop, matrix products, streaming and gathering
over 4 MiB, and building Python containers), timed before every op of all
three workloads, this one tracked the program's slowdowns best.
It does not use the package, so no change to the program can change what
it measures.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on 2 shared cores of the reference host
# (x86-64, Linux, Python 3.11, numpy on one BLAS thread).
REFERENCE_S = 0.007

_ROWS = np.random.default_rng(0).integers(0, 8, size=(24, 6))


def kernel_s() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(60):
        np.unique(_ROWS, axis=0)
        (_ROWS[:, None, :] != _ROWS[None, :, :]).sum(axis=2)
    return time.perf_counter() - start

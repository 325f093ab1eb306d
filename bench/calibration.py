"""Host-speed calibration kernel shared by every timed measurement.

On a shared 2-core host the speed of a core switches between states about
1.7x apart every few seconds, and process CPU time switches with it, so
medians of raw times move between runs by more than any useful bound.  The
benchmark therefore runs this fixed kernel before the first timed command
and after each one, and reports each command time divided by the mean of
its two neighbouring kernel times, times REFERENCE_S: seconds on a host
where the kernel takes REFERENCE_S.  Raw medians are printed alongside.
On a 2-core x86 VM, ten seeds per workload, the interquartile range of run
medians over their median was 0.05-0.08 normalized against 0.09-0.18 raw
with this kernel.  The kernel lasts about 0.1 s; a quarter of that left
mean-control (2 threads, 2 s per command) at times noisier than raw.

The kernel mixes what the program spends its time on: interpreted Python
that builds small complex arrays, 4x4 matrix products, and a batched LAPACK
``eigh`` on 4x4 Hermitian matrices.  It uses no holonomy_sim code, so a
change to the program cannot move the yardstick.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# About the kernel's time in the fast state of a 2-core x86 VM (Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).  Any fixed value works; it only
# sets the scale.
REFERENCE_S = 0.08

_rng = np.random.default_rng(12345)
_m = _rng.standard_normal((4800, 4, 4)) + 1j * _rng.standard_normal((4800, 4, 4))
_STACK = _m + _m.conj().transpose(0, 2, 1)


def kernel_time() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = perf_counter()
    np.linalg.eigh(_STACK)
    u = np.eye(4, dtype=complex)
    for i in range(12000):
        h = np.zeros((4, 4), dtype=complex)
        h[1, 2] = math.sin(1e-3 * i)
        h[2, 1] = h[1, 2].conjugate()
        u = 0.5 * (h @ u + u)
    return perf_counter() - start


def normalized(times, kernel_times):
    """Scale time i by REFERENCE_S over the mean of kernel times i and i+1,
    the kernel runs just before and just after it."""
    return [t * REFERENCE_S / (0.5 * (kernel_times[i] + kernel_times[i + 1]))
            for i, t in enumerate(times)]

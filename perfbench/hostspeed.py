"""Host-speed calibration with a fixed kernel that runs no code of the package.

Shared virtual CPUs change speed by tens of percent from one minute to the
next: on a 2-vCPU 2.1 GHz Xeon virtual machine the same Table 1 pass measured
3.4 s and 5.8 s forty minutes apart, with CPU time tracking wall time.  That
swamps the differences a benchmark must resolve.  A run therefore times this
kernel next to its passes and scales every timing by
``REFERENCE_S / median(kernel)``: the result is seconds at the reference host
speed, and a change to the package cannot move the kernel.  The kernel mixes
what the package spends its time on -- Python list building, small numpy
arrays, a sparse LU solve -- so it slows with the host roughly as the
workloads do.  It tracks drift over minutes; the second-to-second jitter is
left to the medians of the run.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np
import scipy.sparse as sp

# Bound at import, before a traced run wraps ``scipy.sparse.linalg.spsolve``:
# the kernel's solves must not count as the package's sparse LU calls.
from scipy.sparse.linalg import spsolve

#: Kernel seconds that define the reference speed: scaled timings are the
#: seconds a host on which the kernel takes this long would need.
REFERENCE_S = 0.05
KERNEL_SIZE = 2000


def kernel_seconds(n: int = KERNEL_SIZE) -> float:
    """Build and solve a fixed sparse system row by row; returns its wall time."""
    start = time.perf_counter()
    data: List[float] = []
    indices: List[int] = []
    indptr = [0]
    for row in range(n):
        values = np.array([-0.3, -0.2, 1.0 + (row % 3) * 0.1])
        data.extend(values.tolist())
        indices.extend(((row * 7 + 1) % n, (row * 13 + 5) % n, row))
        indptr.append(len(data))
    matrix = sp.csr_matrix((np.asarray(data), np.asarray(indices), np.asarray(indptr)), shape=(n, n))
    matrix.sum_duplicates()
    solution = spsolve(matrix.tocsc(), np.ones(n))
    if not np.all(np.isfinite(solution)):
        raise RuntimeError("calibration kernel produced a non-finite solution")
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples of one run and the scale factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, seconds: float) -> None:
        """Time the kernel repeatedly for about ``seconds`` (at least once)."""
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        while time.perf_counter() - start < seconds:
            self.samples.append(kernel_seconds())

    @property
    def slowdown(self) -> float:
        """Median kernel time over the reference time (1.0 on the reference host)."""
        return statistics.median(self.samples) / REFERENCE_S

    def scale(self, seconds: float) -> float:
        """``seconds`` measured on this host, expressed at the reference speed."""
        return seconds / self.slowdown

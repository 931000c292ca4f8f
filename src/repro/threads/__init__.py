"""Fine-grained "Pthreads" substrate: pattern-parallel likelihood kernels.

RAxML's production fine-grained parallelization is a Pthreads master/worker
scheme over the *pattern* axis of the alignment: every worker owns a slice
of patterns, computes its share of each CLV update / likelihood reduction,
and the master combines per-thread partial sums (paper Section 2).

Real Python threads cannot speed up this arithmetic (GIL), so the layer is
*virtual*: a pluggable :class:`RegionTiming` model charges simulated time
per parallel region — the maximum over the per-thread chunk costs plus a
synchronisation term, exactly the quantity a busy-wait barrier
implementation pays — from the chunk *sizes* alone.  The likelihood
kernels compute each region in one sweep over the whole pattern axis;
executing it slice by slice gives bit-for-bit the same arrays, which the
test suites prove (``tests/test_kernel_sweeps.py``) so that no run has to
pay for it T times.
"""

from repro.threads.partition import (
    contiguous_chunks,
    cyclic_assignment,
    chunk_sizes,
    weighted_chunks,
    imbalance,
)
from repro.threads.timing import RegionTiming, ZeroTiming, LinearRegionTiming
from repro.threads.pool import VirtualThreadPool

__all__ = [
    "contiguous_chunks",
    "cyclic_assignment",
    "chunk_sizes",
    "weighted_chunks",
    "imbalance",
    "RegionTiming",
    "ZeroTiming",
    "LinearRegionTiming",
    "VirtualThreadPool",
]

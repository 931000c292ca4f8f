"""Fine-grained "Pthreads" substrate: pattern-parallel likelihood kernels.

RAxML's production fine-grained parallelization is a Pthreads master/worker
scheme over the *pattern* axis of the alignment: every worker owns a slice
of patterns, computes its share of each CLV update / likelihood reduction,
and the master combines per-thread partial sums (paper Section 2).

Real Python threads cannot speed up this arithmetic (GIL), so the layer is
*virtual*: the kernels are executed per-slice for real (bit-for-bit the
same results as one-shot evaluation, proving the decomposition), while a
pluggable :class:`RegionTiming` model charges simulated time — the maximum
over the per-thread chunk costs plus a synchronisation term, exactly the
quantity a busy-wait barrier implementation pays per parallel region.
"""

from repro.threads.partition import (
    active_chunks,
    contiguous_chunks,
    cyclic_assignment,
    chunk_sizes,
    weighted_chunks,
    imbalance,
)
from repro.threads.timing import RegionTiming, ZeroTiming, LinearRegionTiming
from repro.threads.pool import VirtualThreadPool

__all__ = [
    "active_chunks",
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

"""Partitioning of the pattern axis across worker threads.

The likelihood engine uses :func:`chunk_sizes` only: virtual workers'
chunks are priced, never handed to a kernel.  The slice partitioners
serve ``VirtualThreadPool.run_region``, the ablations and the tests.
"""

from __future__ import annotations

import numpy as np


def chunk_sizes(n_items: int, n_threads: int) -> list[int]:
    """Balanced chunk sizes: the first ``n_items % n_threads`` chunks get
    one extra item.  Sizes sum to ``n_items``; threads beyond ``n_items``
    get empty chunks (RAxML simply leaves surplus workers idle — they
    still wait at the barrier, so region timing charges the full list).
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_threads)
    return [base + (1 if i < extra else 0) for i in range(n_threads)]


def contiguous_chunks(n_items: int, n_threads: int) -> list[slice]:
    """Contiguous balanced slices of ``range(n_items)`` (cache-friendly)."""
    sizes = chunk_sizes(n_items, n_threads)
    out: list[slice] = []
    start = 0
    for s in sizes:
        out.append(slice(start, start + s))
        start += s
    return out


def cyclic_assignment(n_items: int, n_threads: int) -> list[np.ndarray]:
    """Round-robin index sets (RAxML's actual assignment: pattern ``i``
    belongs to thread ``i mod T``), which balances per-pattern cost
    variation at the price of strided access."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    return [np.arange(t, n_items, n_threads) for t in range(n_threads)]


def weighted_chunks(costs: np.ndarray, n_threads: int) -> list[slice]:
    """Contiguous chunks balanced by per-pattern *cost* instead of count.

    Splits at the quantiles of the cumulative cost, so a thread owning
    expensive patterns gets fewer of them.  Used when per-pattern work is
    uneven (e.g. CAT category mixes or weighted bootstrap replicates).
    Returns ``n_threads`` slices covering ``range(len(costs))``.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError("costs must be 1-D")
    if np.any(c < 0):
        raise ValueError("costs must be non-negative")
    n = c.shape[0]
    if n == 0:
        return [slice(0, 0)] * n_threads
    cum = np.cumsum(c)
    total = cum[-1]
    if total <= 0:
        return contiguous_chunks(n, n_threads)
    bounds = [0]
    for t in range(1, n_threads):
        target = total * t / n_threads
        # The straddling item goes to whichever side lands closer to the
        # target (note: a single item heavier than total/T still bounds
        # the achievable balance from below — items are indivisible).
        idx = int(np.searchsorted(cum, target, side="left"))
        below = cum[idx - 1] if idx > 0 else 0.0
        above = cum[idx] if idx < n else total
        cut = idx if (target - below) <= (above - target) else idx + 1
        bounds.append(min(max(cut, bounds[-1]), n))
    bounds.append(n)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def imbalance(costs: np.ndarray, chunks: list[slice]) -> float:
    """Max-over-threads cost divided by the mean (1.0 = perfect balance)."""
    c = np.asarray(costs, dtype=np.float64)
    loads = [float(c[sl].sum()) for sl in chunks]
    mean = sum(loads) / len(loads) if loads else 0.0
    if mean <= 0:
        return 1.0
    return max(loads) / mean

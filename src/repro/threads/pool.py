"""The virtual thread pool: master/worker regions over pattern chunks,
priced on a virtual clock.

The likelihood engine computes every region in one whole-axis kernel
sweep and calls :meth:`VirtualThreadPool.charge_regions` with the pattern
count, which the pool prices once from the per-worker chunk sizes;
nothing in a run executes chunk by chunk.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.obs.recorder import current as _obs_current
from repro.threads.partition import chunk_sizes, contiguous_chunks
from repro.threads.timing import RegionTiming, ZeroTiming
from repro.util.timing import VirtualClock


class VirtualThreadPool:
    """Accounts simulated region time on a virtual clock.

    The pool mirrors RAxML's Pthreads master/worker design: the master
    broadcasts a job, each worker processes its pattern chunk, a barrier
    ends the region.  What a region costs depends on the chunk sizes
    only, so ``charge_region(s)`` advance the virtual clock by the modelled
    region time without executing anything — that time includes the
    region's reduction: worker threads never call MPI, the barrier is
    shared memory, and the timing model's synchronisation term prices
    it.  ``run_region`` charges the same time and does call a kernel
    once per chunk, for a caller that wants per-chunk results; no
    analysis uses it.
    """

    def __init__(
        self,
        n_threads: int,
        timing: RegionTiming | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self.timing = timing if timing is not None else ZeroTiming()
        self.clock = clock if clock is not None else VirtualClock()
        self.regions_executed = 0
        self._prices: dict[tuple[int, int], tuple[list[int], float]] = {}

    # -- execution --------------------------------------------------------

    def run_region(
        self,
        kernel: Callable[[slice], object],
        n_patterns: int,
        n_categories: int = 1,
    ) -> list:
        """One parallel region: ``kernel(chunk_slice)`` per thread.

        Returns the list of per-thread results (empty chunks yield
        ``None``) and charges the modelled region time to the clock.
        """
        chunks = contiguous_chunks(n_patterns, self.n_threads)
        results = [kernel(c) if c.stop > c.start else None for c in chunks]
        self.charge_region([c.stop - c.start for c in chunks], n_categories)
        return results

    def charge_region(self, chunk_patterns: Sequence[int], n_categories: int) -> float:
        """Advance the clock for one region without executing anything:
        the caller computes the region's full-vector results itself (the
        arithmetic is identical either way).
        """
        dt = self.timing.region_seconds(chunk_patterns, n_categories)
        self._advance(dt, chunk_patterns)
        return dt

    def charge_regions(self, n_regions: int, n_patterns: int, n_categories: int) -> float:
        """Charge ``n_regions`` balanced regions over ``n_patterns`` — the
        likelihood engine's only use of the pool.  One region's price is
        computed once per ``(n_patterns, n_categories)``, then added once
        per region: the clock takes the float sums of as many
        :meth:`charge_region` calls (``dt * n`` rounds differently)."""
        if n_regions < 0:
            raise ValueError("n_regions must be >= 0")
        key = (n_patterns, n_categories)
        if key not in self._prices:
            sizes = chunk_sizes(n_patterns, self.n_threads)
            self._prices[key] = sizes, self.timing.region_seconds(sizes, n_categories)
        sizes, dt = self._prices[key]
        start = self.clock.now
        for _ in range(n_regions):
            self._advance(dt, sizes)
        return self.clock.now - start

    def _advance(self, dt: float, chunk_patterns: Sequence[int]) -> None:
        """One region on the clock and, as its own span, on the recorder's
        per-thread lanes.

        The bottleneck chunk is busy for the whole compute window; every
        other thread's busy share scales with its chunk size — the rest
        of its lane is barrier wait, which is exactly the fine-grained
        load-imbalance picture the paper's Section 5.1 discusses.
        """
        t0 = self.clock.now
        self.clock.advance(dt)
        self.regions_executed += 1
        rec = _obs_current()
        if rec is None:
            return
        rec.count("threads.regions", 1)
        biggest = max(chunk_patterns) if chunk_patterns else 0
        busy = [
            dt * (c / biggest) if biggest > 0 else dt for c in chunk_patterns
        ]
        # A caller may pass fewer chunks than workers; every declared
        # track still gets a span.
        busy += [0.0] * (self.n_threads - len(busy))
        rec.thread_regions(t0, t0 + dt, busy)

    @property
    def virtual_time(self) -> float:
        return self.clock.now

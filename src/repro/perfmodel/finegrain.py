"""The fine-grained (Pthreads) timing model.

One *parallel region* — a CLV update or likelihood reduction over all
patterns, ended by a barrier — costs, in pattern-units::

    region(T) = max_chunk · c(chunk, T) + sync · T^e

where the per-pattern cost ``c`` carries the machine's cache and memory-
bandwidth behaviour::

    miss(chunk)  = chunk / (chunk + cache_patterns)          # miss fraction
    bw(T)        = 1 + penalty · max(0, T - bandwidth_cores) / bandwidth_cores
    c(chunk, T)  = 1 + (cache_factor - 1) · miss(chunk) · bw(T)

This reproduces the mechanisms the paper describes: per-thread chunks
shrink as T grows, so cache hit rates *improve* (superlinear speedup from
1 to 4 cores on Abe/Ranger/Triton, Fig 8); saturated memory buses inflate
miss costs at high thread counts (Abe drops fastest); the quadratic
barrier term caps useful thread counts for small-pattern data sets (the
optimal number of Pthreads "increases with the number of patterns").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.perfmodel.machines import MachineSpec


def pattern_cost(machine: MachineSpec, chunk: float, n_threads: int) -> float:
    """Per-pattern-category cost (pattern-units) of a thread working on a
    chunk of ``chunk`` patterns while ``n_threads`` share the node."""
    if chunk < 0:
        raise ValueError("chunk must be non-negative")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    miss = chunk / (chunk + machine.cache_patterns)
    over = max(0, n_threads - machine.bandwidth_cores)
    bw = 1.0 + machine.bandwidth_penalty * over / machine.bandwidth_cores
    return 1.0 + (machine.cache_factor - 1.0) * miss * bw


def _region_units(
    machine: MachineSpec, chunk: int, n_threads: int, n_categories: int
) -> float:
    """``region(T)`` of a region whose largest chunk is ``chunk`` patterns."""
    compute = chunk * n_categories * pattern_cost(machine, chunk, n_threads)
    sync = (
        machine.sync_pattern_units * n_threads**machine.sync_exponent
        if n_threads > 1
        else 0.0
    )
    return compute + sync


def region_pattern_units(
    machine: MachineSpec,
    n_patterns: int,
    n_threads: int,
    n_categories: int = 1,
) -> float:
    """Cost of one balanced parallel region, in pattern-units."""
    if n_patterns < 0:
        raise ValueError("n_patterns must be >= 0")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    return _region_units(
        machine, math.ceil(n_patterns / n_threads), n_threads, n_categories
    )


def finegrain_speedup(machine: MachineSpec, n_patterns: int, n_threads: int) -> float:
    """Fine-grained speedup S_f(T) = region(1) / region(T)."""
    if n_threads > machine.cores_per_node:
        raise ValueError(
            f"{machine.name} has {machine.cores_per_node} cores per node; "
            f"cannot run {n_threads} threads"
        )
    return region_pattern_units(machine, n_patterns, 1) / region_pattern_units(
        machine, n_patterns, n_threads
    )


def serial_pattern_cost(machine: MachineSpec, n_patterns: int) -> float:
    """Per-pattern serial cost including the machine's core speed — the
    quantity cross-machine comparisons (Fig 8, Table 5) are built on."""
    return pattern_cost(machine, n_patterns, 1) / machine.core_speed


@dataclass(frozen=True)
class MachineRegionTiming:
    """A :class:`repro.threads.timing.RegionTiming` implementation backed
    by a machine model, for wiring real (virtual-thread) runs to machine-
    accurate timing.  ``seconds_per_pattern_unit`` converts model units to
    simulated seconds."""

    machine: MachineSpec
    seconds_per_pattern_unit: float = 1e-7

    def region_seconds(self, chunk_patterns: Sequence[int], n_categories: int) -> float:
        if not chunk_patterns:
            return 0.0
        units = _region_units(
            self.machine, max(chunk_patterns), len(chunk_patterns), n_categories
        )
        return units * self.seconds_per_pattern_unit / self.machine.core_speed


"""The coarse-grained (MPI) stage-time model.

Combines the Table 2 work schedule with per-search costs from a stage
profile and the fine-grained thread speedup:

* every stage's per-rank time is (searches per rank) × (per-search cost)
  ÷ S_f(T), scaled to the target machine;
* a deterministic load-imbalance factor models "the last process to
  finish": the expected maximum over p ranks of a sum of k jittery search
  times exceeds the mean by ≈ cv·sqrt(2·ln p / k);
* the bootstrap stage ends with the code's one barrier; the last three
  stages run barrier-free, so their reported times are per-stage maxima
  (exactly how Figs 3–4 present them);
* MPI communication cost (one barrier + one bcast) is included and is
  negligible, as the paper stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mpi.comm import CommTiming
from repro.perfmodel.finegrain import region_pattern_units, serial_pattern_cost
from repro.perfmodel.machines import MACHINES, MachineSpec, machine_by_name
from repro.perfmodel.profiles import StageProfile
from repro.search.comprehensive import fast_count, slow_count
from repro.search.schedule import make_schedule

#: Rate-category counts of the search stages: CAT-based stages evaluate
#: one category per pattern; the thorough stage runs under GTRGAMMA (4).
STAGE_CATEGORIES = {"bootstrap": 1, "fast": 1, "slow": 1, "thorough": 4}


@dataclass(frozen=True)
class StageTimes:
    """Modelled wall-clock seconds per stage (last process to finish)."""

    bootstrap: float
    fast: float
    slow: float
    thorough: float
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.bootstrap + self.fast + self.slow + self.thorough + self.comm

    def as_dict(self) -> dict[str, float]:
        return {
            "bootstrap": self.bootstrap,
            "fast": self.fast,
            "slow": self.slow,
            "thorough": self.thorough,
            "comm": self.comm,
        }


def imbalance_factor(n_processes: int, items_per_process: int, cv: float) -> float:
    """Expected max-over-ranks inflation of a sum of jittery search times.

    For p ranks each summing ``k`` i.i.d. search times with coefficient of
    variation ``cv``, the slowest rank exceeds the mean by roughly
    ``cv / sqrt(k) · sqrt(2 ln p)`` (Gaussian extreme-value approximation).
    Deterministic on purpose: the analytic model should be smooth.
    """
    if n_processes < 1:
        raise ValueError("n_processes must be >= 1")
    if items_per_process < 1:
        raise ValueError("items_per_process must be >= 1")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    if n_processes == 1 or cv == 0:
        return 1.0
    return 1.0 + cv * math.sqrt(2.0 * math.log(n_processes) / items_per_process)


def _machine_scale(profile: StageProfile, machine: MachineSpec) -> float:
    """Serial per-pattern cost of ``machine`` relative to the profile's
    reference machine (the factor all per-search seconds scale by)."""
    ref = machine_by_name(profile.reference_machine)
    m = profile.dataset.patterns
    return serial_pattern_cost(machine, m) / serial_pattern_cost(ref, m)


def _stage_speedup(machine: MachineSpec, n_patterns: int, n_threads: int, stage: str) -> float:
    """Fine-grained speedup of one stage (its category count matters:
    GAMMA's 4 categories amortise the barrier cost over more compute)."""
    k = STAGE_CATEGORIES[stage]
    return region_pattern_units(machine, n_patterns, 1, k) / region_pattern_units(
        machine, n_patterns, n_threads, k
    )


def serial_time(
    profile: StageProfile,
    machine: MachineSpec | None = None,
    n_bootstraps: int = 100,
) -> float:
    """Serial (1 process, 1 thread) run time for ``n_bootstraps``."""
    machine = machine if machine is not None else MACHINES[profile.reference_machine]
    n_fast = fast_count(n_bootstraps)
    n_slow = slow_count(n_fast)
    seconds = (
        n_bootstraps * profile.bootstrap_search_seconds
        + n_fast * profile.fast_search_seconds
        + n_slow * profile.slow_search_seconds
        + profile.thorough_search_seconds
    )
    return seconds * _machine_scale(profile, machine)


def analysis_time(
    profile: StageProfile,
    machine: MachineSpec,
    n_bootstraps: int,
    n_processes: int,
    n_threads: int,
) -> StageTimes:
    """Modelled stage times of one hybrid run (p processes × T threads).

    The communication term is priced by the flat
    :class:`~repro.mpi.comm.CommTiming`, exactly as in the simulator.

    Raises if ``n_threads`` exceeds the machine's cores per node (the
    paper: threads are "limited to the number of cores per node").
    """
    if n_threads > machine.cores_per_node:
        raise ValueError(
            f"{machine.name} has {machine.cores_per_node} cores/node; "
            f"T={n_threads} is impossible"
        )
    if n_processes == 1 and n_threads == 1:
        # The serial code path (no MPI/Pthreads overhead), as benchmarked.
        scale0 = _machine_scale(profile, machine)
        n_fast = fast_count(n_bootstraps)
        return StageTimes(
            bootstrap=n_bootstraps * profile.bootstrap_search_seconds * scale0,
            fast=n_fast * profile.fast_search_seconds * scale0,
            slow=slow_count(n_fast) * profile.slow_search_seconds * scale0,
            thorough=profile.thorough_search_seconds * scale0,
            comm=0.0,
        )
    sched = make_schedule(n_bootstraps, n_processes)
    scale = _machine_scale(profile, machine)
    m = profile.dataset.patterns
    cv = profile.jitter_cv
    p = n_processes

    def stage(stage_name: str, per_rank: int, w: float) -> float:
        s_f = _stage_speedup(machine, m, n_threads, stage_name)
        return per_rank * w * imbalance_factor(p, per_rank, cv) * scale / s_f

    comm = 0.0
    if p > 1:
        timing = CommTiming()
        # One barrier after the bootstraps, one bcast of the best tree
        # (a Newick string: ~30 bytes per taxon).
        comm = timing.barrier_seconds(p) + timing.collective_seconds(
            p, 30 * profile.dataset.taxa
        )
    return StageTimes(
        bootstrap=stage("bootstrap", sched.bootstraps_per_process, profile.bootstrap_search_seconds),
        fast=stage("fast", sched.fast_per_process, profile.fast_search_seconds),
        slow=stage("slow", sched.slow_per_process, profile.slow_search_seconds),
        thorough=stage("thorough", 1, profile.thorough_search_seconds),
        comm=comm,
    )

"""Layout advisor: the paper's practical guidance, as a function.

Given a data set, a machine, a bootstrap count and a core budget, pick the
(processes × threads) layout the model predicts to be fastest — subject to
the constraints the paper spells out: threads bounded by the node width,
and per-process memory bounded by the node's share
(:mod:`repro.perfmodel.memory`).  This is exactly the decision the
Summary's guidance automates ("The useful number of MPI processes
increases with the number of bootstraps ... The optimal number of
Pthreads increases with the number of patterns").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.coarse import analysis_time, serial_time
from repro.perfmodel.machines import MachineSpec
from repro.perfmodel.memory import max_processes_per_node, process_memory
from repro.perfmodel.profiles import StageProfile


@dataclass(frozen=True)
class LayoutRecommendation:
    """The advisor's verdict for one core budget."""

    n_processes: int
    n_threads: int
    cores: int
    predicted_seconds: float
    predicted_speedup: float
    memory_per_process_gb: float
    alternatives: tuple[tuple[int, int, float], ...]  # (p, T, seconds)


def recommend_layout(
    profile: StageProfile,
    machine: MachineSpec,
    n_bootstraps: int,
    max_cores: int,
    gamma_categories: int = 4,
) -> LayoutRecommendation:
    """The fastest memory-feasible (p, T) layout within ``max_cores``.

    Candidate thread counts divide the node width; the process count fills
    the core budget.  Layouts whose per-process memory exceeds the node's
    per-process share are discarded.
    """
    if max_cores < 1:
        raise ValueError("max_cores must be >= 1")
    d = profile.dataset
    est = process_memory(d.taxa, d.patterns, n_categories=gamma_categories)
    mem_procs = max_processes_per_node(machine, est)
    if mem_procs < 1:
        raise ValueError(
            f"{d.name}: one process needs {est.total_gb:.1f} GB, more than a "
            f"{machine.name} node offers"
        )

    serial = serial_time(profile, machine, n_bootstraps)
    candidates: list[tuple[int, int, float]] = []
    for threads in (1, 2, 4, 8, 16, 32):
        if threads > machine.cores_per_node or threads > max_cores:
            continue
        if machine.cores_per_node % threads:
            continue
        procs = max_cores // threads
        if procs < 1:
            continue
        # Memory: processes sharing one node must fit in node memory.
        procs_per_node = min(procs, machine.cores_per_node // threads)
        if procs_per_node > mem_procs:
            continue
        seconds = analysis_time(profile, machine, n_bootstraps, procs, threads).total
        candidates.append((procs, threads, seconds))
    if not candidates:
        raise ValueError(
            f"no memory-feasible layout within {max_cores} cores on {machine.name}"
        )
    candidates.sort(key=lambda c: c[2])
    p, t, seconds = candidates[0]
    return LayoutRecommendation(
        n_processes=p,
        n_threads=t,
        cores=p * t,
        predicted_seconds=seconds,
        predicted_speedup=serial / seconds,
        memory_per_process_gb=est.total_gb,
        alternatives=tuple(candidates[1:]),
    )

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

from repro.mpi.topology import HierarchicalCommTiming, Topology
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
    #: "static" or "work-steal": the schedule mode predicted fastest for
    #: the recommended layout (DES over the layout's stage pools with the
    #: profile's jitter).
    schedule_mode: str = "static"
    #: Modelled search-stage makespans under each mode (seconds; excludes
    #: setup/communication, so they are comparable to each other, not to
    #: ``predicted_seconds``).
    predicted_static_seconds: float = 0.0
    predicted_worksteal_seconds: float = 0.0
    #: Mean per-rank idle-tail seconds summed over stages, per mode — the
    #: quantity the Fig. 3-4 report surfaces and stealing exists to shrink.
    predicted_idle_tail_static: float = 0.0
    predicted_idle_tail_worksteal: float = 0.0


#: Modelled run-time advantage work stealing must show before the advisor
#: recommends it (steals are not free: each is a modelled round-trip).
_STEAL_ADVANTAGE_THRESHOLD = 0.01


def predict_schedule_modes(
    profile: StageProfile,
    machine: MachineSpec,
    n_bootstraps: int,
    n_processes: int,
    n_threads: int,
    seed: int = 12345,
    topology=None,
) -> dict[str, dict[str, float]]:
    """Static vs. work-steal stage-pool predictions for one layout.

    Runs the scheduler's discrete-event simulator over the layout's real
    task DAG (Table 2 shares, bootstrap chain dependencies included) with
    per-task costs drawn lognormally around the perfmodel's stage hints
    using the profile's ``jitter_cv`` — the same jitter the coarse model's
    ``imbalance_factor`` summarises analytically.  Both modes see
    identical costs, so the difference is purely scheduling.

    Steals are charged the cost model's steal price — the work-steal
    backend's charging rule.  With a ``topology`` (a
    :class:`~repro.mpi.topology.Topology`) that is per hop: an on-node
    steal is a shared-memory round-trip, a cross-node one pays the
    interconnect.

    Returns ``{"static": {...}, "work-steal": {...}}`` where each entry
    has ``makespan`` (summed stage makespans, seconds), ``idle_tail``
    (mean per-rank tail seconds summed over stages) and ``steal_grants``.
    """
    from repro.search.comprehensive import ComprehensiveConfig
    from repro.search.schedule import make_schedule
    from repro.sched.placement import initial_assignment, stage_cost_hints
    from repro.sched.stealing import simulate
    from repro.sched.tasks import build_dag
    from repro.util.rng import RAxMLRandom, rank_seed

    sched = make_schedule(n_bootstraps, n_processes)
    cfg = ComprehensiveConfig(n_bootstraps=n_bootstraps)
    dag = build_dag(sched, cfg, n_processes)
    hints = stage_cost_hints(profile, machine, n_threads)
    members = tuple(range(n_processes))
    timing = HierarchicalCommTiming.for_machine(machine, topology)
    out = {m: {"makespan": 0.0, "idle_tail": 0.0, "steal_grants": 0.0}
           for m in ("static", "work-steal")}
    for si, stage in enumerate(("bootstrap", "fast", "slow", "thorough")):
        tasks = dag[stage]
        ids = {t.id for t in tasks}
        pre = {d for t in tasks for d in t.deps if d not in ids}
        rng = RAxMLRandom(rank_seed(seed, si))
        costs = {
            t.id: hints[stage] * rng.lognormal(1.0, profile.jitter_cv)
            for t in tasks
        }
        assignment = initial_assignment(tasks, members)
        for mode in ("static", "work-steal"):
            res = simulate(
                tasks, assignment, costs, members, mode=mode,
                steal_seed=seed, steal_seconds=timing.steal_seconds,
                pre_completed=pre,
            )
            out[mode]["makespan"] += res["makespan"]
            tails = res["idle_tail"]
            out[mode]["idle_tail"] += sum(tails.values()) / max(len(tails), 1)
            out[mode]["steal_grants"] += res["steal_grants"]
    return out


def compare_layouts(
    profile: StageProfile,
    machine: MachineSpec,
    n_bootstraps: int,
    layouts,
    seed: int = 12345,
) -> dict:
    """Answer "8×4 or 4×8?" with the topology-aware model.

    ``layouts`` is a sequence of ``(n_processes, n_threads)`` pairs using
    the same core budget (they need not — each is modelled on its own).
    For each layout the node packing is implied by the machine:
    ``ranks_per_node = cores_per_node // n_threads`` (at least 1), so a
    thread-heavy layout spreads ranks across more nodes and pays
    interconnect prices for more of its collectives and steals, while a
    process-heavy layout keeps collectives on shared memory but spends
    more time in imbalanced stage tails.  The verdict combines the coarse
    analytic model (compute + hierarchical communication) with the
    scheduler DES replay under hop-priced steals.

    Returns ``{"layouts": [...], "best": {...}}`` where each layout entry
    carries ``n_processes``/``n_threads``/``ranks_per_node``/``n_nodes``,
    the coarse stage times (``predicted_seconds``, ``comm_seconds``) and
    the DES schedule-mode predictions; ``best`` is the entry with the
    smallest ``predicted_seconds``.
    """
    entries = []
    for p, t in layouts:
        if t > machine.cores_per_node:
            raise ValueError(
                f"{machine.name} has {machine.cores_per_node} cores/node; "
                f"T={t} is impossible"
            )
        rpn = max(1, machine.cores_per_node // t)
        topo = Topology(p, rpn)
        times = analysis_time(
            profile, machine, n_bootstraps, p, t, topology=topo
        )
        modes = (
            predict_schedule_modes(
                profile, machine, n_bootstraps, p, t,
                seed=seed, topology=topo,
            )
            if p > 1 else None
        )
        entries.append({
            "n_processes": p,
            "n_threads": t,
            "cores": p * t,
            "ranks_per_node": rpn,
            "n_nodes": topo.n_nodes,
            "predicted_seconds": times.total,
            "comm_seconds": times.comm,
            "stage_seconds": times.as_dict(),
            "schedule_modes": modes,
        })
    if not entries:
        raise ValueError("compare_layouts needs at least one layout")
    best = min(entries, key=lambda e: e["predicted_seconds"])
    return {"layouts": entries, "best": best}


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
    mode, modes = "static", None
    if p > 1:
        modes = predict_schedule_modes(profile, machine, n_bootstraps, p, t)
        gain = 1.0 - modes["work-steal"]["makespan"] / modes["static"]["makespan"]
        if gain >= _STEAL_ADVANTAGE_THRESHOLD:
            mode = "work-steal"
    return LayoutRecommendation(
        n_processes=p,
        n_threads=t,
        cores=p * t,
        predicted_seconds=seconds,
        predicted_speedup=serial / seconds,
        memory_per_process_gb=est.total_gb,
        alternatives=tuple(candidates[1:]),
        schedule_mode=mode,
        predicted_static_seconds=modes["static"]["makespan"] if modes else 0.0,
        predicted_worksteal_seconds=(
            modes["work-steal"]["makespan"] if modes else 0.0
        ),
        predicted_idle_tail_static=modes["static"]["idle_tail"] if modes else 0.0,
        predicted_idle_tail_worksteal=(
            modes["work-steal"]["idle_tail"] if modes else 0.0
        ),
    )

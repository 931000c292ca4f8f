"""SPMD launcher: run one function across p simulated MPI ranks.

The launcher is where the two planes of a world meet: it builds the
fault/epoch plane (:class:`~repro.mpi.membership.FaultPlane`: statuses,
the fault plan, the deadlines) and hands it to the data plane
(:class:`~repro.mpi.comm._World`: exchange slots, mailboxes, run
token), then marks each rank's status as its body ends.

``comm_timing`` is any :class:`~repro.mpi.topology.CommCostModel` — the
flat :class:`~repro.mpi.topology.CommTiming` (the default) or a
:class:`~repro.mpi.topology.HierarchicalCommTiming`.  The launcher only
hands it to the world; the communicator asks it for every price through
the one protocol, so neither knows which model it holds.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from repro.mpi.comm import SimComm, _World
from repro.mpi.faults import FaultPlan, RankKilledError
from repro.mpi.membership import (
    DEAD,
    EXITED,
    FAILED,
    AllRanksDeadError,
    FaultPlane,
    SPMDError,
)
from repro.mpi.policy import TimeoutPolicy
from repro.mpi.topology import CommCostModel, CommTiming
from repro.util.runtoken import holding, idle
from repro.util.timing import VirtualClock


def _raise_rank_errors(errors: list) -> None:
    """Raise the primary rank error with every other one attached.

    The primary is the first non-SPMD error by rank (an SPMDError is
    usually collateral damage of whatever went wrong first), falling back
    to the first SPMDError.  All other errors ride along as ``__notes__``
    so multi-rank failures stay diagnosable.
    """
    ranked = [(r, e) for r, e in enumerate(errors) if e is not None]
    if not ranked:
        return
    primary = next(
        ((r, e) for r, e in ranked if not isinstance(e, SPMDError)), ranked[0]
    )
    rank, exc = primary
    others = [(r, e) for r, e in ranked if r != rank]
    if others:
        notes = [
            f"[simmpi] also failed: rank {r}: {type(e).__name__}: {e}"
            for r, e in others
        ]
        exc.__notes__ = [*getattr(exc, "__notes__", []), *notes]
    raise exc


def _run_threads(faults: FaultPlane, threads: list) -> list[str]:
    """Start the rank threads and wait for them; names of the stuck ones."""
    for t in threads:
        t.start()
    # One *shared* deadline for the whole world (a per-thread timeout would
    # make the worst-case wait n_ranks x timeout).  Ranks already declared
    # dead are not waited for: their threads are released below.
    deadline = time.monotonic() + faults.policy.world_seconds
    for rank, t in enumerate(threads):
        while t.is_alive():
            if faults.status_of(rank) == DEAD:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                break
            t.join(min(remaining, 0.1))
    # Wake any rank wedged inside an injected hang so its thread can exit.
    faults.release.set()
    stuck = []
    for rank, t in enumerate(threads):
        if t.is_alive():
            t.join(0.5)
        if t.is_alive() and faults.status_of(rank) != DEAD:
            stuck.append(t.name)
    return stuck


def run_spmd(
    fn: Callable[[SimComm], object],
    n_ranks: int,
    comm_timing: CommCostModel | None = None,
    clocks: Sequence[VirtualClock] | None = None,
    fault_plan: FaultPlan | None = None,
    timeout_policy: TimeoutPolicy = TimeoutPolicy(),
) -> list:
    """Execute ``fn(comm)`` on every rank of a simulated world.

    Ranks run as daemon threads — this runtime provides *semantics and
    virtual timing*, not wall-clock speedup — and in a world of more
    than one rank exactly one of them is runnable at a time: each takes
    the world's run token (:mod:`repro.util.runtoken`) before its body
    runs, gives it up wherever it waits for other ranks and after every
    ~20 ms slice of work, and releases it however the body ends.  Ranks
    under one interpreter lock cannot compute in parallel anyway; left
    free-running they spend more than half the wall time handing that
    lock to each other.  Results and virtual clocks never depended on
    the real interleaving and do not now.  A one-rank world takes no
    token; a caller that is itself a rank thread of another world gives
    that world's token up while it waits here and has it back on return.

    Returns the per-rank return values in rank order.  The primary rank
    exception, if any, is re-raised in the caller with the other ranks'
    errors attached as ``__notes__``.

    ``clocks`` optionally supplies pre-created per-rank virtual clocks so
    the caller can inspect final rank times.  ``fault_plan`` switches the
    world into resilient mode and injects the planned faults; ranks killed
    by the plan return ``None`` in the result list (their peers are
    expected to recover their work).

    ``timeout_policy`` holds both deadlines: the suspicion deadline of
    every wait on a peer (a peer whose virtual clock stands still that
    long is given up on) and the shared world deadline.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    timing = comm_timing if comm_timing is not None else CommTiming()
    if clocks is not None and len(clocks) != n_ranks:
        raise ValueError("clocks must have one entry per rank")
    faults = FaultPlane(n_ranks, timeout_policy, fault_plan)
    world = _World(faults, timing)
    results: list = [None] * n_ranks
    errors: list = [None] * n_ranks
    deaths: list = [None] * n_ranks

    def rank_main(rank: int) -> None:
        comm = SimComm(world, rank, clocks[rank] if clocks is not None else None)
        try:
            results[rank] = fn(comm)
        except RankKilledError as exc:
            deaths[rank] = exc
            faults.mark(rank, DEAD)
            return
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = exc
            faults.mark(rank, FAILED)
            return
        faults.mark(rank, EXITED)

    def target(rank: int) -> None:
        # Released however rank_main ends: body returned, raised or
        # rank killed.
        with holding(world.token, rank):
            rank_main(rank)

    threads = [
        threading.Thread(target=target, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
        for r in range(n_ranks)
    ]
    # A caller that is itself a rank thread of an outer world only waits
    # from here on: it gives that world's token up and has it back on exit.
    with idle():
        stuck = _run_threads(faults, threads)
    if stuck:
        raise SPMDError(
            f"{', '.join(stuck)} did not finish within the shared "
            f"{timeout_policy.world_seconds}s deadline"
        )
    _raise_rank_errors(errors)
    if fault_plan is None:
        for death in deaths:
            if death is not None:
                # A RankKilledError outside a fault plan is a bug, not a
                # simulated failure — surface it.
                raise death
    elif all(faults.status_of(r) == DEAD for r in range(n_ranks)):
        raise AllRanksDeadError(
            f"all {n_ranks} member ranks died before completing; nothing "
            "to recover"
        )
    return results

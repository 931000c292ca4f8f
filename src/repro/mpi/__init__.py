"""Simulated MPI substrate (SPMD over rank threads, virtual clocks).

The paper's MPI usage is deliberately minimal: each rank parses its own
input, works independently, and the only noteworthy communications are an
``MPI_Barrier`` after the bootstrap stage and an ``MPI_Bcast`` to select
the final best solution (Section 2.1).  This package provides:

* :class:`SimComm` — an mpi4py-style communicator (send/recv/bcast/
  barrier/gather/allgather/allreduce) backed by in-process mailboxes, with
  a per-rank :class:`~repro.util.timing.VirtualClock` that collectives
  synchronise exactly as real barriers synchronise wall clocks;
* :func:`run_spmd` — launch one SPMD function across ``p`` rank threads.
"""

from repro.mpi.comm import (
    DEAD_RANK,
    AllRanksDeadError,
    CommEvent,
    CommTiming,
    DistributedStateError,
    RankFailure,
    RetryExhaustedError,
    SimComm,
    SPMDError,
)
from repro.mpi.faults import (
    CollectiveGlitch,
    FaultPlan,
    JoinSpec,
    KillSpec,
    RankKilledError,
)
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import MembershipLedger, MembershipView
from repro.mpi.policy import RetryPolicy, TimeoutPolicy
from repro.util.rng import rank_seed

__all__ = [
    "SimComm",
    "CommTiming",
    "CommEvent",
    "SPMDError",
    "RankFailure",
    "DistributedStateError",
    "RetryExhaustedError",
    "AllRanksDeadError",
    "DEAD_RANK",
    "FaultPlan",
    "KillSpec",
    "CollectiveGlitch",
    "JoinSpec",
    "RankKilledError",
    "MembershipView",
    "MembershipLedger",
    "RetryPolicy",
    "TimeoutPolicy",
    "run_spmd",
    "rank_seed",
]

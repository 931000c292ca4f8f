"""Simulated MPI substrate (SPMD over rank threads or processes, virtual clocks).

The paper's MPI usage is deliberately minimal: each rank parses its own
input, works independently, and the only noteworthy communications are an
``MPI_Barrier`` after the bootstrap stage and an ``MPI_Bcast`` to select
the final best solution (Section 2.1).  This package provides:

* :class:`SimComm` — an mpi4py-style communicator (send/recv/bcast/
  barrier/gather/allgather/allreduce) backed by the launcher's mailboxes, with
  a per-rank :class:`~repro.util.timing.VirtualClock` that collectives
  synchronise exactly as real barriers synchronise wall clocks;
* :func:`run_spmd` — launch one SPMD function across ``p`` ranks: rank
  threads under one run token, or (``world="process"``) one forked child
  per rank, with everything the ranks share served from the launcher.

It is built as two planes.  The data plane (:mod:`repro.mpi.comm`, priced
by :mod:`repro.mpi.topology`) moves values and never reads a fault plan.
The fault/epoch plane (:mod:`repro.mpi.membership`, driven by a
:class:`FaultPlan` and one :class:`TimeoutPolicy`) owns rank statuses,
the one stall detector every wait on a peer goes through, death
agreement, epochs, and the faults injected at a collective's entry.
The world is fixed: its p ranks start together and only ever leave, and
the exchange slots and mailboxes are all they share.
"""

from repro.mpi.comm import DEAD_RANK, CommEvent, SimComm
from repro.mpi.faults import (
    CollectiveGlitch,
    FaultPlan,
    KillSpec,
    RankKilledError,
)
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import (
    AllRanksDeadError,
    DistributedStateError,
    MembershipView,
    RankFailure,
    RetryExhaustedError,
    SPMDError,
)
from repro.mpi.policy import TimeoutPolicy
from repro.mpi.topology import CommTiming
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
    "RankKilledError",
    "MembershipView",
    "TimeoutPolicy",
    "run_spmd",
    "rank_seed",
]

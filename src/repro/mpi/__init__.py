"""Simulated MPI substrate (SPMD over rank processes, virtual clocks).

The paper's MPI usage is deliberately minimal: each rank parses its own
input, works independently, and the only noteworthy communications are an
``MPI_Barrier`` after the bootstrap stage and an ``MPI_Bcast`` to select
the final best solution (Section 2.1).  This package provides:

* :class:`SimComm` — an mpi4py-style communicator whose per-rank
  :class:`~repro.util.timing.VirtualClock` collectives synchronise as
  real barriers synchronise wall clocks;
* :func:`run_spmd` — one SPMD function across ``p`` ranks, one forked
  process per rank as in the paper, everything they share served from
  the launcher.

The data plane (:mod:`repro.mpi.comm`, priced by one flat
:class:`CommTiming`) moves values and never reads a fault plan.
The fault/epoch plane (:mod:`repro.mpi.membership`, driven by a
:class:`FaultPlan` and one :class:`TimeoutPolicy`) owns rank statuses,
the one stall detector, death agreement, epochs and injected faults.
The world is fixed: its p ranks start together and only ever leave.
Besides messages they share one node-shared window of virtual clocks,
one slot per rank, which the stall detector reads.
"""

from repro.mpi.comm import DEAD_RANK, CommEvent, CommTiming, SimComm
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

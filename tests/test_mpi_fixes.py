"""Regression tests for collective edge cases (dead peers vs None payloads)."""

import pytest

from repro.mpi.comm import DEAD_RANK, CommTiming, SimComm, _World
from repro.mpi.faults import FaultPlan, KillSpec
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import (
    AllRanksDeadError,
    FaultPlane,
    RankFailure,
    SPMDError,
)
from repro.mpi.policy import TimeoutPolicy


class TestAllreduceNonePayloads:
    """A rank legitimately contributing None must participate in the
    reduction — only the DEAD_RANK sentinel marks absent peers."""

    def test_all_none_payloads_reduce_cleanly(self):
        def fn(comm):
            return comm.allreduce(None, op=lambda a, b: None)

        assert run_spmd(fn, 3) == [None] * 3

    def test_mixed_none_and_values(self):
        def fn(comm):
            value = None if comm.rank == 1 else comm.rank + 1
            return comm.allreduce(value, op=lambda a, b: (a or 0) + (b or 0))

        # ranks contribute 1, None, 3 -> 4 everywhere (None treated as 0
        # by the op, not silently dropped by the runtime).
        assert run_spmd(fn, 3) == [4] * 3

    def test_sentinel_is_not_none_and_reprs(self):
        assert DEAD_RANK is not None
        assert repr(DEAD_RANK) == "<dead rank>"


class TestAllreduceAllDead:
    def _lone_comm(self, monkeypatch, resilient: bool) -> SimComm:
        plan = FaultPlan(kills=[KillSpec(rank=99, collective=0)]) if resilient else None
        world = _World(FaultPlane(2, TimeoutPolicy(1.0, 1.0), plan), CommTiming())
        comm = SimComm(world, 0)
        # Simulate every participant dead: the exchange yields an empty
        # board (nobody contributed, not even this rank's own entry).
        monkeypatch.setattr(comm, "_exchange", lambda value, op=None: {})
        return comm

    def test_empty_board_raises_all_ranks_dead(self, monkeypatch):
        comm = self._lone_comm(monkeypatch, resilient=True)
        with pytest.raises(AllRanksDeadError, match="nothing to reduce"):
            comm.allreduce(1)

    def test_error_is_not_a_bare_index_error(self, monkeypatch):
        comm = self._lone_comm(monkeypatch, resilient=True)
        try:
            comm.allreduce(1)
        except AllRanksDeadError as exc:
            assert "rank 0" in str(exc)
        else:  # pragma: no cover - the raise is the point
            pytest.fail("expected AllRanksDeadError")


class TestBcastDeadRoot:
    def test_resilient_bcast_from_dead_root_raises_rank_failure(self):
        plan = FaultPlan(kills=[KillSpec(rank=0, collective=0)])

        def fn(comm):
            try:
                comm.barrier()  # kills rank 0 on entry
            except RankFailure as exc:
                assert exc.dead == (0,)
            if comm.rank == 0:  # pragma: no cover - rank 0 is dead
                return None
            with pytest.raises(RankFailure) as info:
                comm.bcast("payload" if comm.rank == 0 else None, root=0)
            # The frozen death set rides on the error so survivors can
            # recover in lockstep.
            return (info.value.op, info.value.dead)

        results = run_spmd(fn, 3, fault_plan=plan)
        assert results[0] is None  # killed rank contributes nothing
        assert results[1] == ("bcast", (0,))
        assert results[2] == ("bcast", (0,))

    def test_non_resilient_dead_root_is_spmd_error(self, monkeypatch):
        world = _World(FaultPlane(2, TimeoutPolicy(1.0, 1.0)), CommTiming())
        comm = SimComm(world, 1)
        monkeypatch.setattr(
            comm, "_exchange", lambda value, op=None: {1: (None, 0.0)}
        )
        with pytest.raises(SPMDError, match="root 0 is dead") as info:
            comm.bcast(None, root=0)
        assert not isinstance(info.value, RankFailure)

    def test_known_dead_accumulates_across_collectives(self):
        plan = FaultPlan(kills=[KillSpec(rank=1, collective=0)])

        def fn(comm):
            if comm.rank == 1:
                comm.barrier()  # dies here
                return None  # pragma: no cover
            with pytest.raises(RankFailure):
                comm.barrier()
            value = comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
            return (value, comm.known_dead)

        results = run_spmd(fn, 3, fault_plan=plan)
        assert results[0] == (0, [1])
        assert results[2] == (0, [1])

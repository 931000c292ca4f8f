"""Tests for the simulated MPI runtime (repro.mpi)."""

import pytest

from repro.mpi.launcher import run_spmd
from repro.mpi.membership import SPMDError
from repro.mpi.policy import TimeoutPolicy
from repro.mpi.topology import CommTiming
from repro.util.timing import VirtualClock


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 41}, dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3)

        results = run_spmd(fn, 2)
        assert results[1] == {"x": 41}

    def test_recv_synchronises_clock(self):
        def fn(comm):
            if comm.rank == 0:
                comm.clock.advance(5.0)
                comm.send("late", dest=1)
                return comm.clock.now
            comm.recv(source=0)
            return comm.clock.now

        t0, t1 = run_spmd(fn, 2)
        assert t1 >= 5.0  # receiver cannot finish before the sender sent

    def test_send_to_self_rejected(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=0)
            return None

        with pytest.raises(ValueError):
            run_spmd(fn, 2)

    def test_invalid_ranks_rejected(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=99)
            return None

        with pytest.raises(ValueError):
            run_spmd(fn, 2)

    def test_recv_timeout_is_spmd_error(self):
        def fn(comm):
            if comm.rank == 1:
                return comm.recv(source=0)  # never sent
            return None

        with pytest.raises(SPMDError):
            run_spmd(fn, 2, timeout_policy=TimeoutPolicy(0.5, 0.5))


class TestCollectives:
    def test_barrier_equalises_clocks(self):
        def fn(comm):
            comm.clock.advance(1.0 + comm.rank)
            comm.barrier()
            return comm.clock.now

        times = run_spmd(fn, 4)
        assert len(set(times)) == 1
        assert times[0] >= 4.0  # slowest rank advanced 4.0

    def test_bcast(self):
        def fn(comm):
            value = f"from-{comm.rank}" if comm.rank == 2 else None
            return comm.bcast(value, root=2)

        assert run_spmd(fn, 4) == ["from-2"] * 4

    def test_gather_root_only(self):
        def fn(comm):
            return comm.gather(comm.rank * 10, root=1)

        res = run_spmd(fn, 3)
        assert res[1] == [0, 10, 20]
        assert res[0] is None and res[2] is None

    def test_allgather(self):
        def fn(comm):
            return comm.allgather(comm.rank**2)

        assert run_spmd(fn, 4) == [[0, 1, 4, 9]] * 4

    def test_allreduce_default_sum(self):
        def fn(comm):
            return comm.allreduce(comm.rank + 1)

        assert run_spmd(fn, 4) == [10] * 4

    def test_allreduce_custom_op(self):
        def fn(comm):
            return comm.allreduce(comm.rank, op=max)

        assert run_spmd(fn, 5) == [4] * 5

    def test_sequence_of_collectives(self):
        """Generation tagging must keep repeated collectives separate."""

        def fn(comm):
            a = comm.allgather(comm.rank)
            b = comm.allgather(comm.rank * 2)
            comm.barrier()
            c = comm.bcast("done" if comm.rank == 0 else None)
            return (a, b, c)

        res = run_spmd(fn, 3)
        for a, b, c in res:
            assert a == [0, 1, 2]
            assert b == [0, 2, 4]
            assert c == "done"

    def test_single_rank_collectives(self):
        def fn(comm):
            comm.barrier()
            assert comm.allgather(7) == [7]
            return comm.bcast(42)

        assert run_spmd(fn, 1) == [42]

    def test_collective_costs_advance_clock(self):
        def fn(comm):
            before = comm.clock.now
            comm.barrier()
            return comm.clock.now - before

        costs = run_spmd(fn, 8)
        assert all(c > 0 for c in costs)


class TestCommTrace:
    def test_every_operation_recorded(self):
        def fn(comm):
            comm.barrier()
            comm.allgather(comm.rank)
            comm.bcast("x" if comm.rank == 0 else None)
            if comm.rank == 0:
                comm.send("hello", dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            return [e.op for e in comm.trace], comm.account.seconds

        results = run_spmd(fn, 2)
        ops0, secs0 = results[0]
        ops1, secs1 = results[1]
        assert ops0 == ["barrier", "allgather", "bcast", "send"]
        assert ops1 == ["barrier", "allgather", "bcast", "recv"]
        assert secs0 > 0 and secs1 >= 0

    def test_trace_includes_barrier_wait(self):
        """A fast rank's barrier time includes waiting for stragglers."""

        def fn(comm):
            if comm.rank == 1:
                comm.clock.advance(10.0)  # straggler
            comm.barrier()
            return comm.account.seconds

        fast, straggler = run_spmd(fn, 2)
        assert fast >= 10.0  # waited for the straggler
        assert straggler < 1.0  # arrived last, no wait

    def test_payload_bytes_recorded(self):
        def fn(comm):
            comm.allgather(b"z" * 1000)
            return comm.trace[-1].payload_bytes

        sizes = run_spmd(fn, 2)
        assert all(s >= 1000 for s in sizes)


class TestCommTiming:
    def test_barrier_scales_with_log_p(self):
        t = CommTiming()
        assert t.barrier_seconds(1) == 0.0
        assert t.barrier_seconds(16) == pytest.approx(4 * t.barrier_base)

    def test_message_cost_includes_bytes(self):
        t = CommTiming()
        assert t.message_seconds(10**6) > t.message_seconds(10)

    def test_collective_single_rank_free(self):
        assert CommTiming().collective_seconds(1, 100) == 0.0


class TestLauncher:
    def test_results_in_rank_order(self):
        assert run_spmd(lambda c: c.rank, 5) == [0, 1, 2, 3, 4]

    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="boom"):
            run_spmd(fn, 3, timeout_policy=TimeoutPolicy(5.0, 5.0))

    def test_custom_clocks_used(self):
        clocks = [VirtualClock(100.0 * r) for r in range(3)]

        def fn(comm):
            comm.barrier()
            return comm.clock.now

        times = run_spmd(fn, 3, clocks=clocks)
        assert min(times) >= 200.0  # barrier pulls everyone to the latest

    def test_bad_args(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 0)
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 2, clocks=[VirtualClock()])

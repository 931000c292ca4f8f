"""Tests for the simulated MPI runtime (repro.mpi)."""

import math

import pytest

from repro.mpi import CommTiming
from repro.mpi.comm import _payload_bytes
from repro.mpi.faults import FaultPlan, KillSpec
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import RankFailure, SPMDError
from repro.mpi.policy import TimeoutPolicy
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

    # The flat model pinned byte-for-byte (the docstring's hand-trace),
    # and the prices every consumer of it charges.

    OPS = ("barrier", "bcast", "gather", "allgather", "allreduce")

    def test_collective_is_log_tree_not_linear(self):
        t = CommTiming()
        m = t.message_seconds(1000)
        assert t.collective_seconds(8, 1000) == 3 * m  # ceil(log2 8) = 3
        assert t.collective_seconds(9, 1000) == 4 * m  # ceil(log2 9) = 4
        assert t.collective_seconds(64, 1000) == 6 * m
        # Linear would be 63 * m at p=64 — an order of magnitude off.
        assert t.collective_seconds(64, 1000) < 63 * m / 5

    def test_hand_traced_log_tree(self):
        t = CommTiming()
        n_bytes = 1000
        for p in range(1, 66):
            rounds = math.ceil(math.log2(p)) if p > 1 else 0
            assert t.barrier_seconds(p) == rounds * 1e-5
            assert t.collective_seconds(p, n_bytes) == (
                rounds * (5e-6 + n_bytes * 1e-9)
            )

    @pytest.mark.parametrize("op", OPS)
    def test_every_collective_charges_the_log_tree(self, op):
        """On synchronised clocks a collective over 3 ranks costs two
        tree rounds: ``barrier_base`` each for a barrier, one message of
        the largest carried payload each otherwise."""
        def fn(comm):
            getattr(comm, op)(*(() if op == "barrier" else (comm.rank,)))
            return comm.clock.now, comm.trace[-1].payload_bytes

        t = CommTiming()
        for now, payload in run_spmd(fn, 3):
            if op == "barrier":
                assert now == 2 * t.barrier_base
            else:
                assert now == t.collective_seconds(3, payload)
                assert now == 2 * t.message_seconds(payload)

    def test_flat_hop_ignores_endpoints(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1)
                comm.send("x", 2)
                return [e.seconds for e in comm.trace]
            comm.recv(0)
            return None

        to_1, to_2 = run_spmd(fn, 3)[0]
        assert to_1 == to_2 == CommTiming().message_seconds(_payload_bytes("x"))

    def test_dead_rank_pricing_rule(self):
        # One death in a 2-rank world: the log tree still prices the
        # world size, not the one survivor.
        plan = FaultPlan(kills=(KillSpec(rank=1, collective=0),))

        def body(comm):
            with pytest.raises(RankFailure):
                comm.barrier()
            t0 = comm.clock.now
            comm.barrier()
            return comm.clock.now, t0

        now, t0 = run_spmd(body, 2, fault_plan=plan)[0]
        assert now == t0 + CommTiming().barrier_seconds(2) > t0

    def test_board_charges_the_steal_price(self):
        # The work-steal backend's board charges one request/grant
        # message pair per steal, whichever ranks it joins.
        from repro.hybrid.driver import HybridConfig
        from repro.runtime.backends import WorkStealBackend

        config = HybridConfig(n_processes=4, n_threads=2, schedule="work-steal")
        board = WorkStealBackend.make_shared(config)
        assert board.steal_seconds == CommTiming().steal_seconds()
        assert board.steal_seconds == 2 * CommTiming().message_seconds(256) > 0.0


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

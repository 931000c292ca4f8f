"""Tests for virtual clocks (repro.util.timing) and comm seconds."""

import pytest

from repro.util.timing import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == 2.0

    def test_advance_returns_new_time(self):
        assert VirtualClock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_synchronize_moves_forward_only(self):
        c = VirtualClock(10.0)
        c.synchronize(5.0)
        assert c.now == 10.0  # never backwards
        c.synchronize(12.0)
        assert c.now == 12.0


class TestCommSecondsHandComputed:
    """comm_seconds against a fully hand-computed two-rank trace."""

    def test_barrier_then_bcast_exact_costs(self):
        from repro.mpi import CommTiming
        from repro.mpi.launcher import run_spmd

        timing = CommTiming(latency=1e-3, byte_time=0.0, barrier_base=1e-2)

        def fn(comm):
            comm.clock.advance(1.0 if comm.rank == 0 else 3.0)
            comm.barrier()
            comm.bcast(b"x" if comm.rank == 0 else None, root=0)
            return comm.account.seconds, comm.clock.now

        (secs0, end0), (secs1, end1) = run_spmd(fn, 2, comm_timing=timing)
        # Barrier: everyone leaves at max(1.0, 3.0) + 1e-2*ceil(log2 2).
        # Bcast: one message round on synchronized clocks costs latency.
        assert end0 == end1 == pytest.approx(3.0 + 1e-2 + 1e-3)
        # Rank 0 entered the barrier at 1.0 -> waited for the straggler.
        assert secs0 == pytest.approx((3.01 - 1.0) + 1e-3)
        assert secs1 == pytest.approx(1e-2 + 1e-3)

    def test_comm_seconds_sums_per_event_trace(self):
        from repro.mpi import CommTiming
        from repro.mpi.launcher import run_spmd

        timing = CommTiming(latency=2e-3, byte_time=0.0, barrier_base=5e-3)

        def fn(comm):
            for _ in range(3):
                comm.barrier()
            return [e.seconds for e in comm.trace], comm.account.seconds

        for per_event, total in run_spmd(fn, 4, comm_timing=timing):
            assert total == pytest.approx(sum(per_event))
            # 4 ranks advance nothing, so each barrier costs exactly
            # barrier_base * ceil(log2 4) on every rank.
            assert per_event == [pytest.approx(1e-2)] * 3

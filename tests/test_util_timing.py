"""Tests for virtual clocks and stage timers (repro.util.timing)."""

import pytest

from repro.util.timing import StageTimer, VirtualClock, WallTimer


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


class TestStageTimer:
    def test_accumulates_per_stage(self):
        t = StageTimer()
        t.add("bootstrap", 2.0)
        t.add("bootstrap", 1.0)
        t.add("fast", 0.5)
        assert t.get("bootstrap") == 3.0
        assert t.get("fast") == 0.5
        assert t.get("missing") == 0.0

    def test_total(self):
        t = StageTimer()
        t.add("a", 1.0)
        t.add("b", 2.0)
        assert t.total == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StageTimer().add("a", -1.0)

    def test_merged_max_is_elementwise(self):
        a = StageTimer({"x": 1.0, "y": 5.0})
        b = StageTimer({"x": 3.0, "z": 2.0})
        m = a.merged_max(b)
        assert m.stages == {"x": 3.0, "y": 5.0, "z": 2.0}

    def test_as_dict_copies(self):
        t = StageTimer({"a": 1.0})
        d = t.as_dict()
        d["a"] = 99.0
        assert t.get("a") == 1.0


class TestMergedMaxMultiRank:
    """Fig. 3-4 convention: per-stage time is the last process to finish."""

    RANKS = [
        StageTimer({"bootstrap": 4.0, "fast": 1.0, "slow": 0.5, "thorough": 2.0}),
        StageTimer({"bootstrap": 3.0, "fast": 2.5, "slow": 0.25, "thorough": 6.0}),
        StageTimer({"bootstrap": 3.5, "fast": 0.75, "slow": 1.0, "thorough": 4.0}),
    ]

    def test_three_rank_fold_hand_computed(self):
        merged = self.RANKS[0].merged_max(self.RANKS[1]).merged_max(self.RANKS[2])
        assert merged.stages == {
            "bootstrap": 4.0, "fast": 2.5, "slow": 1.0, "thorough": 6.0,
        }
        # The merged total is NOT any single rank's total: each stage's
        # maximum may come from a different straggler.
        assert merged.total == 13.5
        assert max(t.total for t in self.RANKS) == 11.75

    def test_merge_is_commutative_and_idempotent(self):
        a, b = self.RANKS[0], self.RANKS[1]
        assert a.merged_max(b).stages == b.merged_max(a).stages
        assert a.merged_max(a).stages == a.stages

    def test_merge_with_empty_timer_is_identity(self):
        a = self.RANKS[0]
        assert a.merged_max(StageTimer()).stages == a.stages


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


class TestWallTimer:
    def test_measures_something(self):
        with WallTimer() as w:
            sum(range(10000))
        assert w.elapsed >= 0.0

"""Stress tests for the simulated MPI runtime at larger rank counts."""

import pytest

from repro.mpi.launcher import run_spmd
from repro.mpi.policy import TimeoutPolicy
from repro.util.rng import RAxMLRandom


class TestManyRanks:
    def test_32_ranks_collective_storm(self):
        """32 ranks, 25 mixed collectives each — ordering and payloads
        must stay consistent throughout."""

        def fn(comm):
            acc = 0
            for round_no in range(25):
                values = comm.allgather(comm.rank * 1000 + round_no)
                assert values == [r * 1000 + round_no for r in range(comm.size)]
                winner = comm.bcast(
                    round_no if comm.rank == round_no % comm.size else None,
                    root=round_no % comm.size,
                )
                assert winner == round_no
                comm.barrier()
                acc += sum(values)
            return acc

        results = run_spmd(fn, 32, timeout_policy=TimeoutPolicy(120.0, 120.0))
        assert len(set(results)) == 1

    def test_ring_point_to_point(self):
        """A token passes around a 16-rank ring."""

        def fn(comm):
            nxt = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            if comm.rank == 0:
                comm.send(1, dest=nxt)
                token = comm.recv(source=prev)
                return token
            token = comm.recv(source=prev)
            comm.send(token + 1, dest=nxt)
            return token

        results = run_spmd(fn, 16, timeout_policy=TimeoutPolicy(60.0, 60.0))
        assert results[0] == 16  # made the full loop

    def test_clock_monotone_across_collectives(self):
        def fn(comm):
            times = [comm.clock.now]
            rng = RAxMLRandom(comm.rank + 1)
            for _ in range(10):
                comm.clock.advance(rng.next_double())
                comm.allgather(None)
                times.append(comm.clock.now)
            return times

        for times in run_spmd(fn, 8, timeout_policy=TimeoutPolicy(60.0, 60.0)):
            assert times == sorted(times)

    def test_final_barrier_equalises_after_chaos(self):
        def fn(comm):
            rng = RAxMLRandom(comm.rank * 7 + 1)
            for _ in range(5):
                comm.clock.advance(rng.next_double() * 3)
                comm.barrier()
            return comm.clock.now

        times = run_spmd(fn, 12, timeout_policy=TimeoutPolicy(60.0, 60.0))
        assert len({round(t, 9) for t in times}) == 1


class TestStreamIndependence:
    def test_rank_streams_statistically_uncorrelated(self):
        """Per-rank streams (stride 10,000) should be as good as
        independent: cross-rank correlation of long draws near zero."""
        import numpy as np

        from repro.util.rng import rank_seed

        draws = []
        for rank in range(4):
            rng = RAxMLRandom(rank_seed(12345, rank))
            draws.append(np.array([rng.next_double() for _ in range(3000)]))
        for i in range(4):
            for j in range(i + 1, 4):
                corr = float(np.corrcoef(draws[i], draws[j])[0, 1])
                assert abs(corr) < 0.06, (i, j, corr)

"""The run token (`repro.util.runtoken`): one runnable rank thread per
world.  FIFO hand-off and the time slice on a bare token; every place a
rank waits for other ranks gives the token up; slow-but-healthy ranks
are not suspected; results do not depend on it."""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi import (
    CollectiveGlitch,
    FaultPlan,
    RankFailure,
    SPMDError,
    TimeoutPolicy,
    run_spmd,
)
from repro.mpi.faults import RankKilledError
from repro.sched.queue import StealBoard
from repro.sched.stealing import run_rank_pool
from repro.sched.tasks import Task
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.seq.patterns import compress_alignment
from repro.util import runtoken
from repro.util.runtoken import RunToken, heartbeat, holding, idle

from tests.conftest import assert_bit_identical

#: Harness deadline of every world here: a rank that kept the token
#: while waiting would wedge its peers until this trips.
DEADLINE = 20.0


def wait_until(predicate, seconds=5.0):
    end = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < end, "condition never held"
        time.sleep(0.001)


def compute(comm, seconds=0.15):
    """Work the way a rank does it: wall time passes, the clock advances."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        comm.clock.advance(1e-6)


# ---------------------------------------------------------------------------
# The bare token
# ---------------------------------------------------------------------------


class TestBareToken:
    def test_handoff_is_fifo_and_the_releaser_cannot_barge(self):
        token = RunToken()
        order: list[str] = []
        token.acquire("main")

        def waiter(name):
            with holding(token, name):
                order.append(name)

        threads = []
        for i, name in enumerate("abc"):
            t = threading.Thread(target=waiter, args=(name,), daemon=True)
            t.start()
            threads.append(t)
            wait_until(lambda: len(token._queue) == i + 1)
        # Release and ask again at once: a plain Lock would usually give
        # it straight back; here "main" goes behind a, b and c.
        token.release()
        token.acquire("main")
        order.append("main")
        token.release()
        for t in threads:
            t.join(5.0)
            assert not t.is_alive()
        assert order == ["a", "b", "c", "main"]
        assert token.handoffs == 4  # main->a->b->c->main
        assert set(token.waited) == {"a", "b", "c", "main"}
        assert not token._held and not token._queue

    def test_slice_expiry_passes_the_token_on(self):
        token = RunToken()
        got = threading.Event()

        def second():
            with holding(token, 2):
                got.set()

        with holding(token, 1):
            t = threading.Thread(target=second, daemon=True)
            t.start()
            wait_until(lambda: len(token._queue) == 1)
            heartbeat()  # inside the slice: nothing happens
            assert token.expired_slices == 0 and not got.is_set()
            end = time.perf_counter() + 10 * runtoken.SLICE_SECONDS
            while time.perf_counter() < end and not got.is_set():
                heartbeat()
        t.join(5.0)
        assert got.is_set() and not t.is_alive()
        assert token.expired_slices == 1

    def test_expired_slice_with_nobody_waiting_starts_a_new_one(self):
        token = RunToken()
        with holding(token, 1):
            time.sleep(1.5 * runtoken.SLICE_SECONDS)
            heartbeat()
            assert token.expired_slices == 0 and token.handoffs == 0
            assert token._slice_end > time.perf_counter()

    def test_idle_gives_it_up_and_takes_it_back_on_every_way_out(self):
        token = RunToken()
        with holding(token, 1):
            with pytest.raises(KeyError):
                with idle():
                    assert not token._held
                    heartbeat()  # holds nothing now: passes through
                    raise KeyError("out")
            assert token._held
        assert not token._held

    def test_threads_without_a_token_pass_through(self):
        with idle():
            heartbeat()
        with holding(None):
            heartbeat()


# ---------------------------------------------------------------------------
# The token over a world
# ---------------------------------------------------------------------------


class TestWorldToken:
    def test_one_rank_world_creates_no_token(self):
        assert run_spmd(lambda comm: comm._world.token, 1) == [None]

    def test_exactly_one_rank_thread_runs_at_a_time(self, monkeypatch):
        """Stress: more ranks than cores, slices and interpreter switch
        interval shortened so that hand-offs land everywhere; a second
        rank inside the marked region would be a broken token."""
        monkeypatch.setattr(runtoken, "SLICE_SECONDS", 0.0005)
        running = []
        overlaps = []

        def body(comm):
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                running.append(comm.rank)
                if len(running) > 1:
                    overlaps.append(tuple(running))
                time.sleep(0)  # offer the interpreter lock
                running.remove(comm.rank)
                comm.clock.advance(1e-6)
            comm.barrier()
            return comm._world.token.stats()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stats = run_spmd(body, 6, timeout_policy=TimeoutPolicy(DEADLINE, DEADLINE))
        finally:
            sys.setswitchinterval(interval)
        assert overlaps == []
        assert stats[-1]["expired_slices"] > 50

    def test_slices_interleave_compute_bound_ranks(self):
        """No rank waits for a whole peer: every one of them gets slices
        while the others still compute."""
        first_slice = {}

        def body(comm):
            first_slice[comm.rank] = time.perf_counter()
            compute(comm, 0.2)
            return time.perf_counter()

        ends = run_spmd(body, 4, timeout_policy=TimeoutPolicy(DEADLINE, DEADLINE))
        assert max(first_slice.values()) < min(ends)

    @pytest.mark.parametrize("how", ["raises", "killed"])
    def test_token_released_when_a_rank_body_ends_badly(self, how):
        def body(comm):
            if comm.rank == 0:
                if how == "raises":
                    raise KeyError("rank 0 body")
                raise RankKilledError("rank 0 killed")
            compute(comm, 0.05)
            return comm.rank

        if how == "raises":
            with pytest.raises(KeyError):
                run_spmd(body, 4, timeout_policy=TimeoutPolicy(DEADLINE, DEADLINE))
        else:
            out = run_spmd(body, 4, timeout_policy=TimeoutPolicy(DEADLINE, DEADLINE),
                           fault_plan=FaultPlan())
            assert out == [None, 1, 2, 3]

    def test_nested_world_restores_the_outer_token(self):
        def inner(comm):
            compute(comm, 0.02)
            return comm.allreduce(1)

        def outer(comm):
            token = comm._world.token
            seat = runtoken._tls.seat
            assert seat == (token, comm.rank)
            if comm.rank == 0:
                policy = TimeoutPolicy(DEADLINE, DEADLINE)
                assert run_spmd(inner, 2, timeout_policy=policy) == [2, 2]
                with pytest.raises(SPMDError):
                    run_spmd(lambda c: c.recv(1 - c.rank), 2,
                             timeout_policy=TimeoutPolicy(0.3, 0.3))
            # Back on the outer token, after a clean and a failed inner run.
            assert runtoken._tls.seat == seat and token._held
            compute(comm, 0.02)
            return comm.allreduce(comm.rank)

        assert run_spmd(outer, 3, timeout_policy=TimeoutPolicy(DEADLINE, DEADLINE)) == [3, 3, 3]


class TestWaitSitesRunTokenFree:
    """A 4-rank world with one rank parked at each place a rank waits for
    others: the peers compute meanwhile and everybody finishes."""

    def run(self, body, n_ranks=4, **kw):
        t0 = time.monotonic()
        out = run_spmd(body, n_ranks, **{"timeout_policy": TimeoutPolicy(DEADLINE, DEADLINE), **kw})
        assert time.monotonic() - t0 < DEADLINE / 2
        return out

    def test_collective_straggler(self):
        def body(comm):
            if comm.rank != 0:
                compute(comm)
            return comm.allreduce(comm.rank)

        assert self.run(body) == [6, 6, 6, 6]

    def test_blocking_recv(self):
        def body(comm):
            if comm.rank == 0:
                return comm.recv(3)
            compute(comm)
            if comm.rank == 3:
                comm.send("late", 0)
            return comm.rank

        assert self.run(body) == ["late", 1, 2, 3]

    def test_injected_hang(self):
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=1, call_index=0, kind="hang"),
        ))

        def body(comm):
            try:
                comm.barrier()
            except RankFailure as rf:
                assert rf.dead == (1,)
            compute(comm)
            return comm.allreduce(1)

        policy = TimeoutPolicy(collective_seconds=0.5, world_seconds=DEADLINE)
        out = self.run(body, fault_plan=plan, timeout_policy=policy)
        assert out == [3, None, 3, 3]

    def board(self):
        return StealBoard(4, steal_seed=1,
                          steal_seconds=lambda thief, victim: 1e-5,
                          timeout=DEADLINE)

    def test_steal_board_park(self):
        """Four tasks, one of them blocked on another: whoever is left
        without a ready task (thieves included) parks in ``next_action``
        until the blocker is done, while the others compute."""
        board = self.board()
        gate = Task("bootstrap", 3, 0)
        tasks = [Task("bootstrap", 0, 0, deps=(gate.id,)),
                 Task("bootstrap", 1, 0), Task("bootstrap", 2, 0), gate]
        assignment = {t.origin: [t.id] for t in tasks}
        order = []

        def body(comm):
            board.begin_stage("s", tasks, assignment, (0, 1, 2, 3))

            def execute(task):
                compute(comm)
                order.append(task.id)
                return task.id

            return run_rank_pool(board, comm.rank, comm.clock, execute).executed

        out = self.run(body)
        assert sorted(sum(out, [])) == sorted(t.id for t in tasks)
        assert order.index(gate.id) < order.index(tasks[0].id)

    def test_begin_stage_drain(self):
        """Rank 0 is not in the first stage: installing the second one it
        waits in ``begin_stage`` until the other three have drained it."""
        board = self.board()
        first = [Task("bootstrap", r, 0) for r in (1, 2, 3)]
        second = [Task("fast", r, 0) for r in (0, 1, 2, 3)]

        def body(comm):
            def execute(task):
                compute(comm)
                return task.id

            done = []
            if comm.rank != 0:
                board.begin_stage(
                    "one", first, {t.origin: [t.id] for t in first}, (1, 2, 3)
                )
            comm.barrier()  # stage one is installed before rank 0 goes on
            if comm.rank != 0:
                done += run_rank_pool(board, comm.rank, comm.clock, execute).executed
            board.begin_stage(
                "two", second, {t.origin: [t.id] for t in second}, (0, 1, 2, 3)
            )
            done += run_rank_pool(board, comm.rank, comm.clock, execute).executed
            return done

        out = self.run(body)
        assert out[0] == ["fast:0:0"]
        assert out[1:] == [[f"bootstrap:{r}:0", f"fast:{r}:0"] for r in (1, 2, 3)]


def test_slow_but_healthy_peer_is_not_declared_dead():
    """One rank's stage takes about three suspicion deadlines of wall
    time while its peers wait in a resilient collective: its clock keeps
    moving (it is never kept off the token for long), so nobody is
    suspected."""
    policy = TimeoutPolicy(collective_seconds=1.0, world_seconds=60.0)

    def body(comm):
        if comm.rank == 2:
            compute(comm, 3.0)
        else:
            compute(comm, 0.1 * comm.rank)
        return comm.allreduce(1), comm.known_dead

    out = run_spmd(body, 4, fault_plan=FaultPlan(), timeout_policy=policy)
    assert out == [(4, [])] * 4


# ---------------------------------------------------------------------------
# Results do not depend on the interleaving
# ---------------------------------------------------------------------------


BENCH_GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"
GOLDEN_SEED = 4242


@pytest.fixture(scope="module")
def ranks_4x2():
    """The benchmark's ``ranks_4x2_steal`` shape and its pinned facts."""
    aln, _ = simulate_alignment(
        SimulationParams(n_taxa=6, n_sites=300, seed=GOLDEN_SEED)
    )
    golden = json.loads(BENCH_GOLDENS.read_text(encoding="ascii"))
    facts = golden["workloads"]["ranks_4x2_steal"][str(GOLDEN_SEED)]["facts"]
    return compress_alignment(aln), facts


@pytest.mark.parametrize("schedule", ["work-steal", "static"])
def test_consecutive_4x2_analyses_are_identical_and_match_the_goldens(
    ranks_4x2, schedule
):
    pal, facts = ranks_4x2
    config = HybridConfig(
        n_processes=4, n_threads=2, kernel="batched", schedule=schedule,
        comprehensive=ComprehensiveConfig(
            n_bootstraps=8, seed_p=12345, seed_x=12345,
            stage_params=StageParams(slow_max_rounds=2, thorough_max_rounds=3),
        ),
    )
    runs = [run_hybrid_analysis(pal, config) for _ in range(3)]
    for later in runs[1:]:
        assert_bit_identical(runs[0], later, timings=True)
    report = runs[0].to_report()
    # bench/'s own rule: best_lnl to 1e-9 (another BLAS may round
    # differently), everything else exactly.
    assert report["best_lnl"] == pytest.approx(facts["best_lnl"], rel=1e-9)
    for key in ("best_tree", "rng_fingerprint", "n_bootstraps_done"):
        assert report[key] == facts[key], key

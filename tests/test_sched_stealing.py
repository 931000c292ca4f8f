"""Tests for the work-steal scheduler core (repro.sched.queue /
repro.sched.stealing / repro.sched.placement): the threaded board,
held to hand-traced numbers and to itself across interleavings."""

import re
import threading
import time

import pytest

from repro.mpi.launcher import run_spmd
from repro.mpi.policy import TimeoutPolicy
from repro.sched.placement import initial_assignment
from repro.sched.queue import SchedState, SchedulerError, StealBoard
from repro.sched.stealing import run_rank_pool
from repro.sched.tasks import Task, task_id
from repro.util.rng import RAxMLRandom
from repro.util.timing import VirtualClock


def skewed_pool(n_ranks=4, per_rank=6, seed=4242, chain=False):
    """Independent (or per-origin chained) tasks with skewed costs."""
    tasks, costs = [], {}
    rng = RAxMLRandom(seed)
    for o in range(n_ranks):
        scale = 1.0 + 2.0 * (o == n_ranks - 1)  # last origin is a straggler
        for i in range(per_rank):
            deps = (task_id("bootstrap", o, i - 1),) if chain and i > 0 else ()
            t = Task("bootstrap", o, i, deps)
            tasks.append(t)
            costs[t.id] = scale * rng.lognormal(1.0, 0.6)
    members = tuple(range(n_ranks))
    return tasks, initial_assignment(tasks, members), costs, members


def run_board(tasks, assignment, costs, members, steal_seed=4242,
              steal_seconds=1.05e-5, stagger=None):
    """Drain one pool on the threaded board; returns the board and the
    per-rank outcomes."""
    board = StealBoard(len(members), steal_seed, steal_seconds, timeout=60)
    outcomes = {}
    errors = []

    def body(rank):
        try:
            clock = VirtualClock()
            board.begin_stage("bootstrap", tasks, assignment, members)
            if stagger:
                # Wall-clock jitter: interleavings must not change results.
                threading.Event().wait(stagger * (rank + 1) / 1000.0)
            outcomes[rank] = run_rank_pool(
                board, rank, clock,
                lambda task: clock.advance(costs[task.id]) and None,
            )
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append((rank, exc))

    threads = [threading.Thread(target=body, args=(r,)) for r in members]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return board, outcomes


def static_makespan(tasks, costs):
    """The static schedule's makespan: every origin drains its own share,
    so the largest per-origin cost sum."""
    per_origin = {}
    for t in tasks:
        per_origin[t.origin] = per_origin.get(t.origin, 0.0) + costs[t.id]
    return max(per_origin.values())


class TestBoardDeterminism:
    """The threaded board on its own: its commit order is fixed by
    ``(virtual time, rank)``, whatever the wall-clock interleaving, and
    it is held to hand-traced literal numbers."""

    @pytest.mark.parametrize("seed", [100, 101, 102, 103])
    def test_identical_across_staggers(self, seed):
        pool = skewed_pool(seed=seed)
        runs = []
        for stagger in range(4):
            board, outcomes = run_board(*pool, stagger=stagger)
            stats = board.stage_stats()["bootstrap"]
            assert sum(s["steal_grants"] for s in stats.values()) > 0
            runs.append((
                {r: (o.finish_time, o.executed, o.stolen)
                 for r, o in outcomes.items()},
                board.steal_log(),
            ))
        assert all(run == runs[0] for run in runs[1:])

    def test_hand_traced_two_rank_pool(self):
        """Two ranks, so the victim is forced; a flat 0.25 s steal.

        Rank 0 owns a0 (1 s); rank 1 owns x0 (2 s), x1, x2 and x3
        (1 s each; x3 needs x1).  Operations commit in (time, rank)
        order:

        * t=0: rank 0 runs a0, rank 1 runs x0.
        * t=1: rank 0 finishes a0 and scans rank 1's queue from the
          tail: x3 is not ready, x2 is.  It steals x2 and starts it at
          1.25.
        * t=2: rank 1 finishes x0 and runs x1, the head of its queue.
        * t=2.25: rank 0 finishes x2; x3 still waits on x1, so the probe
          is an attempt without a grant, and rank 0 parks.
        * t=3: rank 1 finishes x1, wakes rank 0 and runs x3 itself;
          rank 0 finds nothing and parks again.
        * t=4: rank 1 finishes x3; the pool drains for both ranks.

        The static schedule would end at rank 1's share, 5 s.
        """
        a0 = Task("bootstrap", 0, 0)
        x0, x1, x2 = (Task("bootstrap", 1, i) for i in range(3))
        x3 = Task("bootstrap", 1, 3, (x1.id,))
        tasks = [a0, x0, x1, x2, x3]
        costs = {a0.id: 1.0, x0.id: 2.0, x1.id: 1.0, x2.id: 1.0, x3.id: 1.0}
        members = (0, 1)
        board, out = run_board(
            tasks, initial_assignment(tasks, members), costs, members,
            steal_seconds=0.25,
        )
        assert board.steal_log() == [
            {"stage": "bootstrap", "thief": 0, "victim": 1,
             "task": "bootstrap:1:2", "time": 1.0},
        ]
        assert out[0].executed == ["bootstrap:0:0", "bootstrap:1:2"]
        assert out[0].stolen == ["bootstrap:1:2"]
        assert out[1].executed == ["bootstrap:1:0", "bootstrap:1:1",
                                   "bootstrap:1:3"]
        assert out[1].stolen == []
        assert [(o.busy_seconds, o.last_busy_time, o.finish_time)
                for o in (out[0], out[1])] == [(2.0, 2.25, 4.0),
                                               (4.0, 4.0, 4.0)]
        assert board.stage_stats()["bootstrap"] == {
            0: {"executed": 2, "executed_stolen": 1, "steal_attempts": 2,
                "steal_grants": 1, "tasks_lost": 0, "max_queue_depth": 1},
            1: {"executed": 3, "executed_stolen": 0, "steal_attempts": 0,
                "steal_grants": 0, "tasks_lost": 1, "max_queue_depth": 4},
        }
        assert static_makespan(tasks, costs) == 5.0

    def test_chains_serialise_per_origin(self):
        """A fully chained origin cannot be stolen mid-chain: the longest
        chain lower-bounds the board's makespan."""
        tasks, asn, costs, members = skewed_pool(chain=True)
        _, outcomes = run_board(tasks, asn, costs, members)
        makespan = max(o.finish_time for o in outcomes.values())
        assert makespan >= static_makespan(tasks, costs) - 1e-9

    def test_straggler_queue_drains_faster_than_its_static_share(self):
        tasks, asn, costs, members = skewed_pool()
        board, outcomes = run_board(tasks, asn, costs, members)
        straggler = members[-1]
        assert board.stage_stats()["bootstrap"][straggler]["tasks_lost"] > 0
        makespan = max(o.finish_time for o in outcomes.values())
        assert makespan < static_makespan(tasks, costs)
        executed = sorted(t for o in outcomes.values() for t in o.executed)
        assert executed == sorted(t.id for t in tasks)


class TestSetupTasks:
    """Setup costs no virtual time, so the frontier cannot order a steal
    of a live rank's setup against the owner's own pop."""

    def state(self):
        tasks = [Task("setup", o, 0) for o in range(2)]
        return SchedState(tasks, initial_assignment(tasks, (0, 1)), (0, 1), 4242)

    def test_a_live_ranks_setup_is_never_stolen(self):
        st = self.state()
        assert st.decide(0, 0.0).kind == "run"
        st.complete(0, task_id("setup", 0, 0), None)
        assert st.decide(0, 0.0).kind == "park"
        assert st.stats[0].steal_attempts == 0

    def test_a_dead_ranks_setup_is_taken(self):
        st = self.state()
        st.abandon(1, 0.0)
        assert st.decide(0, 0.0).kind == "run"
        st.complete(0, task_id("setup", 0, 0), None)
        taken = st.decide(0, 0.0)
        assert (taken.kind, taken.task_id, taken.victim) == (
            "steal", task_id("setup", 1, 0), 1,
        )


def test_a_board_in_a_rank_bodys_closure_fails_fast():
    """Each rank process holds a private forked copy of a board its body
    captured, where no peer ever arrives: the first waiting call says so
    instead of waiting out the board's 600 s timeout."""
    board = StealBoard(2, 4242, 1.05e-5)
    tasks = [Task("setup", o, 0) for o in range(2)]

    def body(comm):
        board.begin_stage("setup", tasks, initial_assignment(tasks, (0, 1)), (0, 1))
        return run_rank_pool(board, comm.rank, comm.clock, lambda task: None)

    start = time.monotonic()
    with pytest.raises(SchedulerError, match=re.escape("run_spmd(..., shared=board)")):
        run_spmd(body, 2, timeout_policy=TimeoutPolicy(world_seconds=30.0))
    assert time.monotonic() - start < 10.0

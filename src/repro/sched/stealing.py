"""Work-steal execution: the threaded pool loop and a sequential simulator.

:func:`run_rank_pool` is what the work-steal execution backend
(:class:`~repro.runtime.backends.WorkStealBackend`) runs per rank and stage:
a loop of ``next_action`` → synchronise the virtual clock → execute →
report completion, with rank death funnelled into
:meth:`~repro.sched.queue.StealBoard.abandon` so the in-flight task is
re-enqueued instead of lost.

:func:`simulate` replays the identical decision rule
(:class:`~repro.sched.queue.SchedState`) as a sequential discrete-event
simulation over *given* task costs — events processed in ``(time, rank)``
order, which is exactly the commit order the threaded board enforces.
It powers the scheduler microbenchmark, the perfmodel advisor's
schedule-mode recommendation, and the board-vs-simulator parity tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.obs.recorder import current as _obs_current
from repro.sched.queue import SchedState, SchedulerError, StealBoard, steal_price
from repro.sched.tasks import Task
from repro.util.timing import VirtualClock


@dataclass
class PoolOutcome:
    """What one rank did in one stage pool."""

    executed: list[str] = field(default_factory=list)
    stolen: list[str] = field(default_factory=list)
    busy_seconds: float = 0.0
    #: Virtual time of this rank's last completion (its useful work ends).
    last_busy_time: float = 0.0
    #: Virtual time the stage pool drained (>= last_busy_time; the
    #: difference is this rank's idle tail — what work stealing shrinks).
    finish_time: float = 0.0


def run_rank_pool(
    board: StealBoard,
    rank: int,
    clock: VirtualClock,
    execute,
    status_of=None,
    journal=None,
    on_start=None,
) -> PoolOutcome:
    """Drain one stage pool from ``rank``'s point of view.

    ``execute(task)`` runs the task on this rank's engines (advancing
    ``clock``); ``journal.record`` (if given) persists each completion
    *before* it is published to the board, so a crash between the two
    re-runs the task instead of losing it; ``on_start(task)`` is
    the fault-injection hook.  Any exception — including
    :class:`~repro.mpi.faults.RankKilledError` — abandons the in-flight
    task back to the board (embargoed at the death's virtual time) and
    propagates.
    """
    out = PoolOutcome()
    finished: str | None = None
    result = None
    try:
        while True:
            action = board.next_action(
                rank, clock.now, finished=finished, result=result,
                status_of=status_of,
            )
            finished = None
            result = None
            if action.kind == "done":
                # The rank idled from its last completion until the pool
                # drained; its stage timeline ends at the drain time.
                out.last_busy_time = clock.now
                clock.synchronize(action.time)
                out.finish_time = clock.now
                return out
            task = action.task
            # A steal (or a wake-up after parking) moves this rank's
            # timeline forward to the committed action time; the charge
            # covers the request/grant message pair.
            clock.synchronize(action.time)
            rec = _obs_current()
            if rec is not None and action.kind == "steal":
                rec.count("sched.steals")
                rec.instant("steal", "sched", args={
                    "task": task.id, "victim": action.victim,
                })
            if on_start is not None:
                on_start(task)
            t0 = clock.now
            if rec is not None:
                result = execute(task)
                rec.span(f"task {task.id}", "sched", t0, args={
                    "stolen": action.kind == "steal", "origin": task.origin,
                })
            else:
                result = execute(task)
            out.busy_seconds += clock.now - t0
            out.executed.append(task.id)
            if action.kind == "steal":
                out.stolen.append(task.id)
            if journal is not None and task.kind != "setup":
                journal.record(task, result, clock.now)
            finished = task.id
    except BaseException:
        board.abandon(rank, clock.now)
        raise


# ---------------------------------------------------------------------------
# Sequential discrete-event simulation
# ---------------------------------------------------------------------------


def simulate(
    tasks: list[Task],
    assignment: dict[int, list[str]],
    costs: dict[str, float],
    members: tuple[int, ...],
    mode: str = "work-steal",
    steal_seed: int = 12345,
    steal_seconds=1.05e-5,
    start: float = 0.0,
    kill_after: dict[int, int] | None = None,
    pre_completed: set[str] | None = None,
) -> dict:
    """Simulate one stage pool under the shared decision rule.

    ``costs`` maps task id → virtual execution seconds (strictly
    positive — zero-cost tasks would break the board's strict-ordering
    argument, so they are rejected here too).  ``mode`` is ``"static"``
    (each rank drains only its own queue) or ``"work-steal"``.
    ``kill_after`` optionally kills a rank partway through its
    ``n``-th started task (0-based count), modelling mid-queue death:
    the doomed task is abandoned at half its cost and re-enqueued.

    ``steal_seconds`` is either a flat float or a callable
    ``(thief, victim) -> float`` (:func:`~repro.sched.queue.steal_price`)
    — the advisor passes the cost model's steal price, so an on-node
    steal is a shared-memory hop and a cross-node one an interconnect
    round-trip.

    Returns makespan, per-rank busy/finish times, idle fractions and
    steal counters — the quantities ``BENCH_sched.json`` and the
    advisor's schedule-mode recommendation are built from.
    """
    if mode not in ("static", "work-steal"):
        raise ValueError(f"unknown mode {mode!r}")
    for t in tasks:
        if costs.get(t.id, 0.0) <= 0.0:
            raise ValueError(f"task {t.id} needs a positive cost")
    allow_steal = mode == "work-steal"
    steal_cost = steal_price(steal_seconds)
    state = SchedState(
        tasks, assignment, members, steal_seed,
        completed={tid: None for tid in (pre_completed or ())},
    )
    kill_after = dict(kill_after or {})
    starts = {r: 0 for r in members}
    busy = {r: 0.0 for r in members}
    last_busy = {r: start for r in members}
    finish: dict[int, float] = {}
    parked: dict[int, float] = {}
    # Event = (time, rank, kind, task_id); kinds: "decide" after a
    # completion (or at stage entry), "death" for a doomed task.
    heap: list[tuple[float, int, str, str | None]] = [
        (start, r, "decide", None) for r in members
    ]
    heapq.heapify(heap)
    completed_ids: list[str] = []
    guard = 0
    while heap:
        guard += 1
        if guard > 100_000:
            raise SchedulerError("simulation did not terminate")
        t, r, kind, tid = heapq.heappop(heap)
        if r in state.dead or r in finish:
            continue
        if kind == "death":
            state.abandon(r, t)
            for pr, pt in list(parked.items()):
                parked.pop(pr)
                heapq.heappush(heap, (max(pt, t), pr, "decide", None))
            continue
        if tid is not None:
            state.complete(r, tid, None)
            completed_ids.append(tid)
            last_busy[r] = t
            for pr, pt in list(parked.items()):
                parked.pop(pr)
                heapq.heappush(heap, (max(pt, t), pr, "decide", None))
        d = state.decide(r, t, allow_steal)
        if d.kind == "park":
            parked[r] = t
        elif d.kind == "done":
            finish[r] = t
        else:
            t_go = t + (steal_cost(r, d.victim) if d.kind == "steal" else 0.0)
            cost = costs[d.task_id]
            doomed = starts[r] == kill_after.get(r, -1)
            starts[r] += 1
            busy[r] += (t_go - t)
            if doomed:
                heapq.heappush(heap, (t_go + 0.5 * cost, r, "death", d.task_id))
            else:
                busy[r] += cost
                heapq.heappush(heap, (t_go + cost, r, "decide", d.task_id))
    alive = [r for r in members if r not in state.dead]
    if parked:
        if not state.dead:
            raise SchedulerError(
                f"simulation wedged: ranks {sorted(parked)} parked forever "
                f"(unsatisfiable dependencies? pending={sorted(state._pending)})"
            )
        # Survivors stranded behind a dead rank's unreachable work (static
        # mode cannot steal it): they idle from their park time on — the
        # recovery gap work stealing closes.
        for pr, pt in parked.items():
            finish[pr] = pt
    incomplete = sorted(state._pending | set(state.in_flight.values()))
    makespan = max((finish[r] for r in alive), default=start) - start
    idle = {
        r: (makespan - busy[r]) if makespan > 0 else 0.0 for r in alive
    }
    return {
        "mode": mode,
        "makespan": makespan,
        "finish": dict(finish),
        "busy": {r: busy[r] for r in alive},
        "idle_fraction": (
            sum(idle.values()) / (makespan * len(alive))
            if makespan > 0 and alive else 0.0
        ),
        # Tail = pool-drain time minus the rank's last completion — the
        # barrier wait work stealing exists to shrink (matches the
        # threaded pool's finish_time - last_busy_time).
        "idle_tail": {
            r: (start + makespan) - last_busy[r] for r in alive if r in finish
        },
        "steal_attempts": sum(s.steal_attempts for s in state.stats.values()),
        "steal_grants": sum(s.steal_grants for s in state.stats.values()),
        "completed": completed_ids,
        "incomplete": incomplete,
        "stats": {r: s.as_dict() for r, s in state.stats.items()},
    }

"""Work-steal execution: the threaded pool loop.

:func:`run_rank_pool` is what the work-steal execution backend
(:class:`~repro.runtime.backends.WorkStealBackend`) runs per rank and stage:
a loop of ``next_action`` → synchronise the virtual clock → execute →
report completion, with rank death funnelled into
:meth:`~repro.sched.queue.StealBoard.abandon` so the in-flight task is
re-enqueued instead of lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.recorder import current as _obs_current
from repro.sched.queue import StealBoard
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


"""Per-rank task deques and the deterministic steal protocol.

Two layers live here:

* :class:`SchedState` — the pure queue/DAG state plus the *decision
  rule* (pop own head, else steal from a seeded-permutation victim's
  tail, else finish or park).  It is free of threads and clocks: the
  same state and the same ``(virtual time, rank)`` produce the same
  decision.

* :class:`StealBoard` — the shared, lock-guarded board ranks coordinate
  through (rank processes reach it through the launcher, where one hub
  thread per rank calls it).  Wall-clock thread interleaving is
  arbitrary, so
  reproducibility needs a rule stronger than locking: every queue
  operation is stamped with the acting rank's *virtual* time and commits
  in global ``(time, rank)`` order (a conservative discrete-event
  frontier).  An operation may commit only when no other live rank can
  still introduce an earlier-stamped operation: every other rank is
  either parked (transparent), or holds a later-stamped intent, or is
  busy with its last commit at a time ≥ ours (task costs are strictly
  positive, so its next operation is strictly later — all but setup's,
  which is why a live rank's setup task is never stolen).  Otherwise we
  wait.  The resulting commit sequence is sorted by ``(time, rank)``,
  which makes queue contents, victim choices and steal outcomes
  independent of thread scheduling.

Steal costs are charged to the thief (a request/grant message pair over
the virtual interconnect); victims lose queue entries but no time,
mirroring one-sided-communication work stealing.
"""

from __future__ import annotations

import os
import threading
import time as _wall
from dataclasses import dataclass, field

from repro.sched.tasks import Task
from repro.util.rng import RAxMLRandom, rank_seed

#: Seed offset for the per-rank victim-permutation streams (mixed with
#: the run's ``-p`` seed so different runs steal differently but the
#: same run always steals identically).
VICTIM_SEED_OFFSET = 4099

#: Stride mixing the membership epoch into the victim seeds: an agreed
#: death re-seeds every survivor's permutation stream deterministically
#: at the next stage, so thieves spread over the *surviving* members
#: instead of replaying a permutation drawn for the old world.  Epoch 0
#: reproduces the historical seeds exactly.
EPOCH_SEED_STRIDE = 7919


class SchedulerError(RuntimeError):
    """The steal board reached an impossible or wedged state."""


@dataclass(frozen=True)
class Decision:
    """What a rank should do next, per the shared decision rule."""

    kind: str  # "run" | "steal" | "done" | "park"
    task_id: str | None = None
    victim: int | None = None


@dataclass
class RankStats:
    """Per-rank scheduling counters for one stage."""

    executed: int = 0
    executed_stolen: int = 0
    steal_attempts: int = 0  # victim queues probed
    steal_grants: int = 0  # successful steals (as thief)
    tasks_lost: int = 0  # tasks stolen from this rank's queue
    max_queue_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "executed": self.executed,
            "executed_stolen": self.executed_stolen,
            "steal_attempts": self.steal_attempts,
            "steal_grants": self.steal_grants,
            "tasks_lost": self.tasks_lost,
            "max_queue_depth": self.max_queue_depth,
        }


class SchedState:
    """Queues, completions and the decision rule for one stage.

    ``completed`` may be pre-populated (earlier stages' results, resumed
    tasks) — dependency readiness consults the full map.
    """

    def __init__(
        self,
        tasks: list[Task],
        assignment: dict[int, list[str]],
        members: tuple[int, ...],
        steal_seed: int,
        completed: dict[str, object] | None = None,
        epoch: int = 0,
    ) -> None:
        self.tasks: dict[str, Task] = {t.id: t for t in tasks}
        self.members = tuple(members)
        self.queues: dict[int, list[str]] = {
            r: list(assignment.get(r, ())) for r in members
        }
        for r, q in self.queues.items():
            for tid in q:
                if tid not in self.tasks:
                    raise SchedulerError(f"rank {r} assigned unknown task {tid}")
        self.completed: dict[str, object] = dict(completed or {})
        self.in_flight: dict[int, str] = {}
        self.embargo: dict[str, float] = {}
        self.dead: set[int] = set()
        self.stats: dict[int, RankStats] = {r: RankStats() for r in members}
        self._victim_rngs: dict[int, RAxMLRandom] = {
            r: RAxMLRandom(rank_seed(
                steal_seed + VICTIM_SEED_OFFSET + epoch * EPOCH_SEED_STRIDE, r
            ))
            for r in members
        }
        self._pending = {
            tid for q in self.queues.values() for tid in q
        }
        for r in members:
            self.stats[r].max_queue_depth = len(self.queues[r])

    # -- predicates ---------------------------------------------------------

    def ready(self, tid: str, now: float) -> bool:
        if self.embargo.get(tid, float("-inf")) > now:
            return False
        return all(d in self.completed for d in self.tasks[tid].deps)

    def all_done(self) -> bool:
        return not self._pending and not self.in_flight

    # -- mutations (every call is one committed operation) -------------------

    def complete(self, rank: int, tid: str, result: object) -> None:
        if self.in_flight.get(rank) != tid:
            raise SchedulerError(
                f"rank {rank} completed {tid} it was not executing"
            )
        del self.in_flight[rank]
        self.completed[tid] = result

    def abandon(self, rank: int, now: float) -> str | None:
        """Rank death: re-enqueue its in-flight task (embargoed until the
        death time — it cannot be stolen into the past) and leave its
        queue stealable.  Returns the re-enqueued task id, if any."""
        self.dead.add(rank)
        tid = self.in_flight.pop(rank, None)
        if tid is not None:
            self.queues[rank].insert(0, tid)
            self._pending.add(tid)
            self.embargo[tid] = now
        return tid

    def _loot(self, victim: int) -> list[str]:
        """The tasks of ``victim``'s queue a thief may take, head to tail.

        A live rank's setup task is never stolen.  Setup costs no virtual
        time, so a rank that finishes its own setup stands at the same
        instant as a peer that has not yet popped its one: the frontier
        cannot order the two, and the steal would follow wall-clock
        arrival.  A dead rank's setup task is taken like any other."""
        queue = self.queues[victim]
        if victim in self.dead:
            return queue
        return [tid for tid in queue if self.tasks[tid].kind != "setup"]

    def decide(self, rank: int, now: float) -> Decision:
        """The decision rule at one committed ``(now, rank)``."""
        stats = self.stats[rank]
        own = self.queues[rank]
        for pos, tid in enumerate(own):
            if self.ready(tid, now):
                own.pop(pos)
                self._pending.discard(tid)
                self.in_flight[rank] = tid
                stats.executed += 1
                return Decision("run", tid)
        if any(self._loot(v) for v in self.members if v != rank):
            perm = self._victim_rngs[rank].permutation(len(self.members))
            for vi in perm:
                victim = self.members[vi]
                if victim == rank:
                    continue
                loot = self._loot(victim)
                if not loot:
                    continue
                stats.steal_attempts += 1
                # Thieves take from the tail; the owner pops the head.
                for tid in reversed(loot):
                    if self.ready(tid, now):
                        self.queues[victim].remove(tid)
                        self._pending.discard(tid)
                        self.in_flight[rank] = tid
                        stats.executed += 1
                        stats.executed_stolen += 1
                        stats.steal_grants += 1
                        self.stats[victim].tasks_lost += 1
                        return Decision("steal", tid, victim=victim)
        if self.all_done():
            return Decision("done")
        return Decision("park")


@dataclass(frozen=True)
class Action:
    """A committed scheduling action handed back to the pool runner.

    ``time`` is the action's committed virtual time *including* the
    steal charge — the runner synchronises its clock to it before
    executing."""

    kind: str  # "run" | "steal" | "done"
    task: Task | None
    time: float
    victim: int | None = None


@dataclass
class _Intent:
    time: float
    parked: bool = False


class StealBoard:
    """The shared steal board of one work-steal run (all stages).

    Completed results persist across stages (later stages depend on
    earlier stages' trees); queues, membership and statistics are
    per-stage.  All methods are thread-safe; :meth:`next_action`
    implements the conservative ``(time, rank)`` frontier described in
    the module docstring.  It and :meth:`begin_stage` wait for other
    ranks; in a multi-rank world the board stays in the launcher and
    they wait on the calling rank's hub thread.
    """

    def __init__(
        self,
        n_ranks: int,
        steal_seed: int,
        steal_seconds,
        timeout: float = 600.0,
    ) -> None:
        """``steal_seconds(thief, victim)`` is the modelled round-trip of
        one steal: the cost model's hop-aware price, so an on-node steal
        is cheaper than one crossing the interconnect.  The victim is
        fixed at commit time (the deterministic ``(time, rank)``
        frontier), so a per-hop cost never perturbs the commit order's
        determinism."""
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.steal_seed = steal_seed
        self.steal_cost = steal_seconds
        self.timeout = timeout
        #: The process that made the board, the only one whose calls can
        #: meet the other ranks' (:meth:`_check_process`).
        self._pid = os.getpid()
        self._cond = threading.Condition()
        self._stage: str | None = None
        self._state: SchedState | None = None
        self._results: dict[str, object] = {}
        self._stage_stats: dict[str, dict[int, dict]] = {}
        self._steals: list[dict] = []
        # Protocol state (reset per stage):
        self._members: tuple[int, ...] = ()
        self._published: dict[int, float] = {}
        self._intents: dict[int, _Intent] = {}
        self._finished: set[int] = set()

    # -- results ------------------------------------------------------------

    def result(self, tid: str):
        with self._cond:
            if tid not in self._results:
                raise SchedulerError(f"no completed result for task {tid}")
            return self._results[tid]

    def has_result(self, tid: str) -> bool:
        with self._cond:
            return tid in self._results

    def preload(self, results: dict[str, object]) -> None:
        """Publish already-known results (a resumed run's journalled
        tasks): the stages they belong to schedule only what is missing.
        Every rank preloads the same values, so it is idempotent."""
        with self._cond:
            for tid, res in results.items():
                self._results.setdefault(tid, res)

    def steal_log(self) -> list[dict]:
        with self._cond:
            return list(self._steals)

    def stage_stats(self) -> dict[str, dict[int, dict]]:
        """Per-stage, per-rank counters (call after the stage barrier)."""
        with self._cond:
            out = {s: {r: dict(d) for r, d in per.items()}
                   for s, per in self._stage_stats.items()}
            if self._stage is not None and self._state is not None:
                out[self._stage] = {
                    r: st.as_dict() for r, st in self._state.stats.items()
                }
            return out

    def _check_process(self, call: str) -> None:
        """A waiting call made in another process reached a private forked
        copy of the board, where no other rank will ever arrive: fail now
        instead of waiting out :attr:`timeout`."""
        if os.getpid() != self._pid:
            raise SchedulerError(
                f"StealBoard.{call} called in process {os.getpid()} on a "
                f"private copy of a board made in process {self._pid}; hand "
                "the board to the ranks as run_spmd(..., shared=board), not "
                "through the rank body's closure"
            )

    # -- stage lifecycle ----------------------------------------------------

    def begin_stage(
        self,
        stage: str,
        tasks: list[Task],
        assignment: dict[int, list[str]],
        members: tuple[int, ...],
        status_of=None,
        epoch: int = 0,
    ) -> None:
        """Install (first caller) or join (everyone else) a stage pool.

        All members enter between the same two collectives, so the first
        caller's view (tasks, assignment, members) is the consistent one;
        later callers verify they agree — a mismatch is an SPMD bug, not
        a race.

        The installer first waits for the previous stage to drain: every
        prior member must have committed its "done" (or died) before the
        protocol state is reset, else a slow rank's final commit would
        race the reset.  Ranks reach their next ``begin_stage`` only
        after their own "done", so the wait is bounded.
        """
        self._check_process("begin_stage")
        deadline = _wall.monotonic() + self.timeout
        with self._cond:
            while (
                self._stage is not None
                and self._stage != stage
                and any(
                    r not in self._finished and r not in self._state.dead
                    for r in self._members
                )
            ):
                self._poll_deaths(status_of)
                if _wall.monotonic() > deadline:
                    raise SchedulerError(
                        f"begin_stage({stage!r}): previous stage "
                        f"{self._stage!r} never drained (finished="
                        f"{sorted(self._finished)}, dead="
                        f"{sorted(self._state.dead)})"
                    )
                self._cond.wait(0.05)
            if self._stage != stage:
                self._archive_stage()
                live = [t for t in tasks if t.id not in self._results]
                live_ids = {t.id for t in live}
                trimmed = {
                    r: [tid for tid in q if tid in live_ids]
                    for r, q in assignment.items()
                }
                state = SchedState(
                    live, trimmed, members, self.steal_seed,
                    completed=self._results, epoch=epoch,
                )
                state.completed = self._results  # shared, persists stages
                self._stage = stage
                self._state = state
                self._members = tuple(members)
                self._published = {r: float("-inf") for r in members}
                self._intents = {}
                self._finished = set()
            else:
                if tuple(members) != self._members:
                    raise SchedulerError(
                        f"stage {stage!r}: rank entered with members "
                        f"{tuple(members)} but the stage was installed with "
                        f"{self._members} — inconsistent alive sets"
                    )
            self._cond.notify_all()

    def _archive_stage(self) -> None:
        if self._stage is not None and self._state is not None:
            self._stage_stats[self._stage] = {
                r: st.as_dict() for r, st in self._state.stats.items()
            }

    # -- the conservative frontier ------------------------------------------

    def _may_commit(self, rank: int, t: float) -> bool:
        """True when no other live rank can still commit before (t, rank)."""
        st = self._state
        for r in self._members:
            if r == rank or r in self._finished or r in st.dead:
                continue
            it = self._intents.get(r)
            if it is not None:
                if it.parked:
                    continue  # transparent until woken
                if (it.time, r) < (t, rank):
                    return False  # r commits first
            else:
                # r is busy executing (next op strictly after published[r],
                # costs are positive) or has not arrived yet (-inf).
                if self._published[r] < t:
                    return False
        return True

    def _wake_parked(self, commit_t: float) -> None:
        """State changed: parked ranks must re-evaluate, stamped no
        earlier than the enabling commit (they slept through the gap)."""
        for r, it in self._intents.items():
            if it.parked:
                it.time = max(it.time, commit_t)
                it.parked = False
        self._cond.notify_all()

    def _poll_deaths(self, status_of) -> None:
        """Notice externally-died members (killed at a stage boundary, so
        they never arrived and hold no in-flight task).  Their queues are
        un-embargoed: they did nothing this stage, so any commit time may
        take their tasks — the frontier already blocked every later
        operation until the death became known."""
        if status_of is None:
            return
        st = self._state
        changed = False
        for r in self._members:
            if r in st.dead or r in self._finished:
                continue
            try:
                dead = status_of(r) == "dead"
            except Exception:
                dead = False
            if dead and self._intents.get(r) is None and r not in st.in_flight:
                st.dead.add(r)
                changed = True
        if changed:
            self._wake_parked(float("-inf"))

    # -- rank-facing operations ----------------------------------------------

    def next_action(
        self,
        rank: int,
        now: float,
        finished: str | None = None,
        result: object | None = None,
        status_of=None,
    ) -> Action:
        """Commit this rank's next operation at virtual time ``now``.

        If ``finished`` names the task the rank just executed, the
        completion commits first (same timestamp — completion and the
        follow-up queue operation are one atomic event).
        """
        self._check_process("next_action")
        deadline = _wall.monotonic() + self.timeout
        with self._cond:
            st = self._state
            if st is None or rank not in self._members:
                raise SchedulerError(f"rank {rank} has no active stage")
            self._intents[rank] = _Intent(now)
            self._cond.notify_all()
            while True:
                self._poll_deaths(status_of)
                it = self._intents[rank]
                now = it.time
                if not it.parked and self._may_commit(rank, now):
                    if finished is not None:
                        st.complete(rank, finished, result)
                        self._results[finished] = result
                        finished = None
                        self._wake_parked(now)
                    decision = st.decide(rank, now)
                    if decision.kind == "park":
                        it.parked = True
                        self._cond.notify_all()
                    else:
                        t_commit = now + (
                            self.steal_cost(rank, decision.victim)
                            if decision.kind == "steal" else 0.0
                        )
                        self._published[rank] = t_commit
                        del self._intents[rank]
                        if decision.kind == "done":
                            self._finished.add(rank)
                        elif decision.kind == "steal":
                            self._steals.append({
                                "stage": self._stage, "thief": rank,
                                "victim": decision.victim,
                                "task": decision.task_id, "time": now,
                            })
                        self._cond.notify_all()
                        if decision.kind == "done":
                            return Action("done", None, now)
                        return Action(
                            decision.kind,
                            st.tasks[decision.task_id],
                            t_commit,
                            victim=decision.victim,
                        )
                if _wall.monotonic() > deadline:
                    raise SchedulerError(
                        f"rank {rank} wedged in stage {self._stage!r} at "
                        f"t={now:.6g} (intents={ {r: (i.time, i.parked) for r, i in self._intents.items()} }, "
                        f"published={self._published}, dead={sorted(st.dead)})"
                    )
                self._cond.wait(0.05)

    def abandon(self, rank: int, now: float) -> None:
        """The rank is dying (mid-task or between tasks): re-enqueue its
        in-flight task and withdraw it from the protocol.  Death is a
        deterministic event of the fault plan, so its virtual timestamp —
        and therefore the embargo on the re-enqueued task — is identical
        in every run."""
        with self._cond:
            st = self._state
            if st is None or rank not in self._members or rank in self._finished:
                return
            st.abandon(rank, now)
            self._intents.pop(rank, None)
            self._wake_parked(now)

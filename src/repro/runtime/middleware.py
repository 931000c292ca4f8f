"""Cross-cutting concerns as ordered middleware around stage boundaries.

Checkpoint/resume, fault injection, rank-death recovery, and obs
instrumentation used to be interleaved by hand into both driver bodies;
here each is one :class:`RunMiddleware` with no-op defaults, attached to
a :class:`~repro.runtime.context.RankContext` in a fixed order.  Hook
order *is* behaviour: the chain ``(fault, obs, checkpoint, recovery)``
reproduces the historical boundary sequence exactly — the stage span is
recorded before the checkpoint file is written, the resumed-stage span
after the clock restore, the recovery span after the replay time is
charged.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.hybrid.checkpoint import (
    STAGE_ORDER,
    CheckpointError,
    CheckpointStore,
    config_fingerprint,
)
from repro.mpi.comm import DistributedStateError
from repro.obs.recorder import current as _obs_current


class RunMiddleware:
    """Base middleware: every hook is a no-op.

    Hooks receive the dispatching :class:`RankContext` first; keyword
    payloads carry the boundary's facts (stage window, checkpoint doc,
    replayed ranks).  Subclasses override only what they care about.
    """

    def on_stage_start(self, ctx, stage: str) -> None:
        """Entering a stage, before any load/run decision."""

    def on_stage_end(self, ctx, stage: str, *, t0: float, recovered: float,
                     payload: dict | None, save: bool) -> None:
        """A stage window just closed (accounting already recorded)."""

    def on_stage_loaded(self, ctx, stage: str, *, t0: float, data: dict) -> None:
        """A stage was restored from checkpoint (clock already advanced)."""

    def on_replicate(self, ctx, b: int) -> None:
        """The rank is about to start its b-th bootstrap replicate."""

    def on_task_start(self, ctx, task, action) -> None:
        """A work-steal pool is about to execute ``task``."""

    def on_recovery(self, ctx, *, t0: float, replayed: list[int],
                    upto: str) -> None:
        """Dead-rank recovery completed (replay time already charged)."""

    def on_sched_summary(self, ctx, *, idle_tail: dict, stats: dict) -> None:
        """A work-steal body finished; per-stage scheduler stats are in."""


class FaultMiddleware(RunMiddleware):
    """Deterministic fault injection (:mod:`repro.mpi.faults`).

    Arms the plan's kill specs at the same points the hand-written bodies
    did: stage entry, the static bootstrap loop's replicate boundary, and
    the b-th bootstrap task a rank *starts* under work stealing (the
    mid-queue kill).  Replay contexts get no FaultMiddleware at all —
    kill specs are not re-armed for an adopter.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self._started_bootstraps = 0

    def on_stage_start(self, ctx, stage: str) -> None:
        if self.plan is not None:
            self.plan.kill_at_stage(ctx.rank, stage)

    def on_replicate(self, ctx, b: int) -> None:
        if self.plan is not None:
            self.plan.kill_at_replicate(ctx.rank, b)

    def on_task_start(self, ctx, task, action) -> None:
        if task.kind != "bootstrap":
            return
        b = self._started_bootstraps
        self._started_bootstraps += 1
        # Same fault-injection point as the static stage loop: the b-th
        # replicate *this rank* starts (mid-queue kill).
        if self.plan is not None:
            self.plan.kill_at_replicate(ctx.rank, b)


class ObsMiddleware(RunMiddleware):
    """Span/metric instrumentation (:mod:`repro.obs`).

    Reads the thread-locally installed recorder at each boundary; with no
    recorder installed every hook reduces to one thread-local read.
    """

    def on_stage_end(self, ctx, stage: str, *, t0, recovered, payload,
                     save) -> None:
        rec = _obs_current()
        if rec is not None:
            # The span covers the wall window (incl. recovery time charged
            # elsewhere); args carry the stage-only accounting.
            rec.span(stage, "stage", t0, args={
                "stage_seconds": ctx.stage_seconds[stage],
                "pattern_ops": ctx.stage_ops[stage],
                "recovery_seconds": recovered,
            })

    def on_stage_loaded(self, ctx, stage: str, *, t0, data) -> None:
        rec = _obs_current()
        if rec is not None:
            # Resumed stages splice into the trace as one span covering the
            # restored window, flagged so timelines read unambiguously.
            rec.span(stage, "stage", t0, ctx.clock.now, args={
                "resumed": True,
                "stage_seconds": ctx.stage_seconds[stage],
                "pattern_ops": ctx.stage_ops[stage],
            })

    def on_recovery(self, ctx, *, t0, replayed, upto) -> None:
        rec = _obs_current()
        if rec is not None and replayed:
            rec.count("recovery.replays", len(replayed))
            rec.span("recovery", "recovery", t0, args={
                "adopted": replayed, "upto": upto,
            })

    def on_sched_summary(self, ctx, *, idle_tail, stats) -> None:
        rec = _obs_current()
        if rec is None:
            return
        for s, tail in idle_tail.items():
            rec.gauge(f"sched.idle_tail.{s}", tail)
        for s, st in stats.items():
            rec.gauge(f"sched.queue_depth.{s}", st.get("max_queue_depth", 0))
        rec.gauge(
            "sched.steal_attempts",
            sum(st.get("steal_attempts", 0) for st in stats.values()),
        )
        rec.gauge(
            "sched.steal_grants",
            sum(st.get("steal_grants", 0) for st in stats.values()),
        )


class CheckpointMiddleware(RunMiddleware):
    """Per-stage checkpoint save/restore (:mod:`repro.hybrid.checkpoint`).

    ``resume_through`` is the index of the last :data:`STAGE_ORDER` stage
    to restore instead of run — negotiated collectively for live ranks
    (and handed to elastic joiners, which have no ``store``: they only
    need to know which barriers the live ranks resumed past), taken from
    the dead rank's own contiguous prefix for replays.
    """

    def __init__(self, store: CheckpointStore | None,
                 resume_through: int = -1) -> None:
        self.store = store
        self.resume_through = resume_through

    def resumed(self, stage: str) -> bool:
        return STAGE_ORDER.index(stage) <= self.resume_through

    def will_save(self, ctx) -> bool:
        return self.store is not None and ctx.save_checkpoints

    def load_stage(self, ctx, stage: str) -> dict:
        """Restore accounting and the rank timeline, then announce the
        splice point to the rest of the chain."""
        data = self.store.load(stage)
        if data is None:
            raise CheckpointError(
                f"rank {ctx.rank}: negotiated checkpoint for stage "
                f"{stage!r} disappeared from {self.store.directory}"
            )
        stamp = data.get("membership")
        if stamp is not None and ctx.comm is not None:
            view = ctx.comm.membership_view()
            if stamp["fingerprint"] != view.fingerprint():
                raise DistributedStateError(
                    f"rank {ctx.rank}: checkpoint for stage {stage!r} was "
                    f"written under membership epoch {stamp['epoch']} "
                    f"(live={stamp['live']}, "
                    f"fingerprint {stamp['fingerprint']}), but this run's "
                    f"membership is epoch {view.epoch} "
                    f"(live={list(view.live)}, "
                    f"fingerprint {view.fingerprint()}); resume requires "
                    "an identical rank membership"
                )
        ctx.stage_seconds[stage] = data["stage_seconds"]
        ctx.stage_ops[stage] = data["stage_ops"]
        t0 = ctx.clock.now
        # Restore the rank's timeline (synchronize only moves forward, and
        # a fresh run starts at 0, so this is an exact restore).
        ctx.clock.synchronize(data["clock"])
        ctx.emit("on_stage_loaded", stage, t0=t0, data=data)
        return data

    def on_stage_end(self, ctx, stage: str, *, t0, recovered, payload,
                     save) -> None:
        if not save or not self.will_save(ctx):
            return
        doc = dict(payload or {})
        doc["stage_seconds"] = ctx.stage_seconds[stage]
        doc["stage_ops"] = ctx.stage_ops[stage]
        doc["clock"] = ctx.clock.now
        if ctx.comm is not None:
            # Stamp the membership the stage completed under; resume
            # rejects checkpoints from a different epoch/live set.
            view = ctx.comm.membership_view()
            doc["membership"] = {
                "epoch": view.epoch,
                "live": list(view.live),
                "fingerprint": view.fingerprint(),
            }
        self.store.save(stage, doc)


class RecoveryMiddleware(RunMiddleware):
    """Dead-rank adoption (the §2.4 seed discipline makes replays exact).

    The candidate adopter is a pure function of the consistent
    death/survivor sets (``dead % n_survivors``) at the recovery where
    the death first surfaced, and the winning claim is pinned on the
    world blackboard — so later deaths or elastic joins (which change
    the survivor list) never re-assign a share that was already
    replayed.  The actual replay is injected by the backend (it owns
    pipeline execution).
    """

    def __init__(self, comm, replay) -> None:
        self.comm = comm
        self._replay = replay
        #: Dead logical ranks this physical rank replayed: rank -> replay dict.
        self.adopted: dict[int, dict] = {}

    def recover(self, ctx, upto: str) -> None:
        survivors = self.comm.alive_ranks()
        t_r = self.comm.clock.now
        replayed_now: list[int] = []
        if quorum_lost(ctx, len(survivors)):
            # Graceful degradation: below quorum the survivors stop
            # adopting dead peers' work — the run completes with partial
            # results, tagged instead of raising.
            ctx.emit("on_recovery", t0=t_r, replayed=[], upto=upto)
            return
        for d in self.comm.known_dead:
            if ctx.config.bootstopping:
                # Bootstopping gathers replicates every round, so the dead
                # rank's completed trees are already replicated on every
                # survivor; the round loop just continues with a smaller
                # world (degraded, but convergence-driven).
                continue
            # Adoption is a world-shared, versioned claim.  Every rank
            # computes the same version-0 candidate (ranks recovering
            # from the same failed collective agree on the survivor
            # list) and the first claim sticks: recomputing from the
            # *current* survivors at every recovery would re-assign an
            # already-adopted rank when a later death or join changes
            # the list, and the new adopter would replay a share a
            # previous one already submitted.  The one claim that MUST
            # move is a claim pinned to an adopter that itself died —
            # its local replay died with it — so each rank walks the
            # version chain until the pinned owner is alive in its own
            # view; a version only ever advances past a dead owner, so
            # the chain is monotone and every rank converges on the
            # same final owner.
            v = 0
            while True:
                owner = self.comm.publish(
                    f"adopter:{d}:{v}", survivors[(d + v) % len(survivors)]
                )
                if owner not in self.comm.known_dead:
                    break
                v += 1
            if owner != ctx.rank:
                continue
            if d not in self.adopted:
                self.adopted[d] = self._replay(d)
                replayed_now.append(d)
        ctx.add_recovery(self.comm.clock.now - t_r)
        ctx.emit("on_recovery", t0=t_r, replayed=replayed_now, upto=upto)


def quorum_lost(ctx, n_survivors: int) -> bool:
    """True when survivors fell below ``config.quorum`` of the initial
    world — the degradation threshold.  Records the note on first loss.

    ``quorum`` is a fraction of ``n_processes``; 0.0 (the default)
    disables degradation and preserves full replay-recovery semantics.
    """
    quorum = getattr(ctx.config, "quorum", 0.0)
    if quorum <= 0.0:
        return False
    needed = math.ceil(quorum * ctx.config.n_processes)
    if n_survivors >= needed:
        return False
    ctx.add_note(
        f"quorum lost: {n_survivors} survivors < {needed} required "
        f"(quorum={quorum} of {ctx.config.n_processes}); dead ranks' "
        "work not recovered, results are partial"
    )
    return True


def open_store(pal, config, logical_rank: int) -> CheckpointStore | None:
    if config.checkpoint_dir is None:
        return None
    return CheckpointStore(
        Path(config.checkpoint_dir), logical_rank, config_fingerprint(pal, config)
    )


def export_rank_observability(rec, out: dict, collect_trace: bool) -> None:
    """Fold the rank's recorder into its report dict (rank-level gauges,
    serialized metrics, exported trace events)."""
    if rec is not None:
        for stage, s in out["stage_seconds"].items():
            rec.gauge(f"stage.seconds.{stage}", s)
        rec.gauge("rank.finish_time", out["finish_time"])
        rec.gauge("rank.comm_seconds", out["comm_seconds"])
        rec.gauge("ops.pattern_ops", out["pattern_ops"])
        out["metrics"] = rec.metrics.to_dict()
        out["trace_events"] = rec.export_events() if collect_trace else None
        out["trace_dropped"] = rec.dropped
    else:
        out["metrics"] = None
        out["trace_events"] = None
        out["trace_dropped"] = 0

"""The stage boundary's collaborators: checkpoint/resume and rank-death
recovery, plus the rank report's observability export.

A :class:`~repro.runtime.context.RankContext` holds them as plain
attributes and the backends call them directly.  Call order *is*
behaviour (the trace digests pin it): a stage span is recorded before
the checkpoint file is written, a resumed-stage span after the clock
restore, a recovery span after the replay time is charged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.hybrid.checkpoint import (
    STAGE_ORDER,
    CheckpointError,
    CheckpointStore,
    config_fingerprint,
)
from repro.mpi.comm import CommAccount
from repro.mpi.membership import DistributedStateError
from repro.obs.recorder import current as _obs_current


class CheckpointMiddleware:
    """Save and restore finished stages — the one implementation, for
    both granularities of ``store``: a per-stage
    :class:`~repro.hybrid.checkpoint.CheckpointStore` (static: the stage
    document carries the stage's results) or a
    :class:`~repro.sched.checkpoint.SchedJournal` (work-steal: results
    are journalled per task, the stage document is accounting only).
    Both speak ``save(stage, doc)`` / ``load(stage)`` /
    ``available_stages()``.

    ``resume_through`` is the index of the last :data:`STAGE_ORDER` stage
    to restore instead of run — negotiated collectively for live ranks,
    taken from the dead rank's own contiguous prefix for replays.
    """

    def __init__(self, store, resume_through: int = -1) -> None:
        self.store = store
        self.resume_through = resume_through

    def resumed(self, stage: str) -> bool:
        return STAGE_ORDER.index(stage) <= self.resume_through

    def load_stage(self, ctx, stage: str) -> dict:
        """Restore accounting, the comm account and the rank timeline,
        then record the splice point."""
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
        if ctx.comm is not None and "comm" in data:
            # A replay has no communicator; a work-steal rank that filed
            # no document for the stage keeps the account it has.
            ctx.comm.account = CommAccount(**data["comm"])
        t0 = ctx.clock.now
        # Restore the rank's timeline (synchronize only moves forward, and
        # a fresh run starts at 0, so this is an exact restore).
        ctx.clock.synchronize(data["clock"])
        rec = _obs_current()
        if rec is not None:
            # Resumed stages splice into the trace as one span covering the
            # restored window, flagged so timelines read unambiguously.
            rec.span(stage, "stage", t0, ctx.clock.now, args={
                "resumed": True,
                "stage_seconds": ctx.stage_seconds[stage],
                "pattern_ops": ctx.stage_ops[stage],
            })
        return data

    def save_stage(self, ctx, stage: str, payload) -> None:
        """Write ``stage``'s document: the stage's own ``payload(ctx)``
        (if it has one) plus accounting, clock, comm account and
        membership stamp."""
        if self.store is None or not ctx.save_checkpoints:
            return
        doc = payload(ctx) if payload is not None else {}
        doc["stage_seconds"] = ctx.stage_seconds[stage]
        doc["stage_ops"] = ctx.stage_ops[stage]
        doc["clock"] = ctx.clock.now
        if ctx.comm is not None:
            doc["comm"] = asdict(ctx.comm.account)
            # Stamp the membership the stage completed under; resume
            # rejects checkpoints from a different epoch/live set.
            view = ctx.comm.membership_view()
            doc["membership"] = {
                "epoch": view.epoch,
                "live": list(view.live),
                "fingerprint": view.fingerprint(),
            }
        self.store.save(stage, doc)


class RecoveryMiddleware:
    """Dead-rank adoption (the §2.4 seed discipline makes replays exact).

    The candidate adopter is a pure function of the consistent
    death/survivor sets (``dead % n_survivors``) at the recovery where
    the death first surfaced, and the claim is pinned in :attr:`claims`
    — so later deaths (which shrink the survivor list) never re-assign
    a share that was already replayed.  The actual replay is injected by
    the backend (it owns pipeline execution).
    """

    def __init__(self, comm, replay) -> None:
        self.comm = comm
        self._replay = replay
        #: Dead logical ranks this physical rank replayed: rank -> replay dict.
        self.adopted: dict[int, dict] = {}
        #: Pinned adoption claims: (dead rank, version) -> owner.  Every
        #: survivor recovers in lockstep from the same frozen death set,
        #: so every survivor fills the same map.
        self.claims: dict[tuple[int, int], int] = {}

    def recover(self, ctx, upto: str) -> None:
        survivors = self.comm.alive_ranks()
        t_r = self.comm.clock.now
        replayed_now: list[int] = []
        for d in self.comm.known_dead:
            if ctx.config.bootstopping:
                # Bootstopping gathers replicates every round, so the dead
                # rank's completed trees are already replicated on every
                # survivor; the round loop just continues with a smaller
                # world (degraded, but convergence-driven).
                continue
            # Adoption is a versioned claim.  Every rank computes the
            # same version-0 candidate (ranks recovering from the same
            # failed collective agree on the survivor list) and the
            # first claim sticks: recomputing from the *current*
            # survivors at every recovery would re-assign an
            # already-adopted rank when a later death changes the list,
            # and the new adopter would replay a share a previous one
            # already submitted.  The one claim that MUST move is a
            # claim pinned to an adopter that itself died — its local
            # replay died with it — so each rank walks the version chain
            # until the pinned owner is alive in its own view; a version
            # only ever advances past a dead owner, so the chain is
            # monotone and every rank converges on the same final owner.
            v = 0
            while True:
                owner = self.claims.setdefault(
                    (d, v), survivors[(d + v) % len(survivors)]
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
        rec = _obs_current()
        if rec is not None and replayed_now:
            rec.count("recovery.replays", len(replayed_now))
            rec.span("recovery", "recovery", t_r, args={
                "adopted": replayed_now, "upto": upto,
            })


def negotiate_resume(comm, store, resume: bool) -> int:
    """The index of the last stage every rank restores instead of runs.

    Every rank must skip the same collectives, so a resumed run restores
    the *minimum* contiguous stage prefix available across ranks (-1:
    nothing; a task journal offers what any rank noted, so there the
    counts agree).  The exchange is cost-free: a resumed run must stay
    bit-identical to an uninterrupted one.
    """
    if store is None or not resume:
        return -1
    counts = comm.coordinate(
        len(store.available_stages()), op="resume-negotiation"
    )
    return min(c for c in counts if c is not None) - 1


def open_store(pal, config, logical_rank: int) -> CheckpointStore | None:
    if config.checkpoint_dir is None:
        return None
    return CheckpointStore(
        Path(config.checkpoint_dir), logical_rank, config_fingerprint(pal, config)
    )


def open_journal_store(comm, pal, config):
    """``(journal, restored)`` for a work-steal rank: its task journal
    (None without a checkpoint directory) and, on resume, the union of
    every rank's journalled task results."""
    if config.checkpoint_dir is None:
        return None, {}
    from repro.sched.checkpoint import open_journal

    journal, restored = open_journal(
        config.checkpoint_dir, comm.rank, config.n_processes,
        config_fingerprint(pal, config), pal.taxa, resume=config.resume,
    )
    if config.resume:
        # Every rank reads the same directory; verify before any rank
        # writes — divergent views would desynchronise the pools.
        digest = hashlib.sha256(
            json.dumps(sorted(restored)).encode("ascii")
        ).hexdigest()
        digests = comm.coordinate(digest, op="sched-resume")
        if any(d is not None and d != digest for d in digests):
            raise CheckpointError(
                "ranks loaded divergent sched journals; refusing to resume"
            )
    return journal, restored


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

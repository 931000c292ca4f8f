"""Seeded random :class:`~repro.mpi.faults.FaultPlan` generation.

A chaos campaign needs fault schedules that are *adversarial but legal*:
random enough to explore the failure-mode space (kills at every kind of
point, transient glitches, and combinations), yet bounded so every
scenario is recoverable by construction — at least one rank survives and
transient failures stay within the retry budget.

Generation is a pure function of ``(seed, schedule, index)`` via
:class:`random.Random` seeded with a string key, so a campaign can be
re-run — or a single failing scenario replayed — bit-identically from
its report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.mpi.faults import (
    STAGE_POINTS,
    CollectiveGlitch,
    FaultPlan,
    KillSpec,
)

#: Transient ``fail`` glitches are retried with exponential backoff up
#: to :data:`repro.mpi.membership.MAX_RETRIES` (8); staying well below keeps
#: every generated glitch survivable.
MAX_GLITCH_FAILURES = 3


@dataclass(frozen=True)
class ScenarioSpec:
    """One generated chaos scenario: a fault plan plus its oracle class.

    ``equality`` declares what the scenario must reproduce of the
    fault-free baseline.  Every recoverable plan is ``"full"``: best
    lnL, best tree and the bootstrap multiset must be bit-identical to
    the baseline — static recovery replays a dead rank's whole original
    share (never re-partitioning the survivors' streams) and work-steal
    task streams are origin-pure, so kills at any stage, replicate or
    collective index, with glitches on top, must all reproduce the
    fault-free result exactly.
    """

    index: int
    schedule: str
    n_processes: int
    plan: FaultPlan
    equality: str
    deaths: tuple[int, ...]

    def as_doc(self) -> dict:
        """JSON-serialisable record (enough to replay the scenario)."""
        return {
            "index": self.index,
            "schedule": self.schedule,
            "n_processes": self.n_processes,
            "equality": self.equality,
            "deaths": list(self.deaths),
            "kills": [
                {"rank": k.rank, "stage": k.stage, "replicate": k.replicate,
                 "collective": k.collective}
                for k in self.plan.kills
            ],
            "glitches": [
                {"rank": g.rank, "call_index": g.call_index, "kind": g.kind,
                 "failures": g.failures, "delay_seconds": g.delay_seconds}
                for g in self.plan.glitches
            ],
        }


def generate_scenario(
    index: int,
    seed: int,
    schedule: str,
    n_processes: int,
    max_replicate: int = 2,
) -> ScenarioSpec:
    """Generate the ``index``-th scenario of a campaign, deterministically.

    The plan always remains recoverable: the set of ranks doomed to die
    (fail-stop kills plus ``hang`` glitches, which peers convert into
    deaths via their collective deadline) never exceeds
    ``n_processes - 1``.
    """
    rng = random.Random(f"chaos:{seed}:{schedule}:{index}")
    p = n_processes
    doomed: set[int] = set()

    kills: list[KillSpec] = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        victim = rng.randrange(p)
        if victim not in doomed and len(doomed) + 1 > p - 1:
            continue  # keep at least one original survivor
        doomed.add(victim)
        point = rng.choice(("stage", "stage", "replicate", "collective"))
        if point == "stage":
            kills.append(KillSpec(rank=victim, stage=rng.choice(STAGE_POINTS)))
        elif point == "replicate":
            kills.append(KillSpec(rank=victim,
                                  replicate=rng.randrange(max_replicate + 1)))
        else:
            kills.append(KillSpec(rank=victim, collective=rng.randrange(6)))

    glitches: list[CollectiveGlitch] = []
    used: set[tuple[int, int]] = set()
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        rank = rng.randrange(p)
        call_index = rng.randrange(8)
        if (rank, call_index) in used:
            continue
        kind = rng.choice(("fail", "fail", "delay", "hang"))
        if kind == "hang":
            if rank not in doomed and len(doomed) + 1 > p - 1:
                continue  # a hang dooms its rank too
            doomed.add(rank)
            glitches.append(CollectiveGlitch(rank=rank, call_index=call_index,
                                             kind="hang"))
        elif kind == "fail":
            glitches.append(CollectiveGlitch(
                rank=rank, call_index=call_index, kind="fail",
                failures=rng.randint(1, MAX_GLITCH_FAILURES)))
        else:
            glitches.append(CollectiveGlitch(
                rank=rank, call_index=call_index, kind="delay",
                delay_seconds=round(rng.uniform(0.005, 0.2), 6)))
        used.add((rank, call_index))

    plan = FaultPlan(kills=tuple(kills), glitches=tuple(glitches))
    return ScenarioSpec(
        index=index,
        schedule=schedule,
        n_processes=p,
        plan=plan,
        equality="full",
        deaths=tuple(sorted(doomed)),
    )


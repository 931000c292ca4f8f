"""Deterministic fault injection for the simulated MPI runtime.

Long analyses on the paper's clusters lose nodes mid-run, and Zhou et
al. ("Frustrated with MPI+Threads?") catalogue the collective-mismatch
and hang failures a hybrid runtime must detect.  A :class:`FaultPlan`
says ahead of time, deterministically, which rank fails where:

* :class:`KillSpec` — fail-stop death of a rank at a stage boundary, the
  k-th bootstrap replicate or the n-th collective call, raised as
  :class:`RankKilledError` (a ``BaseException``, so a stray ``except
  Exception`` cannot resurrect a dead node);
* :class:`CollectiveGlitch` — a transient problem in one rank's n-th
  collective: extra latency (``delay``), failures retried with
  exponential backoff (``fail``), or a hang its peers must detect
  (``hang``).

The same plan on the same run produces the same failures every time —
the property that makes recovery testable.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Pipeline points accepted by :class:`KillSpec.stage` (the hybrid
#: driver's stage boundaries, in execution order).
STAGE_POINTS = ("setup", "bootstrap", "fast", "slow", "thorough", "finalize")

#: Transient-glitch kinds accepted by :class:`CollectiveGlitch.kind`.
GLITCH_KINDS = ("fail", "delay", "hang")


class RankKilledError(BaseException):
    """A simulated fail-stop rank death (node loss, OOM kill, job eviction).

    Deliberately a ``BaseException``: analysis code that catches
    ``Exception`` must not be able to swallow a node death.
    """


@dataclass(frozen=True)
class KillSpec:
    """Kill ``rank`` (or every rank, when ``rank`` is None) at one point.

    Exactly one of ``stage``, ``replicate``, ``collective`` must be set:

    * ``stage`` — at the named stage boundary, before the stage runs;
    * ``replicate`` — just before the rank's k-th local bootstrap
      replicate (0-based);
    * ``collective`` — on entry to the rank's n-th collective call
      (0-based), i.e. *inside* the communication layer.
    """

    rank: int | None
    stage: str | None = None
    replicate: int | None = None
    collective: int | None = None

    def __post_init__(self) -> None:
        points = [p for p in (self.stage, self.replicate, self.collective)
                  if p is not None]
        if len(points) != 1:
            raise ValueError(
                "KillSpec needs exactly one of stage/replicate/collective, "
                f"got {self!r}"
            )
        if self.stage is not None and self.stage not in STAGE_POINTS:
            raise ValueError(
                f"unknown stage {self.stage!r}; expected one of {STAGE_POINTS}"
            )
        if self.replicate is not None and self.replicate < 0:
            raise ValueError("replicate index must be >= 0")
        if self.collective is not None and self.collective < 0:
            raise ValueError("collective index must be >= 0")

    def targets(self, rank: int) -> bool:
        return self.rank is None or self.rank == rank


@dataclass(frozen=True)
class CollectiveGlitch:
    """A transient problem in ``rank``'s ``call_index``-th collective.

    * ``kind="fail"`` — the call fails ``failures`` times before
      succeeding; the communicator retries with exponential backoff and
      counts the retries.
    * ``kind="delay"`` — the call costs ``delay_seconds`` extra virtual
      time (a congested or degraded link).
    * ``kind="hang"`` — the rank wedges inside the call, its clock
      frozen, until its peers' stall detector declares it dead (or, with
      no peer left to, until the world deadline).
    """

    rank: int
    call_index: int
    kind: str = "fail"
    failures: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GLITCH_KINDS:
            raise ValueError(
                f"unknown glitch kind {self.kind!r}; expected one of {GLITCH_KINDS}"
            )
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.call_index < 0:
            raise ValueError("call_index must be >= 0")
        if self.kind == "fail" and self.failures < 1:
            raise ValueError("failures must be >= 1 for kind='fail'")
        if self.kind == "delay" and self.delay_seconds <= 0:
            raise ValueError("delay_seconds must be > 0 for kind='delay'")


@dataclass(frozen=True)
class FaultPlan:
    """The complete, deterministic fault schedule of one SPMD run.

    Passing any plan (even an empty one) to :func:`repro.mpi.run_spmd`
    switches the world into *resilient* mode: peer deaths are tolerated
    and surfaced as :class:`repro.mpi.membership.RankFailure` instead of
    aborting the run.
    """

    kills: tuple[KillSpec, ...] = ()
    glitches: tuple[CollectiveGlitch, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for g in self.glitches:
            key = (g.rank, g.call_index)
            if key in seen:
                raise ValueError(
                    f"multiple glitches for rank {g.rank} collective "
                    f"{g.call_index}"
                )
            seen.add(key)

    # -- kill points --------------------------------------------------------

    def kill_at_stage(self, rank: int, stage: str) -> None:
        for k in self.kills:
            if k.stage == stage and k.targets(rank):
                raise RankKilledError(
                    f"rank {rank} killed at stage boundary {stage!r}"
                )

    def kill_at_replicate(self, rank: int, replicate: int) -> None:
        for k in self.kills:
            if k.replicate == replicate and k.targets(rank):
                raise RankKilledError(
                    f"rank {rank} killed at bootstrap replicate {replicate}"
                )

    def kill_at_collective(self, rank: int, call_index: int) -> None:
        for k in self.kills:
            if k.collective == call_index and k.targets(rank):
                raise RankKilledError(
                    f"rank {rank} killed inside collective call {call_index}"
                )

    # -- transient glitches --------------------------------------------------

    def glitch_at(self, rank: int, call_index: int) -> CollectiveGlitch | None:
        for g in self.glitches:
            if g.rank == rank and g.call_index == call_index:
                return g
        return None

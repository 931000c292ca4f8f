"""Virtual and wall clocks used by the simulated cluster runtime.

The paper reports wall-clock times measured on four real clusters.  This
reproduction executes the same algorithms on a *simulated* cluster, so each
simulated MPI rank carries a :class:`VirtualClock` that is advanced by the
performance model whenever modelled work is performed.  Collectives in
:mod:`repro.mpi` synchronise virtual clocks exactly the way a barrier
synchronises wall clocks (everyone leaves at the max of the entry times).

:class:`StageTimer` accumulates virtual time per analysis stage (bootstraps,
fast, slow, thorough), which is what Figures 3 and 4 of the paper plot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

class VirtualClock:
    """A monotonically advancing simulated clock (seconds, float).

    Every reading is also written to the clock's *slot*: a private cell
    until :meth:`publish` hands it its rank's slot of the world's shared
    clock window (:class:`repro.mpi.membership.FaultPlane`), where the
    stall detector reads it from other processes.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self._now = float(start)
        self._slot = [self._now]

    @property
    def now(self) -> float:
        return self._now

    def publish(self, slot) -> None:
        """Write this clock's reading to ``slot[0]``, now and at every
        change from now on."""
        self._slot = slot
        slot[0] = self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds and return the new time.

        Modelled work was just done, so a peer waiting on this rank sees
        its slot move: the rank is alive.
        """
        if dt < 0:
            raise ValueError(f"cannot advance a clock by a negative dt ({dt})")
        self._now += dt
        self._slot[0] = self._now
        return self._now

    def synchronize(self, t: float) -> float:
        """Move the clock forward to ``t`` if ``t`` is later (barrier exit)."""
        if t > self._now:
            self._now = t
            self._slot[0] = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6g})"


@dataclass
class StageTimer:
    """Per-stage accumulation of virtual time.

    The comprehensive analysis has four stages; Figures 3–4 of the paper
    decompose total run time into exactly these buckets.
    """

    stages: dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative stage time ({dt}) for {stage!r}")
        self.stages[stage] = self.stages.get(stage, 0.0) + dt

    def get(self, stage: str) -> float:
        return self.stages.get(stage, 0.0)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def merged_max(self, other: "StageTimer") -> "StageTimer":
        """Elementwise max with another timer (slowest-rank stage times).

        The paper notes that, with no barriers between the last three
        stages, the reported per-stage times "are those for the last
        process to finish"; this helper implements that convention.
        """
        keys = set(self.stages) | set(other.stages)
        return StageTimer({k: max(self.get(k), other.get(k)) for k in keys})

    def as_dict(self) -> dict[str, float]:
        return dict(self.stages)


class WallTimer:
    """A tiny context-manager wall timer (used by examples and benches)."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._t0 = None

    def __enter__(self) -> "WallTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0

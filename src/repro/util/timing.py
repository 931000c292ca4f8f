"""The virtual clock used by the simulated cluster runtime.

The paper reports wall-clock times measured on four real clusters.  This
reproduction executes the same algorithms on a *simulated* cluster, so each
simulated MPI rank carries a :class:`VirtualClock` that is advanced by the
performance model whenever modelled work is performed.  Collectives in
:mod:`repro.mpi` synchronise virtual clocks exactly the way a barrier
synchronises wall clocks (everyone leaves at the max of the entry times).
"""

from __future__ import annotations


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

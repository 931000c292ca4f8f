"""The deadline policy of the communication layer.

:class:`TimeoutPolicy` holds every deadline a distributed run observes —
the suspicion deadline of every wait on a peer, the harness deadline of
the whole SPMD region — so :func:`repro.mpi.launcher.run_spmd`,
:class:`repro.hybrid.driver.HybridConfig` and the work-steal backend's
steal board are handed one object instead of threading floats around.
It has two real callers with different values: the default run, and the
chaos campaign's snappy suspicion deadline.

Deadlines are harness seconds measured against the ranks' *virtual*
clocks, read from the world's shared clock window: a peer is suspected
when its clock stops moving, never because its work takes long.  Both
deadlines hold in every world, with or without a fault plan.  The
policy is not part of the checkpoint config fingerprint — how
patiently a run waited does not change what it computed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimeoutPolicy:
    """Every deadline the distributed run observes, in one place.

    ``collective_seconds`` — the suspicion deadline of every wait on a
    peer (a collective's exchange, a blocking receive): a peer whose
    virtual clock has not moved for this many harness seconds is given
    up on — declared dead in a resilient world, an ``SPMDError`` in a
    plain one.

    ``world_seconds`` — harness deadline of any one wait and of the
    whole SPMD region; trips only when the simulation itself wedges.
    """

    collective_seconds: float = 3600.0
    world_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.collective_seconds <= 0:
            raise ValueError(
                f"collective_seconds must be > 0, got {self.collective_seconds}"
            )
        if self.world_seconds <= 0:
            raise ValueError(f"world_seconds must be > 0, got {self.world_seconds}")

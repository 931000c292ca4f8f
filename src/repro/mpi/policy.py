"""Unified retry/timeout/backoff policy for the communication layer.

The two frozen dataclasses here hold every resilience knob — the retry
budget and backoff of a failing collective, the ``timeout=`` keyword of
:func:`repro.mpi.launcher.run_spmd`, the ``spmd_timeout`` field of
:class:`repro.hybrid.driver.HybridConfig`, the steal-board deadline in
the work-steal backend — so each layer is handed one policy object
instead of threading individual floats around.

Both policies are *deterministic*: backoff is charged to the virtual
clock (never slept), and timeouts are expressed in the same simulated
seconds the collectives use for suspicion deadlines.  Neither
participates in the checkpoint config fingerprint — how patiently a
run retried does not change what it computed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The :class:`RetryPolicy` defaults.
DEFAULT_MAX_RETRIES = 8
DEFAULT_BACKOFF = 1e-3


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently an operation is retried.

    ``backoff_seconds(attempt)`` is the virtual-clock charge before
    retry number ``attempt`` (0-based): ``base_backoff * multiplier**attempt``.
    The charge is deterministic — it advances the rank's virtual clock,
    it never sleeps a wall-clock thread.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    base_backoff: float = DEFAULT_BACKOFF
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff < 0:
            raise ValueError(f"base_backoff must be >= 0, got {self.base_backoff}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoff_seconds(self, attempt: int) -> float:
        """Virtual seconds to charge before the given 0-based retry."""
        return self.base_backoff * (self.multiplier ** attempt)


@dataclass(frozen=True)
class TimeoutPolicy:
    """Every deadline the distributed run observes, in one place.

    ``collective_seconds`` — resilient-collective suspicion deadline: a
    rank whose partners have not posted within this many harness
    seconds of its own arrival declares them dead.  This is the
    heartbeat of the membership layer — arrival at a collective is the
    heartbeat, missing the deadline is the suspicion.

    ``world_seconds`` — harness deadline for the whole SPMD region;
    trips only when the simulation itself wedges.

    ``reelection_charge_seconds`` — virtual-clock cost per *node
    leader* among the newly dead, paid by every survivor of a
    topology-aware run (the leader hand-off: the successor must learn
    the in-flight leader state).  Leaders are recomputed from the alive
    set, so re-election itself needs no protocol — this charge is its
    modelled cost.  Defaults to 0.0; flat runs never pay it.
    """

    collective_seconds: float = 600.0
    world_seconds: float = 600.0
    reelection_charge_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.collective_seconds <= 0:
            raise ValueError(
                f"collective_seconds must be > 0, got {self.collective_seconds}"
            )
        if self.world_seconds <= 0:
            raise ValueError(f"world_seconds must be > 0, got {self.world_seconds}")
        if self.reelection_charge_seconds < 0:
            raise ValueError(
                "reelection_charge_seconds must be >= 0, "
                f"got {self.reelection_charge_seconds}"
            )

    @classmethod
    def from_timeout(cls, timeout: float) -> "TimeoutPolicy":
        """Back-compat helper: one legacy ``timeout`` float governs both."""
        return cls(collective_seconds=timeout, world_seconds=timeout)

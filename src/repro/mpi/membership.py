"""The fault/epoch plane: rank statuses, the one stall detector, death
agreement, epochs, and the faults injected at a collective's entry
(kills, glitches, retry backoff).  :mod:`repro.mpi.comm`, the data
plane, never reads a fault plan; it calls in here instead.

The world is fixed: its ranks all start together and only ever leave.
Each rank holds a versioned :class:`MembershipView` — the epoch, the
live set and the ranks that died.  A death is found by the stall
detector (:meth:`FaultPlane.wait_for`: a peer whose virtual clock stops
moving is suspected), by the rank itself (a planned kill) or by the
launcher (a rank process that ended without reporting), and agreed at
collective completion, one epoch per batch.  Deaths surface only at
deterministic collective points, so every rank walks the same sequence
of views for a given fault plan; a rank acts only on its own view
(``SimComm.membership_view()``), never on what it has not yet observed.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.mpi.faults import FaultPlan, RankKilledError
from repro.mpi.policy import TimeoutPolicy
from repro.obs.recorder import current as _obs_current


class SPMDError(RuntimeError):
    """Raised when ranks violate the SPMD collective-ordering contract."""


class RankFailure(SPMDError):
    """One or more peers died (fail-stop) during a communication call.

    Raised only in resilient mode, on every survivor, at the same
    collective generation, with the same ``dead`` tuple — so survivors
    can run recovery in lockstep.
    """

    def __init__(self, dead, op: str = "collective") -> None:
        self.dead = tuple(dead)
        self.op = op
        super().__init__(
            f"rank(s) {list(self.dead)} died during {op!r}; "
            "surviving ranks must recover their work"
        )


class DistributedStateError(SPMDError):
    """Replicated or sharded state diverged across ranks (a bug, not a
    recoverable failure) — e.g. a bipartition-table shard that missed
    trees its peers saw."""


class RetryExhaustedError(SPMDError):
    """A transiently-failing collective exceeded the retry budget."""


class AllRanksDeadError(SPMDError):
    """Every rank of a resilient world died; there is nobody to recover."""


#: Rank lifecycle states tracked by :class:`FaultPlane`.
RUNNING, EXITED, FAILED, DEAD = "running", "exited", "failed", "dead"

#: Retry budget of a transiently failing collective.  Retry ``attempt``
#: (0-based) is preceded by ``BASE_BACKOFF * 2**attempt`` virtual seconds
#: of backoff.  Neither is a knob: no run ever set another value.
MAX_RETRIES = 8
BASE_BACKOFF = 1e-3

#: How often a rank waiting for peers re-reads their clocks (harness
#: seconds): a frozen peer is given up on at most one poll after its
#: deadline.
POLL_SECONDS = 0.25


@dataclass(frozen=True)
class MembershipView:
    """One rank's versioned picture of who is in the world.

    ``epoch`` increments by one for every observed membership change
    (a batch of deaths noticed at one collective).  ``live`` is the
    full membership after the change; ``dead`` the ranks that left it.
    """

    epoch: int
    live: tuple[int, ...]
    dead: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if tuple(sorted(self.live)) != self.live:
            raise ValueError(f"live set must be sorted, got {self.live!r}")

    @property
    def size(self) -> int:
        return len(self.live)

    def fingerprint(self) -> str:
        """Stable digest of (epoch, live) — what a checkpoint stamps.

        Deltas are history, not state: two ranks that reached the same
        epoch and live set agree on membership regardless of how the
        deltas were batched, so only (epoch, live) participates.
        """
        doc = {"epoch": self.epoch, "live": list(self.live)}
        blob = json.dumps(doc, sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]

    def as_doc(self) -> dict:
        return {
            "epoch": self.epoch,
            "live": list(self.live),
            "dead": list(self.dead),
            "fingerprint": self.fingerprint(),
        }


class FaultPlane:
    """The world half of the plane: rank statuses, the deadline, the
    clock window, and the stall detector that reads it.

    ``cond`` guards the statuses and is shared with the data plane, so a
    status change wakes every wait on a peer.  ``window`` is the world's
    one piece of shared memory: an anonymous shared ``mmap`` of one
    double per rank, made before the ranks are forked, which each rank's
    :class:`~repro.util.timing.VirtualClock` writes at every change (NaN:
    the rank has not started).
    """

    def __init__(self, size: int, policy: TimeoutPolicy = TimeoutPolicy(),
                 fault_plan: FaultPlan | None = None) -> None:
        self.size = size
        self.policy = policy
        self.fault_plan = fault_plan
        #: Resilient worlds tolerate fail-stop deaths instead of aborting.
        self.resilient = fault_plan is not None
        self.cond = threading.Condition()
        self.status: dict[int, str] = dict.fromkeys(range(size), RUNNING)
        #: The world deadline (``time.monotonic``, the same clock in every
        #: process of the world).
        self.deadline = time.monotonic() + policy.world_seconds
        self.window = memoryview(mmap.mmap(-1, 8 * size)).cast("d")
        for r in range(size):
            self.window[r] = math.nan

    def running(self) -> list[int]:
        """Ranks still executing (caller must hold ``cond``)."""
        return [r for r in range(self.size) if self.status[r] == RUNNING]

    def mark(self, rank: int, status: str) -> None:
        with self.cond:
            if self.status[rank] == RUNNING:
                self.status[rank] = status
            self.cond.notify_all()

    def status_of(self, rank: int) -> str:
        with self.cond:
            return self.status[rank]

    def wait_for(self, rank: int, pending: Callable[[], list[int]],
                 what: str) -> list[int]:
        """The one stall detector, for every wait on a peer: block until
        no rank in ``pending()`` (re-read at every wake-up) is running, or
        some have left — those are returned.  The caller holds ``cond``;
        in a multi-rank world it is the waiting rank's hub thread in the
        launcher, reading the peers' clocks from the shared window.  A
        peer whose virtual clock stood still for ``collective_seconds``
        is given up on — declared dead in a resilient world, an
        :class:`SPMDError` in a plain one; a peer that computes is
        waited for, up to ``world_seconds``.
        """
        policy = self.policy
        start = time.monotonic()
        #: Per peer: (clock reading, harness time it was last seen moving).
        seen: dict[int, tuple[float | None, float]] = {}
        while True:
            peers = sorted(pending())
            left = [r for r in peers if self.status[r] in (EXITED, FAILED)]
            running = [r for r in peers if self.status[r] == RUNNING]
            if left or not running:
                return left
            now = time.monotonic()
            stalled = []
            for r in running:
                beat = self.window[r]
                if math.isnan(beat):
                    beat = None  # not started
                last = seen.get(r)
                if last is None or last[0] != beat:
                    # A clock that only now appears (the rank started) has
                    # not moved: it stands still since the wait began.
                    seen[r] = (beat, start if last is None or last[0] is None else now)
                elif now - last[1] >= policy.collective_seconds:
                    stalled.append(r)
            if stalled:
                if not self.resilient:
                    raise SPMDError(
                        f"rank {rank} gave up {what}: the clock(s) of rank(s) "
                        f"{stalled} stood still for "
                        f"{policy.collective_seconds:.1f}s"
                    )
                for r in stalled:
                    self.status[r] = DEAD
                self.cond.notify_all()
                continue
            if now - start >= policy.world_seconds:
                raise SPMDError(
                    f"rank {rank} exceeded the world deadline "
                    f"({policy.world_seconds:.1f}s) {what}, waiting for "
                    f"live rank(s) {running}"
                )
            self.cond.wait(POLL_SECONDS)


class RankMembership:
    """The rank half of the plane, inherited by
    :class:`~repro.mpi.comm.SimComm`: what this rank has observed of the
    membership, and the hooks the data plane calls around a collective —
    :meth:`_enter_collective` before its exchange, :meth:`_agree` after.

    The host sets ``rank``, ``clock`` and ``account`` before calling
    ``__init__``.
    """

    def __init__(self, faults: FaultPlane) -> None:
        #: The world's fault plane (public: runtime code polls statuses).
        self.faults = faults
        self._collective_calls = 0
        #: Ranks this communicator believes alive; shrinks only at exchange
        #: completion, so all survivors agree on it after each collective.
        self.known_alive: set[int] = set(range(faults.size))
        #: Membership epoch: bumped once per observed batch of deaths.
        self.epoch = 0

    def alive_ranks(self) -> list[int]:
        """Ranks this communicator believes alive (sorted)."""
        return sorted(self.known_alive)

    @property
    def known_dead(self) -> list[int]:
        """Ranks this communicator has observed dying (sorted)."""
        return sorted(set(range(self.faults.size)) - self.known_alive)

    def membership_view(self) -> MembershipView:
        """This rank's current versioned membership picture."""
        return MembershipView(
            epoch=self.epoch,
            live=tuple(sorted(self.known_alive)),
            dead=tuple(self.known_dead),
        )

    def _note_deaths(self, dead: list[int], op: str) -> None:
        """Chronicle deaths already removed from :attr:`known_alive`:
        epoch bump and the rank-failure obs report."""
        self.epoch += 1
        rec = _obs_current()
        if rec is not None:
            rec.count("membership.epochs")
            rec.instant("membership-epoch", "fault", args={
                "epoch": self.epoch, "live": sorted(self.known_alive),
                "dead": sorted(dead),
            })
            rec.count("comm.rank_failures")
            rec.instant(
                "rank-failure", "fault",
                args={"op": op, "dead": dead, "known_dead": self.known_dead},
            )

    # -- the data plane's hooks ----------------------------------------------

    def _enter_collective(self, op: str) -> None:
        """Evaluate the fault plan at the entry of one collective call."""
        index = self._collective_calls
        self._collective_calls += 1
        plan = self.faults.fault_plan
        if plan is None:
            return
        plan.kill_at_collective(self.rank, index)
        glitch = plan.glitch_at(self.rank, index)
        if glitch is None:
            return
        if glitch.kind == "delay":
            self.clock.advance(glitch.delay_seconds)
        elif glitch.kind == "hang":
            # The rank wedges inside the collective, its clock frozen:
            # peers give up on it at their suspicion deadline and the
            # launcher kills it.  With nobody to do so the hang ends at
            # the world deadline, as a death.
            time.sleep(max(0.0, self.faults.deadline - time.monotonic()))
            raise RankKilledError(
                f"rank {self.rank} hung in collective call {index}"
            )
        elif glitch.kind == "fail":
            rec = _obs_current()
            for attempt in range(min(glitch.failures, MAX_RETRIES)):
                backoff = BASE_BACKOFF * 2.0 ** attempt
                self.account.n_retries += 1
                self.account.backoff_seconds += backoff
                self.clock.advance(backoff)
                if rec is not None:
                    rec.count("comm.retries")
                    rec.count("comm.backoff_seconds", backoff)
                    rec.instant(
                        "retry", "comm",
                        args={"op": op, "call": index, "attempt": attempt + 1},
                    )
            if glitch.failures > MAX_RETRIES:
                if rec is not None:
                    rec.instant(
                        "retry-exhausted", "comm", args={"op": op, "call": index}
                    )
                raise RetryExhaustedError(
                    f"rank {self.rank}: collective {op!r} (call {index}) "
                    f"still failing after {MAX_RETRIES} retries"
                )

    def _agree(self, outcome: frozenset[int], op: str) -> None:
        """Apply the participant set frozen for one completed exchange.

        ``outcome`` is the same on every survivor, so each one removes
        the same newly dead ranks here and raises the same
        :class:`RankFailure`."""
        newly_dead = sorted(self.known_alive - outcome)
        if not newly_dead:
            return
        self.known_alive.difference_update(newly_dead)
        self._note_deaths(newly_dead, op)
        raise RankFailure(newly_dead, op=op)

    def _lost(self, peer: int, op: str) -> SPMDError:
        """The error of a receive whose wait ended without ``peer``'s
        message: a :class:`RankFailure` (the death noted) when the peer
        died, an :class:`SPMDError` when it left without sending."""
        status = self.faults.status_of(peer)
        if status == DEAD:
            self.known_alive.discard(peer)
            self._note_deaths([peer], op=op)
            return RankFailure((peer,), op=op)
        return SPMDError(
            f"rank {self.rank} cannot receive from rank {peer}: "
            f"it {status} without sending ({op})"
        )

    def _dead_root(self, root: int) -> SPMDError:
        """The error of a bcast whose root died in an *earlier*
        collective, so this exchange completed over the survivors without
        raising.  Resilient survivors must still see a
        :class:`RankFailure` (with the frozen death set) — a generic
        SPMDError here would leave them unable to run recovery in
        lockstep."""
        if self.faults.resilient:
            return RankFailure(self.known_dead, op="bcast")
        return SPMDError(f"bcast root {root} is dead")

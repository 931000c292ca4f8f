"""The simulated communicator: the data plane.

Messages travel through mailboxes; collectives are built from an
exchange board of generation-tagged slots.  Both live in one
:class:`_World` in the launcher's process, guarded by one condition
variable; rank processes reach it through the launcher's pipe proxy
(:mod:`repro.mpi.launcher`), and a rank's wait runs on its hub thread
there.  All ranks must call collectives in the same order (the SPMD
contract — violations raise :class:`~repro.mpi.membership.SPMDError`
via generation mismatches or broken exchanges).

Virtual time: each rank owns a clock; a collective advances every
participant to ``max(entry clocks) + price``.  Every price comes from
one flat model, :class:`CommTiming`: a log tree over the world's ranks,
every hop at one price.  Its constants are small because the paper
finds communication negligible.  The data plane (exchange, reduction
order, death sets, epochs) never looks at the prices, so results do not
depend on them.

Failures and membership live in the fault/epoch plane
(:mod:`repro.mpi.membership`), whose rank half :class:`SimComm`
inherits; this module never reads a fault plan.  It calls the plane at
fixed points: the collective-entry faults before an exchange, the one
stall detector while waiting for any peer, the agreed death set after
(with a fault plan attached, a peer that dies or stalls is declared
dead, the exchange completes over the survivors, and each survivor
raises a :class:`~repro.mpi.membership.RankFailure` with the same death
set).
"""

from __future__ import annotations

import pickle
from collections import defaultdict, deque
from dataclasses import dataclass, field
from math import ceil, log2

from repro.mpi.membership import (
    DEAD,
    AllRanksDeadError,
    FaultPlane,
    RankMembership,
    SPMDError,
)
from repro.obs.recorder import current as _obs_current
from repro.util.timing import VirtualClock


class _DeadRankSentinel:
    """Marker for a rank absent from a collective (died before joining).

    Distinct from every payload — in particular from a rank legitimately
    contributing ``None`` — so reductions can exclude dead peers without
    corrupting real values.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<dead rank>"


#: The singleton dead-rank sentinel used by reducing collectives.
DEAD_RANK = _DeadRankSentinel()


def _tree_rounds(n: int) -> int:
    """Rounds of a binomial tree over ``n`` participants."""
    return ceil(log2(n)) if n > 1 else 0


#: Wire size of one steal request or grant message.
STEAL_BYTES = 256


@dataclass(frozen=True)
class CommTiming:
    """Virtual-time costs of communication operations (seconds).

    Every hop costs the same, wherever the two ranks live.  Costs scale
    with a **log tree**, not linearly — a collective over ``p`` ranks is
    modelled as a binomial tree of ``ceil(log2(p))`` rounds, each round
    shipping the full payload once, never as ``p`` sequential messages.

    Hand-trace (defaults: latency 5e-6 s, byte_time 1e-9 s/B,
    barrier_base 1e-5 s)::

        message_seconds(1000)       = 5e-6 + 1000*1e-9     = 6.0e-6
        collective_seconds(8, 1000) = ceil(log2(8)) * 6e-6 = 1.8e-5
        collective_seconds(9, 1000) = ceil(log2(9)) * 6e-6 = 2.4e-5
        barrier_seconds(8)          = 1e-5 * 3             = 3.0e-5
        barrier_seconds(1)          = 0.0   (nobody to sync with)

    Doubling ``p`` therefore adds *one round* (+6e-6 above), where a
    linear model would double the cost — the distinction the scaling
    curves past 32 ranks hinge on.  These numbers are pinned
    byte-for-byte by the regression tests.
    """

    latency: float = 5e-6  # per point-to-point message
    byte_time: float = 1e-9  # per payload byte (~1 GB/s interconnect)
    barrier_base: float = 1e-5  # per barrier, times ceil(log2(p))

    def message_seconds(self, n_bytes: int) -> float:
        return self.latency + self.byte_time * n_bytes

    def barrier_seconds(self, size: int) -> float:
        """``ceil(log2(size))`` rounds of ``barrier_base``."""
        return _tree_rounds(size) * self.barrier_base

    def collective_seconds(self, size: int, n_bytes: int) -> float:
        """A data collective over ``size`` ranks: one full-payload
        message per tree round; free for a single rank."""
        return _tree_rounds(size) * self.message_seconds(n_bytes)

    def steal_seconds(self) -> float:
        """Round-trip of one steal: a request/grant message pair."""
        return 2 * self.message_seconds(STEAL_BYTES)


def _payload_bytes(obj) -> int:
    """Approximate wire size of a Python object (pickle length)."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unpicklable objects still need *some* cost


@dataclass(frozen=True)
class CommEvent:
    """One recorded communication operation (for the per-rank trace).

    ``seconds`` is the modelled price plus any straggler wait.
    """

    op: str
    rank: int
    seconds: float  # virtual time spent in the operation
    payload_bytes: int
    started_at: float


@dataclass
class CommAccount:
    """One rank's cumulative communication totals: everything its report
    says about communication.  A stage quantity like the clock — every
    stage document carries it and a restored stage puts it back, so a
    resumed run's totals continue where the uninterrupted run's were."""

    seconds: float = 0.0  # incl. barrier wait, i.e. time attributable to sync
    n_retries: int = 0  # transient-collective retries performed
    backoff_seconds: float = 0.0  # virtual seconds spent in retry backoff


@dataclass
class _Slot:
    """One collective generation on the exchange board."""

    op: str
    #: Participant set, frozen by the first rank to arrive: the ranks
    #: running then.
    expected: frozenset[int]
    #: rank -> (contribution, entry clock).
    board: dict[int, tuple] = field(default_factory=dict)
    #: Participant view frozen by the first rank to complete — the
    #: agreement that keeps death sets consistent.
    outcome: frozenset[int] | None = None
    #: Ranks that have read the slot; it is dropped once every survivor has.
    left: set[int] = field(default_factory=set)


class _World:
    """Shared data-plane state of one SPMD run.

    Everything here is guarded by the fault plane's ``cond``, so a rank
    status change wakes every wait on a peer.  A communicator touches it
    only through :meth:`exchange`, :meth:`post` and :meth:`take`.
    """

    def __init__(self, faults: FaultPlane, timing: CommTiming) -> None:
        self.size = faults.size
        self.timing = timing
        self.faults = faults
        self.cond = faults.cond
        #: One record per collective generation in flight.
        self.slots: dict[int, _Slot] = {}
        #: (src, dst, tag) -> messages sent and not yet received.
        self.mailboxes: defaultdict[tuple[int, int, int], deque] = defaultdict(deque)

    # The three bodies that touch shared state, served by the launcher.

    def exchange(self, rank: int, gen: int, op: str, value, now: float):
        """Deposit ``rank``'s ``(value, now)`` in collective generation
        ``gen`` and wait for the other participants.  Returns the frozen
        participant view and every participant's ``(value, entry
        clock)``."""
        faults = self.faults
        with self.cond:
            slot = self.slots.get(gen)
            if slot is None:
                # The first arriver freezes who participates in this
                # generation: every rank not dead.  One that already
                # failed or exited is then a defector, as it is when it
                # leaves during the wait, whichever arrives first.
                slot = self.slots[gen] = _Slot(op, frozenset(
                    r for r in range(self.size) if faults.status[r] != DEAD
                ) | {rank})
            if slot.op != op:
                raise SPMDError(
                    f"collective mismatch at generation {gen}: rank "
                    f"{rank} called {op!r} but another rank called "
                    f"{slot.op!r}"
                )
            if rank in slot.board:
                raise SPMDError(
                    f"rank {rank} re-entered collective generation {gen}"
                )
            slot.board[rank] = (value, now)
            self.cond.notify_all()

            def missing():
                return [r for r in slot.expected if r not in slot.board]

            defectors = faults.wait_for(
                rank, missing, f"in collective {op!r} (generation {gen})"
            )
            if defectors:
                raise SPMDError(
                    f"collective {op!r} (generation {gen}) broken: "
                    f"rank(s) {defectors} left the computation without "
                    "joining it (mismatched collective ordering?)"
                )
            # The first rank to complete freezes the participant view so
            # every survivor observes the *same* death set for this call.
            if slot.outcome is None:
                slot.outcome = slot.expected & frozenset(faults.running())
            outcome, result = slot.outcome, dict(slot.board)
            slot.left.add(rank)
            if outcome <= slot.left:
                self.slots.pop(gen, None)
        return outcome, result

    def post(self, src: int, dst: int, tag: int, obj, t: float) -> None:
        """Queue a message sent at virtual time ``t``."""
        with self.cond:
            self.mailboxes[src, dst, tag].append((obj, t))
            self.cond.notify_all()

    def take(self, src: int, dst: int, tag: int):
        """Wait for the oldest ``(obj, sent_at)`` from ``src``; ``None``
        when ``src`` left without sending."""
        with self.cond:
            box = self.mailboxes[src, dst, tag]
            self.faults.wait_for(
                dst, lambda: [] if box else [src],
                f"receiving from rank {src} (tag {tag})",
            )
            return box.popleft() if box else None


class SimComm(RankMembership):
    """Per-rank communicator handle (mpi4py-flavoured lowercase API)."""

    def __init__(self, world: _World, rank: int, clock: VirtualClock | None = None) -> None:
        if not (0 <= rank < world.size):
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self.rank = rank
        self.size = world.size
        self.clock = clock if clock is not None else VirtualClock()
        self.clock.publish(world.faults.window[rank:rank + 1])
        self._generation = 0
        #: Running totals of this rank's communication (the report's view).
        self.account = CommAccount()
        #: Per-rank record of every communication operation.
        self.trace: list[CommEvent] = []
        super().__init__(world.faults)

    def _record(self, op: str, started_at: float, payload: int) -> None:
        """Trace one finished operation and add it to the account."""
        seconds = self.clock.now - started_at
        self.trace.append(
            CommEvent(
                op=op,
                rank=self.rank,
                seconds=seconds,
                payload_bytes=payload,
                started_at=started_at,
            )
        )
        self.account.seconds += seconds
        rec = _obs_current()
        if rec is not None:
            # The CommEvent trace generalised into the span model: one
            # span per operation on the rank's main track, plus running
            # call/byte/seconds counters and a payload histogram.
            rec.span(op, "comm", started_at, args={"bytes": payload})
            rec.count(f"comm.calls.{op}")
            rec.count(f"comm.bytes.{op}", payload)
            rec.count(f"comm.seconds.{op}", seconds)
            rec.observe("comm.payload_bytes", payload)

    # -- point-to-point -----------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        if dest == self.rank:
            raise ValueError("send to self would deadlock a blocking recv")
        t0 = self.clock.now
        payload = _payload_bytes(obj)
        self.clock.advance(self._world.timing.message_seconds(payload))
        self._world.post(self.rank, dest, tag, obj, self.clock.now)
        self._record("send", t0, payload)

    def recv(self, source: int, tag: int = 0):
        if not (0 <= source < self.size):
            raise ValueError(f"invalid source rank {source}")
        message = self._world.take(source, self.rank, tag)
        if message is None:
            raise self._lost(source, f"recv(tag={tag})")
        obj, sent_at = message
        # A blocking receive cannot complete before the message exists.
        t0 = self.clock.now
        self.clock.synchronize(sent_at)
        self._record("recv", t0, _payload_bytes(obj))
        return obj

    # -- collectives --------------------------------------------------------

    def _exchange(self, value, op: str = "collective") -> dict[int, tuple]:
        """All-to-all exchange underpinning every collective.

        ``op`` names the collective; ranks disagreeing on which collective
        they are in (a classic SPMD bug) are detected and rejected.
        Returns every participant's ``(value, entry clock)``; peers that
        died instead of contributing are absent, and raise
        :class:`~repro.mpi.membership.RankFailure` here once (the agreed
        death set, :meth:`_agree`).  Runtime-coordination steps call this
        directly: no fault hooks, no price.
        """
        gen = self._generation
        self._generation += 1
        outcome, result = self._world.exchange(
            self.rank, gen, op, value, self.clock.now
        )
        self._agree(outcome, op)
        return result

    def coordinate(self, obj, op: str = "coordination") -> list:
        """Cost-free allgather for runtime coordination (e.g. negotiating
        a common checkpoint-resume point): no virtual-clock advance, no
        trace entry, no fault hooks — so resumed runs stay bit-identical
        to uninterrupted ones."""
        board = self._exchange(obj, op=op)
        return [board[r][0] if r in board else None for r in range(self.size)]

    def _collective(self, op: str, contribution, carried=None, absent=None) -> list:
        """The one modelled collective: exchange, price, synchronise, record.

        Every rank deposits ``contribution``; ranks that died before
        contributing read as ``absent``.  ``carried(values)`` picks the
        values that travel (the largest pickle is the payload priced)
        and raises if the collective cannot complete; by default every
        slot travels.  All participants leave at ``max(entry clocks) +
        price``, the log tree over the world size — deaths do not shrink
        it.  Returns what ``carried`` picked.
        """
        t0 = self.clock.now
        self._enter_collective(op)
        board = self._exchange(contribution, op=op)
        values = [board[r][0] if r in board else absent for r in range(self.size)]
        if carried is not None:
            values = carried(values)
        payload = max((_payload_bytes(v) for v in values), default=0)
        timing = self._world.timing
        price = (
            timing.barrier_seconds(self.size) if op == "barrier"
            else timing.collective_seconds(self.size, payload)
        )
        self.clock.synchronize(max(t for _, t in board.values()))
        self.clock.advance(price)
        self._record(op, t0, payload)
        return values

    def barrier(self) -> None:
        """Synchronise all ranks (the paper's post-bootstrap barrier)."""
        self._collective("barrier", None, carried=lambda values: ())

    def bcast(self, obj, root: int = 0):
        """Broadcast from ``root`` (the paper's final best-solution bcast)."""
        if not (0 <= root < self.size):
            raise ValueError(f"invalid root rank {root}")

        def root_value(values):
            if values[root] is DEAD_RANK:
                raise self._dead_root(root)
            return [values[root]]

        return self._collective(
            "bcast", obj if self.rank == root else None, root_value,
            absent=DEAD_RANK,
        )[0]

    def gather(self, obj, root: int = 0):
        if not (0 <= root < self.size):
            raise ValueError(f"invalid root rank {root}")
        values = self._collective("gather", obj)
        return values if self.rank == root else None

    def allgather(self, obj) -> list:
        """Gather everyone's value on every rank.  Ranks that died before
        contributing appear as ``None`` entries (resilient mode only —
        otherwise a death raises before any entry can be missing)."""
        return self._collective("allgather", obj)

    def allreduce(self, obj, op=None):
        """Reduce with ``op`` (a 2-ary callable; default: sum).

        Ranks absent from the exchange (dead peers in resilient mode) are
        excluded via the :data:`DEAD_RANK` sentinel — **not** by value —
        so a rank legitimately contributing ``None`` participates in the
        reduction.  If no contribution survives at all, the reduction is
        undefined and :class:`~repro.mpi.membership.AllRanksDeadError` is
        raised.
        """
        def contributed(values):
            alive = [v for v in values if v is not DEAD_RANK]
            if not alive:
                raise AllRanksDeadError(
                    f"allreduce at rank {self.rank}: no rank contributed a "
                    "value (every participant is dead); nothing to reduce"
                )
            return alive

        alive = self._collective("allreduce", obj, contributed, absent=DEAD_RANK)
        acc = alive[0]
        for v in alive[1:]:
            acc = acc + v if op is None else op(acc, v)
        return acc

"""The simulated communicator.

Ranks execute as cooperating Python threads; messages travel through
in-memory mailboxes; collectives are built from a shared generation-tagged
scratch board guarded by a condition variable.  All ranks must call
collectives in the same order (the standard SPMD contract — violations
raise :class:`SPMDError` via generation mismatches or broken exchanges).

Virtual time: each rank owns a clock; a collective advances every
participant to ``max(entry clocks) + price``.  Every price is asked of
the world's cost model through the one protocol of
:mod:`repro.mpi.topology` and comes back carrying its own intra/inter
split, which is recorded as is.  The default flat
:class:`~repro.mpi.topology.CommTiming` has realistic-but-small cluster
constants — the paper stresses that "a fast and expensive interconnect
is not required" because communication is negligible — and no split;
attach a :class:`~repro.mpi.topology.HierarchicalCommTiming` and
collectives are priced as two-phase operations (node-local at
shared-memory cost, one leader per node over the network) and sends per
hop.  The data plane (exchange, reduction order, death sets, epochs)
never looks at the model, keeping results bit-identical across models.

Fault tolerance: when a :class:`~repro.mpi.faults.FaultPlan` is attached
the world runs in *resilient* mode.  Every collective carries a per-call
deadline; a peer that dies (fail-stop) or misses the deadline is declared
dead, the exchange completes over the survivors, and each survivor
receives a :class:`RankFailure` carrying a *consistent* death set (the
first rank to complete an exchange freezes the participant view for that
generation, so every survivor observes the same deaths at the same
collective).  Transiently failing collectives are retried with
exponential backoff charged to the virtual clock; retry and timeout
knobs live in one :class:`~repro.mpi.policy.RetryPolicy` /
:class:`~repro.mpi.policy.TimeoutPolicy` pair.

Membership: each communicator tracks a versioned
:class:`~repro.mpi.membership.MembershipView` — the epoch increments on
every observed membership delta.  Deaths shrink the view at collectives
(above); elastic *joins* grow it at declared epoch boundaries via
:meth:`SimComm.advance_epoch`, which activates dormant joiner ranks with
a deterministic entry state (generation, clock, live set) shared by all
participants.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from dataclasses import dataclass

from repro.mpi.faults import FaultPlan, RankKilledError
from repro.mpi.membership import MembershipLedger, MembershipView
from repro.mpi.policy import RetryPolicy, TimeoutPolicy
from repro.mpi.topology import CommCostModel, CommPhases, CommTiming  # noqa: F401
from repro.obs.recorder import current as _obs_current
from repro.util.runtoken import RunToken, idle
from repro.util.timing import VirtualClock


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


#: Rank lifecycle states tracked by :class:`_World`.  ``DORMANT`` ranks
#: are allocated joiners that have not entered the world yet: invisible
#: to collectives, suspicion and schedules until activated.
RUNNING, EXITED, FAILED, DEAD = "running", "exited", "failed", "dead"
DORMANT = "dormant"


def _payload_bytes(obj) -> int:
    """Approximate wire size of a Python object (pickle length)."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unpicklable objects still need *some* cost


@dataclass(frozen=True)
class CommEvent:
    """One recorded communication operation (for the per-rank trace).

    ``intra_seconds``/``inter_seconds`` are the tier split the cost
    model put on the *modelled transfer cost* — 0.0 under the flat
    model, which has no tiers.  ``seconds`` additionally includes
    straggler wait, so ``intra + inter <= seconds``.
    """

    op: str
    rank: int
    seconds: float  # virtual time spent in the operation
    payload_bytes: int
    started_at: float
    intra_seconds: float = 0.0  # modelled intra-node share
    inter_seconds: float = 0.0  # modelled inter-node share


@dataclass
class CommAccount:
    """One rank's cumulative communication totals: everything its report
    says about communication.  A stage quantity like the clock — every
    stage document carries it and a restored stage puts it back, so a
    resumed run's totals continue where the uninterrupted run's were."""

    seconds: float = 0.0  # incl. barrier wait, i.e. time attributable to sync
    intra_seconds: float = 0.0  # modelled intra-node share (0.0 when flat)
    inter_seconds: float = 0.0  # modelled inter-node share (0.0 when flat)
    n_retries: int = 0  # transient-collective retries performed
    backoff_seconds: float = 0.0  # virtual seconds spent in retry backoff


class _World:
    """Shared state of one SPMD run."""

    def __init__(
        self,
        size: int,
        timing: CommCostModel,
        retry_policy: RetryPolicy,
        timeout_policy: TimeoutPolicy,
        fault_plan: FaultPlan | None = None,
        dormant: tuple[int, ...] = (),
    ) -> None:
        self.size = size
        self.timing = timing
        self.retry_policy = retry_policy
        self.timeout_policy = timeout_policy
        self.fault_plan = fault_plan
        #: Resilient worlds tolerate fail-stop deaths instead of aborting.
        self.resilient = fault_plan is not None
        self.mailboxes: dict[tuple[int, int, int], queue.Queue] = {}
        self.mailbox_lock = threading.Lock()
        #: Everything below is guarded by ``cond``.
        self.cond = threading.Condition()
        self.scratch: dict[int, dict[int, tuple]] = {}
        self.scratch_ops: dict[int, str] = {}
        #: Expected participant set per generation, frozen by the first
        #: rank to arrive.  Membership changes mid-generation (a joiner
        #: activated by a faster rank) must not alter who an in-flight
        #: collective waits for.
        self.expected: dict[int, frozenset[int]] = {}
        #: Participant view frozen by the first rank to complete each
        #: generation — the agreement that keeps death sets consistent.
        self.outcomes: dict[int, frozenset[int]] = {}
        self.leavers: dict[int, set[int]] = {}
        self.status: dict[int, str] = {
            r: (DORMANT if r in dormant else RUNNING) for r in range(size)
        }
        #: Ranks alive at t=0 (dormant joiners excluded).
        self.initial_live: tuple[int, ...] = tuple(
            r for r in range(size) if r not in dormant
        )
        #: Deterministic activation records per join point, installed by
        #: the first live rank to process the epoch boundary.
        self.join_info: dict[str, dict] = {}
        #: Cross-rank blackboard for values every rank computes
        #: identically (e.g. the negotiated resume prefix) that late
        #: joiners need at activation.  Guarded by ``cond``.
        self.shared: dict[str, object] = {}
        #: World-level chronicle of membership transitions (reporting).
        self.ledger = MembershipLedger(self.initial_live)
        #: Set at teardown to release ranks wedged by an injected hang.
        self.release = threading.Event()
        #: Per-rank virtual clocks, registered at communicator creation.
        #: The failure detector's heartbeat: a rank that is computing
        #: advances its clock continuously, a wedged/killed rank's clock
        #: is frozen — so suspicion reads clock *progress*, never wall
        #: time alone (which would suspect slow-but-healthy peers).
        self.clocks: dict[int, VirtualClock] = {}
        #: One runnable rank thread at a time (:mod:`repro.util.runtoken`).
        #: A lone rank has nobody to contend with and takes no token.
        self.token: RunToken | None = RunToken() if size > 1 else None

    @property
    def timeout(self) -> float:
        """Per-collective suspicion deadline (harness seconds)."""
        return self.timeout_policy.collective_seconds

    @property
    def max_retries(self) -> int:
        return self.retry_policy.max_retries

    def install_join(
        self,
        point: str,
        ranks: tuple[int, ...],
        generation: int,
        entry: float,
        epoch: int,
        live: tuple[int, ...],
        dead: tuple[int, ...],
    ) -> dict:
        """Activate the joiners of one epoch boundary (idempotent).

        Every live participant of the boundary exchange calls this with
        identical values (generation and entry time come from the frozen
        exchange board; epoch and live set from the deterministic delta
        history), so ``setdefault`` makes the first caller the installer
        and the rest witnesses.
        """
        with self.cond:
            info = self.join_info.setdefault(point, {
                "point": point, "ranks": tuple(ranks),
                "generation": generation, "entry": entry, "epoch": epoch,
                "live": tuple(live), "dead": tuple(dead),
            })
            for r in info["ranks"]:
                if self.status[r] == DORMANT:
                    self.status[r] = RUNNING
            self.cond.notify_all()
            return info

    def await_activation(self, rank: int, point: str) -> dict | None:
        """Block a dormant joiner until its epoch boundary (or teardown).

        Returns the activation record, or ``None`` when the world tore
        down before the boundary was reached (the joiner then exits
        without ever having been a member).
        """
        with idle(), self.cond:
            while self.status[rank] == DORMANT and not self.release.is_set():
                self.cond.wait(0.05)
            if self.status[rank] != RUNNING:
                return None
            return self.join_info.get(point)

    def mailbox(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self.mailbox_lock:
            q = self.mailboxes.get(key)
            if q is None:
                q = self.mailboxes[key] = queue.Queue()
            return q

    def running(self) -> list[int]:
        """Ranks still executing (caller must hold ``cond``)."""
        return [r for r in range(self.size) if self.status[r] == RUNNING]

    def any_running(self) -> bool:
        with self.cond:
            return any(s == RUNNING for s in self.status.values())

    def mark(self, rank: int, status: str) -> None:
        with self.cond:
            if self.status[rank] == RUNNING:
                self.status[rank] = status
            self.cond.notify_all()

    def status_of(self, rank: int) -> str:
        with self.cond:
            return self.status[rank]


class SimComm:
    """Per-rank communicator handle (mpi4py-flavoured lowercase API)."""

    def __init__(self, world: _World, rank: int, clock: VirtualClock | None = None) -> None:
        if not (0 <= rank < world.size):
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self.rank = rank
        self.size = world.size
        self.clock = clock if clock is not None else VirtualClock()
        world.clocks[rank] = self.clock
        self._generation = 0
        self._collective_calls = 0
        #: Ranks this communicator believes alive; shrinks only at exchange
        #: completion, so all survivors agree on it after each collective.
        self.known_alive: set[int] = set(world.initial_live)
        #: Every rank this communicator has ever seen as a member
        #: (initial live set plus observed joiners) — the base set that
        #: :attr:`known_dead` is computed against.
        self._ever_alive: set[int] = set(world.initial_live)
        #: Membership epoch: bumped once per observed delta batch
        #: (deaths noticed at one collective, or one join boundary).
        self.epoch = 0
        #: Joiner ranks this communicator has observed entering.
        self._joined_seen: set[int] = set()
        #: Epoch-boundary points already processed (each join point is
        #: handled exactly once, even across collective retries).
        self._joined_points: set[str] = set()
        #: Entry-time maximum of the most recent completed exchange —
        #: the deterministic activation instant handed to joiners.
        self._last_entry_max = 0.0
        #: True for a rank that entered the world via an elastic join;
        #: the SPMD body uses this to start from its join point instead
        #: of replaying the collectives that happened before it existed.
        self.is_joiner = False
        #: Running totals of this rank's communication (the report's view).
        self.account = CommAccount()
        #: Per-rank record of every communication operation.
        self.trace: list[CommEvent] = []

    def _record(self, op: str, started_at: float, payload: int,
                phases: CommPhases = CommPhases()) -> None:
        """Trace one finished operation and add it to the account;
        ``phases`` is its modelled price, whose tier split is recorded
        as the model gave it."""
        seconds = self.clock.now - started_at
        self.trace.append(
            CommEvent(
                op=op,
                rank=self.rank,
                seconds=seconds,
                payload_bytes=payload,
                started_at=started_at,
                intra_seconds=phases.intra,
                inter_seconds=phases.inter,
            )
        )
        self.account.seconds += seconds
        self.account.intra_seconds += phases.intra
        self.account.inter_seconds += phases.inter
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
            # Counters stay sparse (they are not a schema): a flat run,
            # whose prices carry no split, emits neither.
            if phases.intra:
                rec.count("comm.seconds.intra", phases.intra)
            if phases.inter:
                rec.count("comm.seconds.inter", phases.inter)

    def node_leaders(self) -> dict[int, int]:
        """Current node → leader map (smallest alive rank per node).

        Empty for flat or trivial-topology worlds.  Recomputed from
        the membership view on every call — this *is* the deterministic
        re-election rule: a dead leader is replaced by the next alive
        rank of its node the instant the death set is agreed."""
        return self.membership_view().node_leaders(self._world.timing.topology)

    def alive_ranks(self) -> list[int]:
        """Ranks this communicator believes alive (sorted)."""
        return sorted(self.known_alive)

    @property
    def known_dead(self) -> list[int]:
        """Ranks this communicator has observed dying (sorted).

        Computed against the set of ranks that were ever members —
        dormant joiners that have not entered yet are neither alive nor
        dead."""
        return sorted(self._ever_alive - self.known_alive)

    def membership_view(self) -> MembershipView:
        """This rank's current versioned membership picture."""
        return MembershipView(
            epoch=self.epoch,
            live=tuple(sorted(self.known_alive)),
            joined=tuple(sorted(self._joined_seen)),
            dead=tuple(self.known_dead),
        )

    def _bump_epoch(self, *, joined=(), dead=(), point: str | None = None) -> None:
        """Advance the membership epoch by one observed delta batch."""
        self.epoch += 1
        rec = _obs_current()
        if rec is not None:
            args = {"epoch": self.epoch, "live": sorted(self.known_alive)}
            if joined:
                args["joined"] = sorted(joined)
            if dead:
                args["dead"] = sorted(dead)
            if point is not None:
                args["point"] = point
            rec.count("membership.epochs")
            rec.instant("membership-epoch", "fault", args=args)

    def _note_deaths(self, dead: list[int], op: str) -> None:
        """Chronicle deaths already removed from :attr:`known_alive`:
        epoch bump, world ledger, and the rank-failure obs report."""
        self._bump_epoch(dead=dead)
        self._world.ledger.record_deaths(tuple(dead), self.clock.now)
        rec = _obs_current()
        if rec is not None:
            rec.count("comm.rank_failures")
            rec.instant(
                "rank-failure", "fault",
                args={"op": op, "dead": dead, "known_dead": self.known_dead},
            )

    # -- point-to-point -----------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        if dest == self.rank:
            raise ValueError("send to self would deadlock a blocking recv")
        t0 = self.clock.now
        payload = _payload_bytes(obj)
        phases = self._world.timing.hop_phases(payload, self.rank, dest)
        self.clock.advance(phases.total)
        self._world.mailbox(self.rank, dest, tag).put((obj, self.clock.now))
        self._record("send", t0, payload, phases)

    def recv(self, source: int, tag: int = 0):
        if not (0 <= source < self.size):
            raise ValueError(f"invalid source rank {source}")
        world = self._world
        mailbox = world.mailbox(source, self.rank, tag)
        deadline = time.monotonic() + world.timeout
        with idle():
            while True:
                try:
                    obj, sent_at = mailbox.get(timeout=0.05)
                    break
                except queue.Empty:
                    status = world.status_of(source)
                    if status == DEAD:
                        self.known_alive.discard(source)
                        self._note_deaths([source], op=f"recv(tag={tag})")
                        raise RankFailure((source,), op=f"recv(tag={tag})") from None
                    if status in (EXITED, FAILED):
                        raise SPMDError(
                            f"rank {self.rank} cannot receive from rank {source}: "
                            f"it {status} without sending (tag {tag})"
                        ) from None
                    if time.monotonic() >= deadline:
                        raise SPMDError(
                            f"rank {self.rank} timed out receiving from rank "
                            f"{source} (tag {tag})"
                        ) from None
        # A blocking receive cannot complete before the message exists.
        t0 = self.clock.now
        self.clock.synchronize(sent_at)
        self._record("recv", t0, _payload_bytes(obj))
        return obj

    # -- fault hooks --------------------------------------------------------

    def _apply_collective_faults(self, op: str) -> None:
        """Evaluate the fault plan at the entry of one collective call."""
        world = self._world
        index = self._collective_calls
        self._collective_calls += 1
        plan = world.fault_plan
        if plan is None:
            return
        plan.kill_at_collective(self.rank, index)
        glitch = plan.glitch_at(self.rank, index)
        if glitch is None:
            return
        if glitch.kind == "delay":
            self.clock.advance(glitch.delay_seconds)
        elif glitch.kind == "hang":
            # The rank wedges inside the collective; peers declare it dead
            # via their deadlines, and the launcher releases the thread at
            # teardown so it can die cleanly.
            with idle():
                world.release.wait()
            raise RankKilledError(
                f"rank {self.rank} hung in collective call {index}"
            )
        elif glitch.kind == "fail":
            policy = world.retry_policy
            attempts = min(glitch.failures, policy.max_retries)
            rec = _obs_current()
            for attempt in range(attempts):
                backoff = policy.backoff_seconds(attempt)
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
            if glitch.failures > world.max_retries:
                if rec is not None:
                    rec.instant(
                        "retry-exhausted", "comm", args={"op": op, "call": index}
                    )
                raise RetryExhaustedError(
                    f"rank {self.rank}: collective {op!r} (call {index}) "
                    f"still failing after {world.max_retries} retries"
                )

    # -- collectives --------------------------------------------------------

    def _exchange(self, value, op: str = "collective", internal: bool = False) -> dict[int, tuple]:
        """All-to-all scratch exchange underpinning every collective.

        ``op`` names the collective; ranks disagreeing on which collective
        they are in (a classic SPMD bug) are detected and rejected.  With
        ``internal=True`` the exchange is a runtime-coordination step:
        fault hooks are skipped (but death detection still applies).
        """
        world = self._world
        if not internal:
            self._apply_collective_faults(op)
        gen = self._generation
        self._generation += 1
        deadline = time.monotonic() + world.timeout
        hard_deadline = time.monotonic() + world.timeout_policy.world_seconds
        #: Heartbeat observations per straggler: (virtual clock, wall
        #: time it was last seen advancing).
        progress: dict[int, tuple[float | None, float]] = {}
        with idle(), world.cond:
            expected = world.scratch_ops.setdefault(gen, op)
            if expected != op:
                raise SPMDError(
                    f"collective mismatch at generation {gen}: rank "
                    f"{self.rank} called {op!r} but another rank called "
                    f"{expected!r}"
                )
            board = world.scratch.setdefault(gen, {})
            # The first arriver freezes who participates in this
            # generation: the ranks running *now*.  A joiner activated
            # while the collective is in flight enters at the next
            # generation — nobody must wait for it here.
            expected = world.expected.setdefault(
                gen, frozenset(world.running()) | {self.rank}
            )
            if self.rank in board:
                raise SPMDError(
                    f"rank {self.rank} re-entered collective generation {gen}"
                )
            board[self.rank] = (value, self.clock.now)
            world.cond.notify_all()
            while True:
                waiting_for = [
                    r for r in sorted(expected)
                    if r not in board and world.status[r] == RUNNING
                ]
                defectors = [
                    r for r in sorted(expected)
                    if r not in board and world.status[r] in (EXITED, FAILED)
                ]
                if defectors:
                    raise SPMDError(
                        f"collective {op!r} (generation {gen}) broken: "
                        f"rank(s) {defectors} left the computation without "
                        "joining it (mismatched collective ordering?)"
                    )
                if not waiting_for:
                    break
                if world.resilient:
                    # Fail-stop suspicion on frozen virtual clocks: a
                    # straggler is declared dead only once its clock has
                    # made no progress for the per-call deadline.  A
                    # peer that is legitimately computing advances its
                    # clock continuously (every likelihood op charges
                    # it); a wedged, killed or diverged rank's clock is
                    # frozen — so slow-but-healthy ranks are never
                    # falsely suspected, no matter how long their stage
                    # takes in harness time.
                    now = time.monotonic()
                    stalled = []
                    for r in waiting_for:
                        rc = world.clocks.get(r)
                        beat = rc.now if rc is not None else None
                        prev = progress.get(r)
                        if prev is None or prev[0] != beat:
                            progress[r] = (beat, now)
                        elif now - prev[1] >= world.timeout:
                            stalled.append(r)
                    if stalled:
                        for r in stalled:
                            world.status[r] = DEAD
                        world.cond.notify_all()
                        continue
                    if now >= hard_deadline:
                        raise SPMDError(
                            f"collective {op!r} (generation {gen}) broken: "
                            f"rank {self.rank} exceeded the world deadline "
                            f"({world.timeout_policy.world_seconds:.1f}s) "
                            f"waiting for live rank(s) {waiting_for}"
                        )
                    world.cond.wait(0.25)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise SPMDError(
                        f"collective {op!r} (generation {gen}) broken: rank "
                        f"{self.rank} timed out after {world.timeout:.1f}s "
                        f"waiting for rank(s) {waiting_for}"
                    )
                world.cond.wait(min(remaining, 0.25))
            # The first rank to complete freezes the participant view so
            # every survivor observes the *same* death set for this call.
            outcome = world.outcomes.get(gen)
            if outcome is None:
                outcome = world.outcomes[gen] = frozenset(
                    r for r in expected if world.status[r] == RUNNING
                )
            result = dict(board)
            left = world.leavers.setdefault(gen, set())
            left.add(self.rank)
            if outcome <= left:
                for store in (world.scratch, world.scratch_ops,
                              world.expected, world.outcomes, world.leavers):
                    store.pop(gen, None)
        # Deterministic instant of this exchange (max of the frozen entry
        # clocks) — the activation time handed to joiners at a boundary.
        self._last_entry_max = max(t for _, t in result.values())
        newly_dead = sorted(self.known_alive - outcome)
        if newly_dead:
            # Leader set *before* the deaths are applied: any of these
            # leaders in the death set triggers deterministic
            # re-election (the map is a pure function of the alive set).
            old_leaders = self.node_leaders()
            self.known_alive.difference_update(newly_dead)
            self._note_deaths(newly_dead, op)
            rec = _obs_current()
            dead_set = set(newly_dead)
            dead_leaders = sorted(
                r for r in old_leaders.values() if r in dead_set
            )
            if dead_leaders:
                # Leader hand-off: the successor (next alive rank of the
                # node) inherits mid-collective; each survivor charges
                # the modelled hand-off cost once per lost leader.
                self.clock.advance(
                    world.timeout_policy.reelection_charge_seconds
                    * len(dead_leaders)
                )
                if rec is not None:
                    rec.count("comm.leader_reelections", len(dead_leaders))
                    rec.instant(
                        "leader-reelection", "fault",
                        args={
                            "op": op,
                            "dead_leaders": dead_leaders,
                            "leaders": {
                                str(n): r
                                for n, r in sorted(self.node_leaders().items())
                            },
                        },
                    )
            raise RankFailure(newly_dead, op=op)
        return result

    def _plain_allgather(self, obj, op: str = "coordination") -> list:
        """Cost-free allgather for runtime coordination (e.g. negotiating
        a common checkpoint-resume point): no virtual-clock advance, no
        trace entry, no fault hooks — so resumed runs stay bit-identical
        to uninterrupted ones."""
        board = self._exchange(obj, op=op, internal=True)
        return [board[r][0] if r in board else None for r in range(self.size)]

    def publish(self, key: str, value):
        """Deposit a coordination value on the world blackboard.

        First writer wins (every rank must compute the value
        identically); late joiners read it with :meth:`lookup` after
        activation.  Cost-free — publication is runtime coordination,
        not modelled communication."""
        with self._world.cond:
            return self._world.shared.setdefault(key, value)

    def lookup(self, key: str, default=None):
        """Read a value previously :meth:`publish`-ed by any rank."""
        with self._world.cond:
            return self._world.shared.get(key, default)

    # -- membership epochs ---------------------------------------------------

    def advance_epoch(self, point: str) -> None:
        """Process the membership epoch boundary at pipeline ``point``.

        A no-op unless the fault plan declares joiners at this point.
        Otherwise the live ranks run one internal coordination exchange
        (so the activation instant — generation, entry clock, live set —
        is identical everywhere) and activate the dormant joiners.  Each
        point is processed at most once per rank, so backend retry loops
        can safely call this again after handling a :class:`RankFailure`.

        Peer deaths noticed *at* the boundary exchange still raise
        :class:`RankFailure`, but only after the join has been applied —
        the joiner is then part of the surviving membership that runs
        recovery.
        """
        world = self._world
        plan = world.fault_plan
        if plan is None:
            return
        joining = plan.joins_at(point)
        if not joining or point in self._joined_points:
            return
        self._joined_points.add(point)
        try:
            self._exchange(None, op=f"epoch:{point}", internal=True)
        except RankFailure:
            self._activate(point, joining)
            raise
        self._activate(point, joining)

    def _activate(self, point: str, joining: tuple[int, ...]) -> None:
        """Apply one join delta locally and install the activation record."""
        world = self._world
        self.known_alive.update(joining)
        self._ever_alive.update(joining)
        self._joined_seen.update(joining)
        self._bump_epoch(joined=joining, point=point)
        entry = self._last_entry_max
        world.install_join(
            point, joining,
            generation=self._generation,
            entry=entry,
            epoch=self.epoch,
            live=tuple(sorted(self.known_alive)),
            dead=tuple(self.known_dead),
        )
        world.ledger.record_join(point, joining, self.epoch, entry)

    def _adopt_join_state(self, info: dict) -> None:
        """Initialise a freshly-activated joiner from its activation record.

        The record was computed identically by every live participant of
        the boundary exchange, so the joiner enters with a deterministic
        generation, clock, epoch and membership view.
        """
        self.is_joiner = True
        self._generation = info["generation"]
        self.clock.synchronize(info["entry"])
        self._last_entry_max = info["entry"]
        self.known_alive = set(info["live"])
        self._ever_alive = set(info["live"]) | set(info["dead"])
        self.epoch = info["epoch"]
        self._joined_seen = set(info["ranks"])
        self._joined_points.add(info["point"])

    def _collective(self, op: str, contribution, carried=None, absent=None) -> list:
        """The one modelled collective: exchange, price, synchronise, record.

        Every rank deposits ``contribution``; ranks that died before
        contributing read as ``absent``.  ``carried(values)`` picks the
        values that travel (the largest pickle is the payload the cost
        model prices) and raises if the collective cannot complete;
        by default every slot travels.  All participants leave at
        ``max(entry clocks) + price``.  Returns what ``carried`` picked.
        """
        t0 = self.clock.now
        board = self._exchange(contribution, op=op)
        values = [board[r][0] if r in board else absent for r in range(self.size)]
        if carried is not None:
            values = carried(values)
        payload = max((_payload_bytes(v) for v in values), default=0)
        phases = self._world.timing.collective_phases(
            op, self.known_alive, payload, world_size=self.size
        )
        self.clock.synchronize(max(t for _, t in board.values()))
        self.clock.advance(phases.total)
        self._record(op, t0, payload, phases)
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
                # The root died in an *earlier* collective, so this exchange
                # completes over the survivors without raising.  Survivors
                # must still see a RankFailure (with the frozen death set) —
                # a generic SPMDError here would leave them unable to run
                # recovery in lockstep.
                if self._world.resilient:
                    raise RankFailure(self.known_dead, op="bcast")
                raise SPMDError(f"bcast root {root} is dead")
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
        undefined and :class:`AllRanksDeadError` is raised.
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

"""SPMD launcher: run one function across p simulated MPI ranks.

The launcher is where the two planes of a world meet: it builds the
fault/epoch plane (:class:`~repro.mpi.membership.FaultPlane`: statuses,
the fault plan, the deadlines) and hands it to the data plane
(:class:`~repro.mpi.comm._World`: exchange slots, mailboxes, run
token), then marks each rank's status as its body ends.

``comm_timing`` is any :class:`~repro.mpi.topology.CommCostModel` — the
flat :class:`~repro.mpi.topology.CommTiming` (the default) or a
:class:`~repro.mpi.topology.HierarchicalCommTiming`.  The launcher only
hands it to the world; the communicator asks it for every price through
the one protocol, so neither knows which model it holds.

A world runs its ranks one of two ways.  The *thread* world runs them as
daemon threads of the caller's process that take turns under the run
token.  The *process* world forks one child per rank, and each child
runs the same rank body.  What the ranks share stays in the launcher as
the very objects the thread world uses: the world's exchange slots and
mailboxes, the fault plane's statuses and the caller's ``shared``
object.  A child reaches them through one pipe proxy
(:class:`_Remote`), which one hub thread per rank serves in the
launcher (:func:`_serve`).  Method calls travel; data attributes are
read from the copy the child was forked with.

**Fork rule: the launcher forks every rank before it starts any hub
thread**, and it joins the hubs of a world before it returns, so no
hub can hold one of a world's locks while a child is forked.  Python's
warning about ``fork()`` in a multi-threaded process names any world
that breaks the rule.  (One exception to the join: when a child dies
without reporting, a hub that is waiting inside the ``shared`` object
for it stays until that object's own deadline.)
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import pickle
import signal
import sys
import threading
import time
import traceback
from dataclasses import replace
from typing import Callable, Sequence

from repro.mpi.comm import SimComm, _World
from repro.mpi.faults import FaultPlan, RankKilledError
from repro.mpi.membership import (
    DEAD,
    EXITED,
    FAILED,
    AllRanksDeadError,
    FaultPlane,
    SPMDError,
)
from repro.mpi.policy import TimeoutPolicy
from repro.mpi.topology import CommCostModel, CommTiming
from repro.obs.recorder import set_current
from repro.util.runtoken import holding, idle
from repro.util.timing import VirtualClock
from repro.util.validation import check_choice


def _raise_rank_errors(errors: list) -> None:
    """Raise the primary rank error with every other one attached.

    The primary is the first non-SPMD error by rank (an SPMDError is
    usually collateral damage of whatever went wrong first), falling back
    to the first SPMDError.  All other errors ride along as ``__notes__``
    so multi-rank failures stay diagnosable.
    """
    ranked = [(r, e) for r, e in enumerate(errors) if e is not None]
    if not ranked:
        return
    primary = next(
        ((r, e) for r, e in ranked if not isinstance(e, SPMDError)), ranked[0]
    )
    rank, exc = primary
    others = [(r, e) for r, e in ranked if r != rank]
    if others:
        notes = [
            f"[simmpi] also failed: rank {r}: {type(e).__name__}: {e}"
            for r, e in others
        ]
        exc.__notes__ = [*getattr(exc, "__notes__", []), *notes]
    raise exc


def _run_threads(faults: FaultPlane, threads: list) -> list[str]:
    """Start the rank threads and wait for them; names of the stuck ones."""
    for t in threads:
        t.start()
    # One *shared* deadline for the whole world (a per-thread timeout would
    # make the worst-case wait n_ranks x timeout).  Ranks already declared
    # dead are not waited for: their threads are released below.
    deadline = time.monotonic() + faults.policy.world_seconds
    for rank, t in enumerate(threads):
        while t.is_alive():
            if faults.status_of(rank) == DEAD:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                break
            t.join(min(remaining, 0.1))
    # Wake any rank wedged inside an injected hang so its thread can exit.
    faults.release.set()
    stuck = []
    for rank, t in enumerate(threads):
        if t.is_alive():
            t.join(0.5)
        if t.is_alive() and faults.status_of(rank) != DEAD:
            stuck.append(t.name)
    return stuck


#: Set on a thread (or forked process) that runs a rank body: a world
#: launched from there runs its ranks as threads.
_in_rank = threading.local()


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a
    :class:`RuntimeError` carrying its repr and formatted traceback."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"{exc!r} (not picklable)\n" + "".join(traceback.format_exception(exc))
        )


class _RemoteTraceback(Exception):
    """The formatted traceback of an error raised in a rank process,
    attached as its ``__cause__`` in the launcher."""

    def __str__(self) -> str:
        return self.args[0]


class _RefPickler(pickle.Pickler):
    """Pickles remote objects and their methods by reference, so a rank
    process can pass e.g. ``comm.faults.status_of`` to a shared object
    and the launcher calls its own fault plane."""

    def persistent_id(self, obj):
        if isinstance(obj, _Remote):
            return (obj._target, None)
        if isinstance(obj, _RemoteMethod):
            return (obj.target, obj.method)
        return None


class _RefUnpickler(pickle.Unpickler):
    def __init__(self, blob: bytes, targets: dict) -> None:
        super().__init__(io.BytesIO(blob))
        self.targets = targets

    def persistent_load(self, pid):
        target, method = pid
        obj = self.targets[target]
        return obj if method is None else getattr(obj, method)


def _ref_dumps(obj) -> bytes:
    buf = io.BytesIO()
    _RefPickler(buf, pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


class _RemoteMethod:
    """One method of a launcher-side object, called from a rank process."""

    __slots__ = ("conn", "target", "method")

    def __init__(self, conn, target: str, method: str) -> None:
        self.conn, self.target, self.method = conn, target, method

    def __call__(self, *args, **kwargs):
        self.conn.send_bytes(_ref_dumps(("call", self.target, self.method, args, kwargs)))
        ok, value = pickle.loads(self.conn.recv_bytes())
        if not ok:
            raise value
        return value


class _Remote:
    """A launcher-side object seen from a rank process: calling a method
    runs it on the launcher's object (the hub thread waits where a rank
    thread would), reading a data attribute reads the copy forked with
    the rank.  ``pinned`` attributes replace the copy's."""

    def __init__(self, conn, target: str, local, **pinned) -> None:
        self._conn, self._target, self._local = conn, target, local
        self.__dict__.update(pinned)

    def __getattr__(self, name: str):
        value = getattr(self._local, name)
        if callable(value):
            return _RemoteMethod(self._conn, self._target, name)
        return value


def _serve(rank: int, conn, targets: dict, outcomes: list) -> None:
    """A hub thread: run rank ``rank``'s calls on the launcher's objects
    until the rank reports its outcome or its pipe closes."""
    try:
        while True:
            try:
                kind, *msg = _RefUnpickler(conn.recv_bytes(), targets).load()
            except (EOFError, OSError):
                return  # died without reporting: outcomes[rank] stays None
            if kind == "done":
                outcomes[rank] = msg
                return
            target, method, args, kwargs = msg
            try:
                reply = (True, getattr(targets[target], method)(*args, **kwargs))
                blob = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # noqa: BLE001 - raised in the rank
                blob = pickle.dumps((False, _portable(exc)), pickle.HIGHEST_PROTOCOL)
            try:
                conn.send_bytes(blob)
            except OSError:
                return
    finally:
        conn.close()


def _rank_process(rank: int, conn, world: _World, shared, clock, body) -> None:
    """The child side of rank ``rank``: run the body on a communicator
    whose world, fault plane and ``shared`` object are remote, then
    report ``(result, error, death, tb, clock)`` to the hub."""
    set_current(None)  # a rank starts without the caller's recorder
    faults = _Remote(conn, "faults", world.faults)
    comm = SimComm(_Remote(conn, "world", world, faults=faults), rank, clock)
    result, error, death = body(
        comm, None if shared is None else _Remote(conn, "shared", shared)
    )
    tb = None
    if error is not None:
        portable = _portable(error)
        if portable is error:
            tb = "".join(traceback.format_exception(error))
        error = portable
    try:
        blob = _ref_dumps(("done", result, error, death, tb, comm.clock.now))
    except Exception as exc:  # noqa: BLE001 - the result cannot travel
        error = RuntimeError(f"rank {rank}'s result cannot be pickled: {exc!r}")
        blob = _ref_dumps(("done", None, error, None, None, comm.clock.now))
    conn.send_bytes(blob)


#: ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with(launcher: int) -> None:
    """Have the kernel kill this rank process if the launcher dies
    (Linux).  Elsewhere an orphaned rank ends at its next call to the
    launcher, whose end of the pipe is then closed."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != launcher:  # it died before the request took
        os._exit(1)


def _fork_rank(rank: int, pipes: list, *args) -> int:
    launcher = os.getpid()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _die_with(launcher)
        _in_rank.active = True
        for i, (launcher_end, rank_end) in enumerate(pipes):
            launcher_end.close()
            if i != rank:
                rank_end.close()
        _rank_process(rank, pipes[rank][1], *args)
        code = 0
    except BaseException:  # noqa: BLE001 - the hub reports the death
        traceback.print_exc()
    finally:
        _flush_stdio()
        os._exit(code)


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # closed or broken
            pass


def _reap(pid: int, kill: bool) -> int:
    """Wait for child ``pid`` (killed first if ``kill``); its exit code."""
    if kill:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _run_processes(world: _World, shared, clocks, body) -> tuple[list, list, list]:
    """Run every rank of ``world`` in a forked child.  Returns the
    per-rank outcomes ``(result, error, death, tb, clock)`` (``None``:
    no report), the ranks whose child ended without reporting, and every
    child's exit code."""
    # Imported here: it loads the socket stack, which thread worlds and
    # one-rank runs never need.
    from multiprocessing import Pipe

    faults, n = world.faults, world.size
    targets = {"world": world, "faults": faults, "shared": shared}
    outcomes: list = [None] * n
    pipes = [Pipe() for _ in range(n)]
    pids: list[int] = []
    hubs: list[threading.Thread] = []
    _flush_stdio()  # else the children inherit and repeat the buffers
    try:
        for rank in range(n):
            clock = clocks[rank] if clocks is not None else None
            pids.append(_fork_rank(rank, pipes, world, shared, clock, body))
        for _, rank_end in pipes:
            rank_end.close()
        hubs = [
            threading.Thread(
                target=_serve, args=(r, pipes[r][0], targets, outcomes),
                name=f"simmpi-hub-{r}", daemon=True,
            )
            for r in range(n)
        ]
        for hub in hubs:
            hub.start()
        # One shared deadline; a child that died without reporting ends
        # the wait at once (its peers cannot complete without it).
        deadline = time.monotonic() + faults.policy.world_seconds
        while True:
            alive = [h for h in hubs if h.is_alive()]
            died = [r for r, h in enumerate(hubs)
                    if outcomes[r] is None and not h.is_alive()]
            remaining = deadline - time.monotonic()
            if not alive or died or remaining <= 0.0:
                break
            alive[0].join(min(remaining, 0.1))
    finally:
        codes = [_reap(pid, kill=outcomes[r] is None) for r, pid in enumerate(pids)]
        # Wake the hubs still waiting on a peer for a rank that is gone.
        for r in range(n):
            faults.mark(r, FAILED)
        for hub in hubs:
            hub.join(0.5)
        for launcher_end, rank_end in pipes:
            launcher_end.close()
            rank_end.close()
    return outcomes, died, codes


def _rank_body(fn, shared) -> Callable:
    """The rank body both worlds run: ``(result, error, death)`` of
    ``fn`` on one communicator, the rank's status marked as it ends."""

    def body(comm: SimComm, shared_view) -> tuple:
        rank, faults = comm.rank, comm.faults
        try:
            result = fn(comm) if shared is None else fn(comm, shared_view)
        except RankKilledError as exc:
            faults.mark(rank, DEAD)
            return None, None, exc
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            faults.mark(rank, FAILED)
            return None, exc, None
        faults.mark(rank, EXITED)
        return result, None, None

    return body


def _exit_text(code: int) -> str:
    if code < 0:
        return f"killed by {signal.Signals(-code).name}"
    return f"exit code {code}"


def run_spmd(
    fn: Callable[..., object],
    n_ranks: int,
    comm_timing: CommCostModel | None = None,
    clocks: Sequence[VirtualClock] | None = None,
    fault_plan: FaultPlan | None = None,
    timeout_policy: TimeoutPolicy = TimeoutPolicy(),
    *,
    world: str = "thread",
    shared=None,
) -> list:
    """Execute ``fn(comm)`` on every rank of a simulated world.

    ``world="thread"`` runs the ranks as daemon threads of this process,
    and in a world of more than one rank exactly one of them is runnable
    at a time: each takes the world's run token
    (:mod:`repro.util.runtoken`) before its body runs, gives it up
    wherever it waits for other ranks and after every ~20 ms slice of
    work, and releases it however the body ends.  Ranks under one
    interpreter lock cannot compute in parallel anyway; left
    free-running they spend more than half the wall time handing that
    lock to each other.  A one-rank world takes no token; a caller that
    is itself a rank thread of another world gives that world's token up
    while it waits here and has it back on return.

    ``world="process"`` forks one child per rank (module docstring), so
    the ranks compute in parallel on as many cores as there are.  A
    child returns its result and its final virtual clock; a child that
    dies without reporting fails the world at once with an
    :class:`SPMDError` naming the rank, and every child is reaped
    however the world ends.  The stall detector needs the peers' clocks
    in shared memory, so the thread world runs instead when a
    ``fault_plan`` is attached, when ``n_ranks == 1``, where the
    platform has no ``os.fork`` and when the caller is itself a rank.
    A waiting peer is given up on at the world deadline only: a child
    that died is known at once.  Results and virtual clocks never
    depend on the world or on the real interleaving.

    ``shared`` is an object every rank uses besides the communicator
    (the work-steal board); ``fn`` is then called as ``fn(comm,
    shared)``.  A rank process gets a proxy of it: its methods run on
    the launcher's object, and what they take and return is pickled.

    Returns the per-rank return values in rank order.  The primary rank
    exception, if any, is re-raised in the caller with the other ranks'
    errors attached as ``__notes__``; one raised in a rank process comes
    back pickled, its traceback as ``__cause__``, or as a
    :class:`RuntimeError` carrying its repr and traceback when it cannot
    be pickled.

    ``clocks`` optionally supplies pre-created per-rank virtual clocks so
    the caller can inspect final rank times.  ``fault_plan`` switches the
    world into resilient mode and injects the planned faults; ranks killed
    by the plan return ``None`` in the result list (their peers are
    expected to recover their work).

    ``timeout_policy`` holds both deadlines: the suspicion deadline of
    every wait on a peer (a peer whose virtual clock stands still that
    long is given up on) and the shared world deadline.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    check_choice("world", world, ("thread", "process"))
    timing = comm_timing if comm_timing is not None else CommTiming()
    if clocks is not None and len(clocks) != n_ranks:
        raise ValueError("clocks must have one entry per rank")
    forked = (
        world == "process" and fault_plan is None and n_ranks > 1
        and hasattr(os, "fork") and not getattr(_in_rank, "active", False)
    )
    policy = (
        replace(timeout_policy, collective_seconds=math.inf) if forked
        else timeout_policy
    )
    faults = FaultPlane(n_ranks, policy, fault_plan)
    the_world = _World(faults, timing)
    body = _rank_body(fn, shared)
    outcomes: list = [None] * n_ranks
    errors: list = [None] * n_ranks
    stuck: list[str] = []

    if forked:
        done, died, codes = _run_processes(the_world, shared, clocks, body)
        for rank, out in enumerate(done):
            if out is not None:
                result, error, death, tb, now = out
                if tb is not None:
                    error.__cause__ = _RemoteTraceback(tb)
                outcomes[rank] = (result, error, death)
                if clocks is not None:
                    clocks[rank].synchronize(now)
            elif rank in died:
                errors[rank] = SPMDError(
                    f"rank {rank} ended without a result "
                    f"({_exit_text(codes[rank])})"
                )
            elif not died:
                stuck.append(f"simmpi-rank-{rank}")
    else:
        def target(rank: int) -> None:
            _in_rank.active = True
            # Released however the body ends: returned, raised or rank
            # killed.
            with holding(the_world.token, rank):
                comm = SimComm(
                    the_world, rank, clocks[rank] if clocks is not None else None
                )
                outcomes[rank] = body(comm, shared)

        threads = [
            threading.Thread(
                target=target, args=(r,), name=f"simmpi-rank-{r}", daemon=True
            )
            for r in range(n_ranks)
        ]
        # A caller that is itself a rank thread of an outer world only
        # waits from here on: it gives that world's token up and has it
        # back on exit.
        with idle():
            stuck = _run_threads(faults, threads)
    if stuck:
        raise SPMDError(
            f"{', '.join(stuck)} did not finish within the shared "
            f"{timeout_policy.world_seconds}s deadline"
        )
    results = [out[0] if out is not None else None for out in outcomes]
    for rank, out in enumerate(outcomes):
        if out is not None and out[1] is not None:
            errors[rank] = out[1]
    _raise_rank_errors(errors)
    deaths = [out[2] for out in outcomes if out is not None]
    if fault_plan is None:
        for death in deaths:
            if death is not None:
                # A RankKilledError outside a fault plan is a bug, not a
                # simulated failure — surface it.
                raise death
    elif all(faults.status_of(r) == DEAD for r in range(n_ranks)):
        raise AllRanksDeadError(
            f"all {n_ranks} member ranks died before completing; nothing "
            "to recover"
        )
    return results

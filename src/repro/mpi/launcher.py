"""SPMD launcher: run one function across p simulated MPI ranks.

The launcher builds the fault/epoch plane
(:class:`~repro.mpi.membership.FaultPlane`: statuses, the fault plan,
the deadline, the clock window) and hands it to the data plane
(:class:`~repro.mpi.comm._World`: exchange slots and mailboxes, priced
by a :class:`~repro.mpi.comm.CommTiming`), then marks each
rank's status as its body ends.

Each rank of a multi-rank world is a forked child process, as each MPI
rank is a process in the paper.  What the ranks share stays in the
launcher: the world, the fault plane's statuses and the caller's
``shared`` object.  A child reaches them through a proxy
(:class:`_Remote`) over its channel, two OS pipes (:func:`_pipe`),
served by one hub thread per rank (:func:`_serve`): method calls
travel, data attributes are read from the copy the child was forked
with.  The one thing a rank writes without a call is its
virtual clock, into the fault plane's shared clock window, where the
stall detector reads it.

**Fork rule: the launcher forks every rank before it starts any hub
thread**, and it joins the hubs of a world before it returns, so no
hub can hold one of a world's locks while a child is forked.  A nested
world forks from its rank process, which has no hub thread.  Python's
warning about ``fork()`` in a multi-threaded process names any world
that breaks the rule.  (One exception to the join: when a child dies
without reporting, a hub that is waiting inside the ``shared`` object
for it stays until that object's own deadline.)

**Import rule: every module a rank runs is imported in the launcher
before the fork**, at module level or where the launcher picks a
feature (an execution backend's ``make_shared``): a module a rank
imports first is compiled again in every rank of every run.
"""

from __future__ import annotations

import contextlib
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
from typing import Callable, Sequence

from repro.mpi.comm import CommTiming, SimComm, _World
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
from repro.obs.recorder import recording, set_current
from repro.util.timing import VirtualClock


class _Channel:
    """One end of a duplex byte channel over two OS pipes, one each way.

    A message is its length (8 bytes) and then its bytes;
    :meth:`recv_bytes` raises :class:`EOFError` once the peer's end is
    closed in every process.
    """

    __slots__ = ("rfd", "wfd")

    def __init__(self, rfd: int, wfd: int) -> None:
        self.rfd, self.wfd = rfd, wfd

    def send_bytes(self, blob: bytes) -> None:
        view = memoryview(len(blob).to_bytes(8, "little") + blob)
        while view:
            view = view[os.write(self.wfd, view):]

    def recv_bytes(self) -> bytearray:
        return self._read(int.from_bytes(self._read(8), "little"))

    def _read(self, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        while view:
            got = os.readv(self.rfd, [view])
            if not got:
                raise EOFError
            view = view[got:]
        return buf

    def close(self) -> None:
        fds, self.rfd, self.wfd = (self.rfd, self.wfd), -1, -1
        for fd in fds:
            if fd >= 0:
                os.close(fd)


def _pipe() -> tuple[_Channel, _Channel]:
    """The launcher's and the rank's end of one channel."""
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    return _Channel(up_r, down_w), _Channel(down_r, up_w)


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
    rank, exc = next(
        ((r, e) for r, e in ranked if not isinstance(e, SPMDError)), ranked[0]
    )
    notes = [f"[simmpi] also failed: rank {r}: {type(e).__name__}: {e}"
             for r, e in ranked if r != rank]
    if notes:
        exc.__notes__ = [*getattr(exc, "__notes__", []), *notes]
    raise exc


#: How long past the world deadline a world still takes reports (a rank
#: hung until then dies, and its peers need a poll to see it).
GRACE_SECONDS = 0.5


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
    runs it on the launcher's object (the hub thread waits on the rank's
    behalf), reading a data attribute reads the copy forked with the
    rank.  ``pinned`` attributes replace the copy's."""

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
    report ``(result, error, death, tb)`` to the hub."""
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
        blob = _ref_dumps(("done", result, error, death, tb))
    except Exception as exc:  # noqa: BLE001 - the result cannot travel
        error = RuntimeError(f"rank {rank}'s result cannot be pickled: {exc!r}")
        blob = _ref_dumps(("done", None, error, None, None))
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


def _run_processes(world: _World, shared, clocks, body) -> list:
    """Run every rank of ``world`` in a forked child.  Returns each
    rank's ``(result, error, death)``, ``None`` for a rank that died
    without reporting; ``clocks`` are moved to the ranks' final
    readings."""
    faults, n = world.faults, world.size
    targets = {"world": world, "faults": faults, "shared": shared}
    reports: list = [None] * n
    died: set[int] = set()
    pipes = [_pipe() for _ in range(n)]
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
                target=_serve, args=(r, pipes[r][0], targets, reports),
                name=f"simmpi-hub-{r}", daemon=True,
            )
            for r in range(n)
        ]
        for hub in hubs:
            hub.start()
        # One shared deadline.  A child that ended without reporting is
        # a death in a resilient world (its peers recover it) and ends
        # the wait at once in a plain one (its peers cannot complete
        # without it).  In a resilient world ranks the plane has
        # declared dead are not waited for; they are killed below.
        while True:
            for r, hub in enumerate(hubs):
                if reports[r] is None and not hub.is_alive() and r not in died:
                    died.add(r)
                    if faults.resilient:
                        faults.mark(r, DEAD)
            waiting = [h for r, h in enumerate(hubs) if h.is_alive() and not (
                faults.resilient and faults.status_of(r) == DEAD)]
            remaining = faults.deadline + GRACE_SECONDS - time.monotonic()
            if not waiting or (died and not faults.resilient) or remaining <= 0.0:
                break
            waiting[0].join(min(remaining, 0.1))
    finally:
        for pid, report in zip(pids, reports):
            if report is None:  # killed, as a child that outlived its world
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        # Wake the hubs still waiting on a peer for a rank that is gone.
        for r in range(n):
            faults.mark(r, FAILED)
        for hub in hubs:
            hub.join(0.5)
        for launcher_end, rank_end in pipes:
            launcher_end.close()
            rank_end.close()
    outcomes: list = [None] * n
    stuck = []
    for r, report in enumerate(reports):
        if report is not None:
            result, error, death, tb = report
            if tb is not None:
                error.__cause__ = _RemoteTraceback(tb)
            outcomes[r] = (result, error, death)
        elif faults.status_of(r) == DEAD:
            continue  # a death: its peers recovered its work
        elif r in died:
            how = (f"killed by {signal.Signals(-codes[r]).name}" if codes[r] < 0
                   else f"exit code {codes[r]}")
            outcomes[r] = (None, SPMDError(f"rank {r} ended without a result ({how})"), None)
        elif faults.resilient or not died:
            stuck.append(f"simmpi-rank-{r}")
    if stuck:
        raise SPMDError(
            f"{', '.join(stuck)} did not finish within the shared "
            f"{faults.policy.world_seconds}s deadline"
        )
    for clock, now in zip(clocks or (), faults.window):
        if not math.isnan(now):
            clock.synchronize(now)
    return outcomes


def _rank_body(fn, shared) -> Callable:
    """The rank body: ``(result, error, death)`` of ``fn`` on one
    communicator, the rank's status marked as it ends."""

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


def run_spmd(
    fn: Callable[..., object],
    n_ranks: int,
    comm_timing: CommTiming | None = None,
    clocks: Sequence[VirtualClock] | None = None,
    fault_plan: FaultPlan | None = None,
    timeout_policy: TimeoutPolicy = TimeoutPolicy(),
    *,
    shared=None,
) -> list:
    """Execute ``fn(comm)`` on every rank of a simulated world; returns
    the per-rank return values in rank order.

    A world of more than one rank forks one child per rank (module
    docstring; a platform without ``os.fork`` cannot run one).  A
    one-rank world runs ``fn`` in the caller with no recorder installed,
    as a fresh rank would.  A rank that calls ``run_spmd`` forks its own
    world's ranks.  Results and virtual clocks never depend on the real
    interleaving.

    ``shared`` is an object every rank uses besides the communicator
    (the work-steal board); ``fn`` is then called as ``fn(comm,
    shared)``, and a rank process gets a proxy of it.  ``clocks``
    optionally supplies per-rank virtual clocks, left at the ranks'
    final readings.

    ``fault_plan`` makes the world resilient and injects the planned
    faults.  A rank that dies — killed by the plan, given up on by its
    peers' stall detector, or a rank process that ended without
    reporting — returns ``None``, and its peers recover its work.
    Without a plan, a rank process that ends without reporting fails the
    world at once with an :class:`SPMDError`.  ``timeout_policy`` holds
    the stall detector's suspicion deadline and the world deadline.

    The primary rank exception is re-raised here with the other ranks'
    errors as ``__notes__``; one raised in a rank process comes back
    pickled with its traceback as ``__cause__``, or as a
    :class:`RuntimeError` carrying its repr and traceback.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if n_ranks > 1 and not hasattr(os, "fork"):
        raise RuntimeError(f"a world of {n_ranks} ranks needs os.fork")
    timing = comm_timing if comm_timing is not None else CommTiming()
    if clocks is not None and len(clocks) != n_ranks:
        raise ValueError("clocks must have one entry per rank")
    faults = FaultPlane(n_ranks, timeout_policy, fault_plan)
    world = _World(faults, timing)
    body = _rank_body(fn, shared)
    if n_ranks > 1:
        outcomes = _run_processes(world, shared, clocks, body)
    else:
        with recording(None):
            outcomes = [body(SimComm(world, 0, clocks and clocks[0]), shared)]
    _raise_rank_errors([out[1] if out is not None else None for out in outcomes])
    if fault_plan is None:
        for out in outcomes:
            if out is not None and out[2] is not None:
                # A RankKilledError outside a fault plan is a bug, not a
                # simulated failure — surface it.
                raise out[2]
    elif all(faults.status_of(r) == DEAD for r in range(n_ranks)):
        raise AllRanksDeadError(
            f"all {n_ranks} member ranks died before completing; nothing "
            "to recover"
        )
    return [out[0] if out is not None else None for out in outcomes]

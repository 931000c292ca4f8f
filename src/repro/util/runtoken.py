"""The run token: one runnable rank thread per simulated world.

Rank threads share one interpreter.  Left free-running they hand the
interpreter lock to each other at every small NumPy call, across cores,
and most of a multi-rank run's wall time becomes that hand-off.  A world
of more than one rank therefore owns a :class:`RunToken`; a rank thread
runs only while it holds it, so the interpreter lock is never contended.

A rank gives the token up in two places only:

* :func:`idle` — around every wait for *other ranks* (a collective's
  exchange, a blocking receive, an injected hang, the steal board).  The
  wait loops and their polls run token-free.  The lock-order rule is
  stated there.
* :func:`heartbeat` — called where a :class:`~repro.util.timing.
  VirtualClock` advances (every likelihood op charges one): after
  :data:`SLICE_SECONDS` the holder goes to the back of the queue.  The
  slice is the failure detector's heartbeat seen from the other side: a
  rank waiting in a collective sees every live peer's clock move many
  times per suspicion deadline.

Hand-off is FIFO and direct: the releaser passes the token to the oldest
waiter instead of freeing it, so it cannot barge back in ahead of the
queue (a plain ``Lock`` lets it).  Which thread holds a token is
thread-local state; a thread that holds none — the main thread, a rank
of a one-rank world — passes through :func:`idle` and :func:`heartbeat`
untouched.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter

#: Longest a rank runs before it offers the token to the queue.  Not a
#: tuning knob: wall time does not move between 5 and 100 ms.
SLICE_SECONDS = 0.02

class _Seat(threading.local):
    #: ``(token, who)`` while this thread holds ``token``.  A class-level
    #: default keeps the read on threads that never held one a plain
    #: attribute load (a missing thread-local attribute costs ~0.5 us).
    seat: tuple | None = None


_tls = _Seat()


class RunToken:
    """FIFO hand-off lock with a time slice and hand-off counters.

    The counters are for tests and benchmarks; no report reads them.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: One locked gate per queued thread, oldest first.
        self._queue: deque[threading.Lock] = deque()
        self._held = False
        self._slice_end = 0.0
        self.handoffs = 0  # releases that passed the token to a waiter
        self.expired_slices = 0  # heartbeats that gave the token up
        self.waited: dict[object, float] = {}  # who -> seconds queued

    def acquire(self, who: object = None) -> None:
        with self._mutex:
            if self._held:
                gate = threading.Lock()
                gate.acquire()
                self._queue.append(gate)
            else:
                gate = None
                self._held = True
        if gate is not None:
            t0 = perf_counter()
            gate.acquire()  # opened by the releaser that picked us
            self.waited[who] = self.waited.get(who, 0.0) + perf_counter() - t0
        self._slice_end = perf_counter() + SLICE_SECONDS

    def release(self) -> None:
        with self._mutex:
            if self._queue:
                self.handoffs += 1
                self._queue.popleft().release()  # _held stays True
            else:
                self._held = False

    def beat(self, who: object = None) -> None:
        """The holder's slice check: past the slice, queue up again
        behind whoever is waiting (nobody waiting: a new slice)."""
        if perf_counter() < self._slice_end:
            return
        if self._queue:
            self.expired_slices += 1
            self.release()
            self.acquire(who)
        else:
            self._slice_end = perf_counter() + SLICE_SECONDS

    def stats(self) -> dict:
        return {
            "handoffs": self.handoffs,
            "expired_slices": self.expired_slices,
            "waited_seconds": dict(self.waited),
        }


@contextmanager
def holding(token: RunToken | None, who: object = None):
    """Run the block holding ``token`` (``None``: just run it).  The
    token is released however the block ends."""
    if token is None:
        yield
        return
    token.acquire(who)
    _tls.seat = (token, who)
    try:
        yield
    finally:
        _tls.seat = None
        token.release()


@contextmanager
def idle():
    """Give up this thread's token for the block — a wait for other
    ranks — and take it back afterwards, on every way out.

    **Lock order: the token, then a condition's lock, never the
    reverse.**  Write ``with idle(), cond:`` — the token is then re-taken
    only after the condition's lock is released, so a thread queued for
    the token never holds a lock its holder may want.  For the same
    reason no clock is advanced under a condition's lock: the
    :func:`heartbeat` in it may queue for the token.
    """
    seat = _tls.seat
    if seat is None:
        yield
        return
    token, who = seat
    _tls.seat = None
    token.release()
    try:
        yield
    finally:
        token.acquire(who)
        _tls.seat = seat


def heartbeat() -> None:
    """Slice check of whatever token this thread holds."""
    seat = _tls.seat
    if seat is not None:
        seat[0].beat(seat[1])

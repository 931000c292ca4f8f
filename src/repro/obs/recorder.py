"""Structured span/event recording on the simulated runtime's clocks.

One :class:`Recorder` belongs to one simulated MPI rank and timestamps
everything with the rank's :class:`~repro.util.timing.VirtualClock` — the
same clock the performance model advances — so a recorded timeline *is*
the paper's per-rank wall-clock decomposition.

Track-id convention (see ``docs/ARCHITECTURE.md`` §8): every event
carries ``(rank, track)``.  Track 0 is the rank's main line (stages,
search moves, collectives, recovery); tracks ``1..T`` are the rank's
virtual Pthreads, fed by the thread pool's region accounting.  The
Chrome-trace exporter maps rank → process and track → thread, so a whole
run renders as per-rank timelines with per-thread lanes.

Instrumented call sites obtain the active recorder with
:func:`current` — a thread-local.  A rank's body runs on one Python
thread (the main thread of its forked process in a multi-rank world, the
caller's in a one-rank world), and its virtual threads are simulated
*inside* that thread; the launcher's hub threads, which serve the ranks'
calls, never see a rank's recorder.  With no recorder
installed, :func:`current` returns ``None`` and every instrumentation
point reduces to one attribute read and a falsy check; tracing off is
therefore free to within noise (the <5% microbench budget).

Kernel-region events are *coalesced*: consecutive regions that abut in
virtual time merge into one batch per track, flushed when a gap appears
(communication advanced the clock), when a main-track span closes, or at
a batch-size cap.  This keeps traces of real searches (millions of
regions) bounded while preserving per-thread utilisation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.util.timing import VirtualClock

#: Track id of a rank's main timeline (stages, collectives, moves).
MAIN_TRACK = 0

#: Default cap on retained events per recorder; overflow increments
#: ``dropped`` instead of growing without bound.
MAX_EVENTS = 250_000

#: Kernel regions merged into one batch before a forced flush.
REGION_BATCH_LIMIT = 50_000


@dataclass(frozen=True)
class SpanEvent:
    """A named interval on one (rank, track) timeline."""

    name: str
    cat: str
    rank: int
    track: int
    t0: float
    t1: float
    args: dict | None = None

    def to_dict(self) -> dict:
        return {
            "type": "span", "name": self.name, "cat": self.cat,
            "rank": self.rank, "track": self.track,
            "t0": self.t0, "t1": self.t1, "args": self.args,
        }


@dataclass(frozen=True)
class InstantEvent:
    """A point event (retry, rank failure, resume marker)."""

    name: str
    cat: str
    rank: int
    track: int
    t: float
    args: dict | None = None

    def to_dict(self) -> dict:
        return {
            "type": "instant", "name": self.name, "cat": self.cat,
            "rank": self.rank, "track": self.track,
            "t": self.t, "args": self.args,
        }


class _RegionBatch:
    """Pending run of abutting kernel regions, one lane per thread."""

    __slots__ = ("t0", "t1", "busy", "count")

    def __init__(self, t0: float, t1: float, busy: list[float], count: int) -> None:
        self.t0 = t0
        self.t1 = t1
        self.busy = busy
        self.count = count


class Recorder:
    """Span/instant recorder plus metrics registry for one rank.

    Parameters
    ----------
    rank:
        The owning (physical) MPI rank; stamped on every event.
    clock:
        The rank's virtual clock (timestamps source).  A private clock is
        created when omitted (useful in unit tests).
    n_threads:
        Virtual threads of this rank — declares tracks ``1..n_threads``
        for the exporter even if no region ever runs on one of them.
    record_events:
        ``False`` collects metrics only (``--metrics-out`` without
        ``--trace``); span/instant calls become no-ops.
    max_events:
        Retained-event cap; overflow counts into :attr:`dropped`.
    """

    def __init__(
        self,
        rank: int = 0,
        clock: VirtualClock | None = None,
        n_threads: int = 1,
        record_events: bool = True,
        max_events: int = MAX_EVENTS,
        region_batch_limit: int = REGION_BATCH_LIMIT,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.rank = rank
        self.clock = clock if clock is not None else VirtualClock()
        self.n_threads = n_threads
        self.record_events = record_events
        self.max_events = max_events
        self.region_batch_limit = region_batch_limit
        self.events: list[SpanEvent | InstantEvent] = []
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self._batch: _RegionBatch | None = None

    @property
    def now(self) -> float:
        return self.clock.now

    # -- event recording ---------------------------------------------------

    def _append(self, event: SpanEvent | InstantEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    def span(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float | None = None,
        track: int = MAIN_TRACK,
        args: dict | None = None,
    ) -> None:
        """Record a closed interval ``[t0, t1]`` (``t1`` defaults to now)."""
        if not self.record_events:
            return
        if track == MAIN_TRACK:
            # Thread lanes segment at main-track span boundaries so the
            # per-thread batches nest inside stages and search moves.
            self.flush_regions()
        end = self.clock.now if t1 is None else t1
        self._append(SpanEvent(name, cat, self.rank, track, t0, end, args))

    def instant(
        self,
        name: str,
        cat: str,
        t: float | None = None,
        track: int = MAIN_TRACK,
        args: dict | None = None,
    ) -> None:
        if not self.record_events:
            return
        when = self.clock.now if t is None else t
        self._append(InstantEvent(name, cat, self.rank, track, when, args))

    @contextmanager
    def measure(self, name: str, cat: str, args: dict | None = None):
        """Context manager: a span from entry ``now`` to exit ``now``."""
        t0 = self.clock.now
        try:
            yield self
        finally:
            self.span(name, cat, t0, args=args)

    # -- metrics passthrough ----------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- kernel-region coalescing ------------------------------------------

    def thread_regions(
        self, t0: float, t1: float, busy: list[float], count: int = 1
    ) -> None:
        """Record ``count`` parallel regions spanning ``[t0, t1]`` whose
        per-thread busy seconds are ``busy`` (one entry per thread).

        Abutting calls merge (kernel regions are back-to-back in virtual
        time unless communication intervened), so long compute stretches
        cost one span per thread, not one per region.
        """
        if not self.record_events:
            return
        batch = self._batch
        if (
            batch is not None
            and batch.t1 == t0
            and len(batch.busy) == len(busy)
            and batch.count + count <= self.region_batch_limit
        ):
            batch.t1 = t1
            batch.count += count
            for i, b in enumerate(busy):
                batch.busy[i] += b
        else:
            self.flush_regions()
            self._batch = _RegionBatch(t0, t1, list(busy), count)

    def flush_regions(self) -> None:
        """Emit the pending region batch as one span per thread track."""
        batch = self._batch
        if batch is None:
            return
        self._batch = None
        window = batch.t1 - batch.t0
        for i, b in enumerate(batch.busy):
            self._append(SpanEvent(
                f"regions x{batch.count}",
                "kernel",
                self.rank,
                i + 1,
                batch.t0,
                batch.t1,
                {
                    "regions": batch.count,
                    "busy_s": b,
                    "util": (b / window) if window > 0 else 1.0,
                },
            ))

    # -- export ------------------------------------------------------------

    def export_events(self) -> list[dict]:
        """All recorded events as JSON-ready dicts, in start-time order."""
        self.flush_regions()
        def start(e):  # noqa: E306 - tiny local key helper
            return (e.t0 if isinstance(e, SpanEvent) else e.t, e.track)
        return [e.to_dict() for e in sorted(self.events, key=start)]


# -- the active recorder (one per thread running a rank body) --------------

_tls = threading.local()


def current() -> Recorder | None:
    """The recorder active on this thread (the one running a rank's body,
    in the rank's process), or ``None``."""
    return getattr(_tls, "recorder", None)


def set_current(recorder: Recorder | None) -> None:
    _tls.recorder = recorder


@contextmanager
def recording(recorder: Recorder | None):
    """Install ``recorder`` as this thread's active recorder."""
    previous = current()
    set_current(recorder)
    try:
        yield recorder
    finally:
        set_current(previous)

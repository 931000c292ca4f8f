"""Per-rank task journals: checkpoint/restart for work-steal runs.

Static-mode checkpoints record whole stage outputs per rank
(:mod:`repro.hybrid.checkpoint`); under work stealing a rank's share of
a stage is decided at run time, so the unit of persistence is the
*task*.  Each rank appends every completed task (identified globally by
``kind:origin:index``) to its own journal file, rewritten atomically on
each completion.  On resume, the union of all journal files — whoever
executed a task, its result is the same by the determinism discipline —
seeds the scheduler board, and only tasks missing from the union are
re-run.

The journal is also the rank's *stage* store: it speaks the
``save(stage, doc)`` / ``load(stage)`` / ``available_stages()`` protocol
of :class:`~repro.hybrid.checkpoint.CheckpointStore`, so the stage
boundary restores a finished stage's accounting and clock the same way
for both granularities
(:class:`~repro.runtime.middleware.CheckpointMiddleware`).  What differs
is whose note makes a stage restorable: a stage's results are the
union's, so *any* rank's does — a rank that was dead when its peers
finished the stage restores no accounting, only their stage-end clock.

Setup tasks are never journalled: they are cheap, engine-bound and not
JSON-serialisable; a resumed rank recomputes them.
"""

from __future__ import annotations

from itertools import takewhile
from pathlib import Path

from repro.hybrid.checkpoint import (
    FORMAT_VERSION,
    payload_to_results,
    read_checked,
    results_to_payload,
    write_durable,
)
from repro.search.comprehensive import STAGE_ORDER
from repro.search.hillclimb import SearchResult
from repro.sched.tasks import Task


class SchedJournal:
    """Append-style journal of one rank's completed tasks and stages.

    The file is a single JSON document rewritten atomically per
    completion (task results are small — a Newick string and two
    numbers — and toy-scale runs complete at most a few hundred tasks,
    so rewrite cost is irrelevant next to a tree search).
    """

    def __init__(self, directory: str | Path, rank: int, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.rank = rank
        self.fingerprint = fingerprint
        self._tasks: dict[str, list] = {}
        self._stages: dict[str, dict] = {}
        self._clock = 0.0

    @property
    def path(self) -> Path:
        return self.directory / f"sched-rank{self.rank:04d}.json"

    def record(self, task: Task, result: SearchResult, clock_now: float) -> None:
        """Persist one completed task *before* it is published to the board."""
        if task.kind == "setup":
            raise ValueError("setup tasks are recomputed, never journalled")
        self._tasks[task.id] = results_to_payload([result])[0]
        self._clock = float(clock_now)
        self._write()

    def save(self, stage: str, doc: dict) -> None:
        """Note a finished stage: its accounting document (seconds, ops,
        stage-end clock, comm account), restored by a resumed run.  The membership
        stamp is not kept: task results are origin-pure, so a journal
        restores under whatever membership resumes it."""
        self._stages[stage] = {k: v for k, v in doc.items() if k != "membership"}
        self._clock = doc["clock"]
        self._write()

    def load(self, stage: str) -> dict | None:
        """The document for ``stage``, or None if never noted."""
        return self._stages.get(stage)

    def available_stages(self) -> tuple[str, ...]:
        """The contiguous :data:`STAGE_ORDER` prefix noted.  A note is
        written after the stage's pool drained, i.e. after every task of
        it was journalled by whoever executed it."""
        return tuple(takewhile(self._stages.__contains__, STAGE_ORDER))

    def _write(self) -> None:
        write_durable(self.path, {
            "format": FORMAT_VERSION,
            "rank": self.rank,
            "fingerprint": self.fingerprint,
            "clock": self._clock,
            "stages": self._stages,
            "tasks": self._tasks,
        })


def load_journal(directory: str | Path, rank: int, fingerprint: str) -> dict | None:
    """One rank's journal document, or None if absent.

    Raises :class:`~repro.hybrid.checkpoint.CheckpointError` on corrupt
    files or fingerprint mismatch — resuming against the wrong
    configuration must fail loudly, not mix runs.
    """
    return read_checked(
        SchedJournal(directory, rank, fingerprint).path, "sched journal",
        fingerprint, f"{rank}", rank=rank,
    )


def load_union(
    directory: str | Path, n_ranks: int, fingerprint: str, taxa
) -> dict[str, SearchResult]:
    """The union of all ranks' journalled tasks for one run: every task
    id mapped to its parsed :class:`SearchResult` (duplicates across
    journals are value-identical by determinism — first writer wins).
    Absent journals simply contribute nothing."""
    results: dict[str, SearchResult] = {}
    for rank in range(n_ranks):
        doc = load_journal(directory, rank, fingerprint)
        if doc is not None:
            tasks = doc["tasks"]
            for tid, res in zip(tasks, payload_to_results(tasks.values(), taxa)):
                results.setdefault(tid, res)
    return results


def open_journal(
    directory: str | Path, rank: int, n_ranks: int, fingerprint: str, taxa,
    resume: bool = False,
) -> tuple[SchedJournal, dict[str, SearchResult]]:
    """One rank's journal, primed for a (possibly resumed) run.

    Returns ``(journal, restored)``.  Without ``resume`` the journal is
    fresh and ``restored`` empty.  With ``resume``, ``restored`` is the
    :func:`load_union` of every rank's journal and the rank's own
    journal content (tasks and stage documents) is carried forward, so
    the resumed run's file stays the complete record of its timeline.
    A stage only its peers noted (the rank was dead) enters that record
    with no accounting, no comm account and the latest stage-end clock
    they noted.
    """
    journal = SchedJournal(directory, rank, fingerprint)
    if not resume:
        return journal, {}
    docs = [load_journal(directory, r, fingerprint) for r in range(n_ranks)]
    for doc in filter(None, docs):
        for stage, note in doc["stages"].items():
            seen = journal._stages.setdefault(
                stage, {"stage_seconds": 0.0, "stage_ops": 0, "clock": 0.0}
            )
            seen["clock"] = max(seen["clock"], note["clock"])
    if docs[rank] is not None:
        journal._tasks = docs[rank]["tasks"]
        journal._stages.update(docs[rank]["stages"])
        journal._clock = docs[rank]["clock"]
    return journal, load_union(directory, n_ranks, fingerprint, taxa)

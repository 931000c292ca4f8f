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

Setup tasks are never journalled: they are cheap, engine-bound and not
JSON-serialisable; a resumed rank recomputes them.
"""

from __future__ import annotations

from pathlib import Path

from repro.hybrid.checkpoint import FORMAT_VERSION, read_checked, write_durable
from repro.search.hillclimb import SearchResult
from repro.tree.newick import parse_newick, write_newick
from repro.sched.tasks import Task


class SchedJournal:
    """Append-style journal of one rank's completed tasks.

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
        self._clock = 0.0
        self._stage_seconds: dict[str, float] = {}
        self._stage_clock: dict[str, float] = {}

    @property
    def path(self) -> Path:
        return self.directory / f"sched-rank{self.rank:04d}.json"

    def record(self, task: Task, result: SearchResult, clock_now: float) -> None:
        """Persist one completed task *before* it is published to the board."""
        if task.kind == "setup":
            raise ValueError("setup tasks are recomputed, never journalled")
        self._tasks[task.id] = [
            write_newick(result.tree, digits=None),
            float(result.lnl),
            int(result.rounds),
        ]
        self._clock = float(clock_now)
        self._write()

    def note_stage(self, stage: str, seconds: float, clock_now: float) -> None:
        """Record a finished stage's accounting (for resumed stage reports).

        The absolute stage-end clock lets a resumed run re-anchor its
        timeline at each fully-restored stage boundary, so stages it does
        re-execute run from bit-identical clock bases.
        """
        self._stage_seconds[stage] = float(seconds)
        self._stage_clock[stage] = float(clock_now)
        self._clock = float(clock_now)
        self._write()

    def _write(self) -> None:
        write_durable(self.path, {
            "format": FORMAT_VERSION,
            "rank": self.rank,
            "fingerprint": self.fingerprint,
            "clock": self._clock,
            "stage_seconds": self._stage_seconds,
            "stage_clock": self._stage_clock,
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
) -> tuple[
    dict[str, SearchResult],
    dict[int, dict[str, float]],
    dict[int, dict[str, float]],
]:
    """The union of all ranks' journals for one run.

    Returns ``(results, stage_seconds, stage_clock)``: every journalled
    task id mapped to its parsed :class:`SearchResult` (duplicates across
    journals are value-identical by determinism — first writer wins),
    plus each journalled rank's per-stage seconds and absolute stage-end
    clocks.  Absent journals simply contribute nothing.
    """
    results: dict[str, SearchResult] = {}
    stage_seconds: dict[int, dict[str, float]] = {}
    stage_clock: dict[int, dict[str, float]] = {}
    for rank in range(n_ranks):
        doc = load_journal(directory, rank, fingerprint)
        if doc is None:
            continue
        stage_seconds[rank] = {
            k: float(v) for k, v in doc.get("stage_seconds", {}).items()
        }
        stage_clock[rank] = {
            k: float(v) for k, v in doc.get("stage_clock", {}).items()
        }
        for tid, (newick, lnl, rounds) in doc.get("tasks", {}).items():
            results.setdefault(
                tid, SearchResult(parse_newick(newick, taxa=taxa), lnl, rounds)
            )
    return results, stage_seconds, stage_clock


def open_journal(
    directory: str | Path, rank: int, n_ranks: int, fingerprint: str, taxa,
    resume: bool = False,
) -> tuple[
    SchedJournal,
    dict[str, SearchResult],
    dict[str, float],
    dict[str, float],
]:
    """One rank's journal, primed for a (possibly resumed) run.

    Returns ``(journal, restored, stage_seconds, stage_clock)``.  Without
    ``resume`` the journal is fresh and the rest is empty.  With
    ``resume``, ``restored`` is the :func:`load_union` of every rank's
    journal (whoever executed a task, its result is the same), the two
    stage maps are *this* rank's journalled accounting, and the rank's
    own journal content is carried forward so the resumed run's file
    stays the complete record of everything it executed.
    """
    journal = SchedJournal(directory, rank, fingerprint)
    if not resume:
        return journal, {}, {}, {}
    restored, stage_seconds, stage_clock = load_union(
        directory, n_ranks, fingerprint, taxa
    )
    own = load_journal(directory, rank, fingerprint)
    if own is not None:
        journal._tasks = dict(own.get("tasks", {}))
        journal._stage_seconds = dict(own.get("stage_seconds", {}))
        journal._clock = float(own.get("clock", 0.0))
    return (
        journal,
        restored,
        dict(stage_seconds.get(rank, {})),
        dict(stage_clock.get(rank, {})),
    )

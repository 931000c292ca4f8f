"""Per-rank, per-stage checkpoints of a hybrid run.

The determinism discipline (explicit :class:`~repro.util.rng.RAxMLRandom`
streams, the paper's ``seed + 10000·r`` rank seeding) makes *exact*
checkpoint/restart possible: everything a stage produces is a pure
function of the configuration and the rank's seed streams, so a
checkpoint only has to record the stage *outputs* (Newick trees at full
float precision, log-likelihoods, RNG stream state) plus the rank's
virtual-clock time, stage accounting and comm account.  A run killed
mid-pipeline and resumed from these files yields a bit-identical
:class:`~repro.hybrid.results.HybridResult`.

Format: one JSON document per (rank, stage), written atomically
(temp-file + ``os.replace``) so a kill mid-write can never leave a
half-readable checkpoint.  Each document embeds a fingerprint of the run
configuration and alignment; loading under a different configuration
raises :class:`CheckpointError` instead of silently mixing runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass
from pathlib import Path

from repro.search.comprehensive import STAGE_ORDER
from repro.search.hillclimb import SearchResult
from repro.tree.newick import parse_newick, write_newick

#: Version 4: the comm account in every stage document has no
#: intra/inter-node split.  Older files are rejected loudly, not migrated.
FORMAT_VERSION = 4


class CheckpointError(RuntimeError):
    """A checkpoint is unreadable, corrupt, or from a different run."""


def alignment_digest(pal) -> str:
    """Content hash of a :class:`PatternAlignment` (taxa + patterns +
    weights) — checkpoints must never be resumed against other data."""
    h = hashlib.sha256()
    h.update(json.dumps(list(pal.taxa)).encode("ascii"))
    h.update(pal.patterns.tobytes())
    h.update(pal.weights.tobytes())
    return h.hexdigest()


def fingerprint_doc(obj) -> dict:
    """The JSON-able identity of a config object, declared by the object.

    Reads the object's ``fingerprint_fields`` tuple (see
    :class:`~repro.hybrid.driver.HybridConfig` and
    :class:`~repro.search.comprehensive.ComprehensiveConfig`): each named
    field becomes one document entry, nested dataclass values (e.g.
    ``stage_params``) as plain dicts, unset ones as ``null``.  Adding a
    result-affecting knob to a config means adding its name to that
    tuple — nothing here changes.
    """
    doc = {}
    for name in obj.fingerprint_fields:
        value = getattr(obj, name)
        doc[name] = asdict(value) if is_dataclass(value) else value
    return doc


def config_fingerprint(pal, config) -> str:
    """Hash of every input that determines a run's results and timings.

    Composed from the configs' declarative ``fingerprint_fields`` plus
    the alignment digest.  Resilience-only knobs (``fault_plan``,
    ``checkpoint_dir``, ``resume``) are deliberately excluded from the
    field lists: a resumed run and its killed predecessor share a
    fingerprint by construction.
    """
    doc = {"format": FORMAT_VERSION}
    doc.update(fingerprint_doc(config))
    doc["comprehensive"] = fingerprint_doc(config.comprehensive)
    doc["alignment"] = alignment_digest(pal)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("ascii")
    ).hexdigest()


def results_to_payload(results) -> list[list]:
    """Serialise SearchResults exactly: full-precision (repr) Newick
    branch lengths round-trip floats bit-for-bit."""
    return [
        [write_newick(r.tree, digits=None), float(r.lnl), int(r.rounds)]
        for r in results
    ]


def payload_to_results(payload, taxa) -> list[SearchResult]:
    return [
        SearchResult(parse_newick(newick, taxa=taxa), lnl, rounds)
        for newick, lnl, rounds in payload
    ]


def write_durable(path: Path, doc: dict) -> None:
    """Replace ``path`` with ``doc`` as JSON, atomically and durably.

    fsync the temp file before the rename (else a crash can leave a
    fully-renamed but empty/truncated file) and fsync the directory
    after it (else the rename itself may not survive).  Readers see old
    or new, never half.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return  # platform/filesystem without directory fds
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_checked(path: Path, what: str, fingerprint: str, expected: str,
                 **names) -> dict | None:
    """The ``what`` document at ``path``, or None if absent.

    Raises :class:`CheckpointError` unless the file decodes, carries
    :data:`FORMAT_VERSION`, names every ``names`` value (worded as
    ``expected`` in the message) and was written under ``fingerprint`` —
    resuming against the wrong run must fail loudly, not mix runs.
    """
    try:
        text = path.read_text(encoding="ascii")
    except FileNotFoundError:
        return None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt {what} {path}: {exc}") from exc
    if doc.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported {what.split()[-1]} format "
            f"{doc.get('format')!r}"
        )
    if any(doc.get(k) != v for k, v in names.items()):
        named = "/".join(f"{k} {doc.get(k)!r}" for k in names)
        raise CheckpointError(f"{path}: names {named}, expected {expected}")
    if doc.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"{path} was written by a different run configuration or "
            "alignment; refusing to resume from it"
        )
    return doc


class CheckpointStore:
    """Atomic JSON checkpoints for one logical rank in one directory.

    A survivor adopting a dead rank's work opens a second store for the
    dead rank's files — the per-rank naming keeps them disjoint.
    """

    def __init__(self, directory: str | Path, rank: int, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.rank = rank
        self.fingerprint = fingerprint

    def path(self, stage: str) -> Path:
        return self.directory / f"ckpt-rank{self.rank:04d}-{stage}.json"

    def save(self, stage: str, payload: dict) -> None:
        write_durable(self.path(stage), {
            "format": FORMAT_VERSION,
            "rank": self.rank,
            "stage": stage,
            "fingerprint": self.fingerprint,
            "payload": payload,
        })

    def load(self, stage: str) -> dict | None:
        """The payload checkpointed for ``stage``, or None if absent."""
        doc = read_checked(
            self.path(stage), "checkpoint", self.fingerprint,
            f"rank {self.rank}/{stage!r}", rank=self.rank, stage=stage,
        )
        return None if doc is None else doc["payload"]

    def available_stages(self) -> tuple[str, ...]:
        """The contiguous prefix of :data:`STAGE_ORDER` present on disk.

        A gap truncates the prefix: later checkpoints depend on earlier
        stages, so a missing middle file invalidates what follows.
        """
        stages: list[str] = []
        for stage in STAGE_ORDER:
            if not self.path(stage).exists():
                break
            stages.append(stage)
        return tuple(stages)

"""Golden cross-mode parity suite for `repro.runtime`.

The fixture (``tests/data/runtime_golden.json``) was generated by running
this module as a script (last regenerated by a deliberate,
differ-reviewed break: the two-tier communication model and its
intra/inter-node split are gone).  Every
scenario here re-runs the same toy analysis through the current code and
asserts the outputs are bit-identical: ``best_lnl``, trees, RNG
fingerprints, per-stage virtual seconds, checkpoint file digests, and
the full trace/metrics documents (as canonical-JSON SHA-256).

Scenarios cover both ``--schedule`` modes, with and without fault
injection, with and without checkpoint/``--resume``, plus the
bootstopping stage variant.

The digests are opaque, so every record also carries the readable
content behind them (per-rank stage seconds/ops, span names and stage-span
args, metrics counters, the run report minus its ``sched`` document,
checkpoint documents minus their fingerprint): a
deliberate golden move is reviewed field by field with the differ below,
against :data:`ALLOWED_MOVES`, before the fixture is regenerated::

    PYTHONPATH=src python tests/test_runtime_parity.py --capture OLD.json  # parent src
    PYTHONPATH=src python tests/test_runtime_parity.py --diff OLD.json     # changed src
    PYTHONPATH=src python tests/test_runtime_parity.py --check   # CI: no move vs the fixture
    PYTHONPATH=src python tests/test_runtime_parity.py           # regenerate the fixture
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi.faults import FaultPlan, KillSpec
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams

GOLDEN_PATH = Path(__file__).parent / "data" / "runtime_golden.json"

QUICK = StageParams(
    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
    thorough_max_rounds=2, brlen_passes=1,
)

#: name -> scenario spec.  ``fault`` is a KillSpec kwargs dict; a
#: checkpointed scenario runs twice (first run writes, second resumes).
SCENARIOS: dict[str, dict] = {
    "static": {"schedule": "static"},
    "work-steal": {"schedule": "work-steal"},
    "static-fault": {"schedule": "static", "fault": {"rank": 1, "stage": "fast"}},
    "work-steal-fault": {"schedule": "work-steal", "fault": {"rank": 1, "replicate": 1}},
    "static-resume": {"schedule": "static", "checkpoint": True},
    "work-steal-resume": {"schedule": "work-steal", "checkpoint": True},
    "work-steal-fault-resume": {
        "schedule": "work-steal", "checkpoint": True,
        "fault": {"rank": 1, "replicate": 1},
    },
    "bootstop": {"schedule": "static", "bootstopping": True},
}


def make_pal():
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    return pal


def make_cc():
    return ComprehensiveConfig(n_bootstraps=4, cat_categories=3, stage_params=QUICK)


def _doc_digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("ascii")
    ).hexdigest()


def _dir_digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _dir_docs(directory: Path) -> dict[str, dict]:
    """The checkpoint documents behind :func:`_dir_digests`, minus the
    run fingerprint (an opaque hash of the configuration)."""
    docs = {}
    for p in sorted(directory.iterdir()):
        if p.is_file():
            docs[p.name] = json.loads(p.read_text(encoding="ascii"))
            docs[p.name].pop("fingerprint", None)
    return docs


def _readable(result) -> dict:
    """What the trace/metrics digests hash, in reviewable form."""
    spans = [e for e in result.trace["traceEvents"] if e.get("ph") == "X"]
    stage_spans: dict[str, list] = {}
    for e in sorted(spans, key=lambda e: (e["pid"], e["ts"])):
        if e["cat"] == "stage":
            stage_spans.setdefault(str(e["pid"]), []).append([e["name"], e["args"]])
    return {
        "ranks": {
            str(r.rank): {
                "stage_seconds": dict(r.stage_seconds),
                "stage_ops": dict(r.stage_ops),
            }
            for r in result.ranks
        },
        "span_names": dict(sorted(
            Counter(f"{e['cat']}/{e['name']}" for e in spans).items()
        )),
        "stage_spans": stage_spans,
        "counters": {
            rank: doc["counters"]
            for rank, doc in sorted(result.metrics["per_rank"].items())
        },
        "report": {
            k: v for k, v in result.metrics["report"].items() if k != "sched"
        },
    }


def capture(result) -> dict:
    """Everything 'bit-identical' promises — the one definition,
    :meth:`HybridResult.identity` with timings — plus the trace/metrics
    documents, as a JSON-round-trippable dict.

    JSON round-trips python floats exactly (shortest-repr), so float
    equality against the loaded fixture is bit-level.
    """
    return {
        **result.identity(timings=True),
        "schedule_mode": result.schedule_mode,
        "trace_digest": _doc_digest(result.trace) if result.trace else None,
        "metrics_digest": _doc_digest(result.metrics) if result.metrics else None,
        **_readable(result),
    }


def run_scenario(spec: dict, workdir: Path) -> dict:
    """Run one scenario; returns the record compared against the fixture."""
    pal = make_pal()
    kw: dict = {
        "n_processes": 2,
        "n_threads": 2,
        "comprehensive": make_cc(),
        "schedule": spec["schedule"],
        "collect_trace": True,
        "collect_metrics": True,
    }
    if spec.get("bootstopping"):
        kw.update(bootstopping=True, bootstop_step=4, bootstop_max=8)
    if spec.get("fault"):
        kw["fault_plan"] = FaultPlan(kills=(KillSpec(**spec["fault"]),))
    record: dict = {}
    if spec.get("checkpoint"):
        ckpt = workdir / "ckpt"
        first = run_hybrid_analysis(
            pal, HybridConfig(checkpoint_dir=str(ckpt), **kw)
        )
        record["first"] = capture(first)
        record["checkpoints"] = _dir_digests(ckpt)
        record["checkpoint_docs"] = _dir_docs(ckpt)
        kw.pop("fault_plan", None)  # the fault already happened
        resumed = run_hybrid_analysis(
            pal, HybridConfig(checkpoint_dir=str(ckpt), resume=True, **kw)
        )
        record["resumed"] = capture(resumed)
        record["checkpoints_after_resume"] = _dir_digests(ckpt)
        record["checkpoint_docs_after_resume"] = _dir_docs(ckpt)
    else:
        record["first"] = capture(run_hybrid_analysis(pal, HybridConfig(**kw)))
    return record


def _assert_same(expected, actual, path: str) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        assert sorted(expected) == sorted(actual), (
            f"{path}: keys differ: {sorted(expected)} vs {sorted(actual)}"
        )
        for k in expected:
            _assert_same(expected[k], actual[k], f"{path}.{k}")
        return
    if isinstance(expected, list) and isinstance(actual, list):
        assert len(expected) == len(actual), (
            f"{path}: length {len(expected)} vs {len(actual)}"
        )
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same(e, a, f"{path}[{i}]")
        return
    assert expected == actual, f"{path}: {expected!r} != {actual!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover
        pytest.skip("golden fixture missing; regenerate with "
                    "`python tests/test_runtime_parity.py`")
    return json.loads(GOLDEN_PATH.read_text(encoding="ascii"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_parity(name, golden, tmp_path):
    """The refactored runtime reproduces the pre-refactor driver bit for
    bit: results, checkpoints on disk, and trace/metrics documents."""
    expected = golden["scenarios"][name]
    actual = json.loads(json.dumps(run_scenario(SCENARIOS[name], tmp_path)))
    _assert_same(expected, actual, name)


#: Record fields that are one process's trace/metrics documents: a
#: resumed run splices its restored stages in as single spans and counts
#: only the collectives it made itself, so these differ by design.
_PER_PROCESS = ("trace_digest", "metrics_digest", "span_names",
                "stage_spans", "counters")


def resumed_vs_first(doc: dict) -> dict[str, list[str] | None]:
    """Per resume scenario, the record fields its resumed run does not
    share with its first run — resumed = fresh says none, communication
    included.  ``None`` where the first run lost a rank: the resumed
    world has it back, so the two are not the same run."""
    verdict: dict[str, list[str] | None] = {}
    for name, record in sorted(doc["scenarios"].items()):
        if "resumed" not in record:
            continue
        first, resumed = record["first"], record["resumed"]
        verdict[name] = None if first["failed_ranks"] else [
            k for k in sorted(first)
            if k not in _PER_PROCESS and first[k] != resumed[k]
        ]
    return verdict


def test_resumed_records_equal_first(golden):
    """Resumed = fresh in the fixture itself: results, every virtual
    time, op totals, comm seconds and the run report."""
    verdict = resumed_vs_first(golden)
    assert verdict["work-steal-fault-resume"] is None
    assert verdict["static-resume"] == verdict["work-steal-resume"] == []


def test_cross_mode_first_records_match(golden):
    """The fixture itself is cross-mode consistent: static and work-steal
    goldens agree on every mode-independent output."""
    st, ws = golden["scenarios"]["static"], golden["scenarios"]["work-steal"]
    for key in ("best_lnl", "best_newick", "support_newick",
                "bootstrap_newicks", "rng_fingerprint", "rank_lnls"):
        assert st["first"][key] == ws["first"][key], key


# ---------------------------------------------------------------------------
# The semantic golden differ
# ---------------------------------------------------------------------------

#: Intended moves of the current deliberate golden break, as
#: ``(path regex, why)``; a path is ``scenario.record.field...``.  Anything
#: that moves outside this list fails ``--diff``.  ``--check`` (CI) allows
#: nothing.  This list describes the removal of the two-tier
#: communication model: the comm account and the run report lose their
#: intra/inter-node split (0.0 everywhere under the flat model) and the
#: checkpoint format goes 3 -> 4; lnls, trees, ``rng_fingerprint``,
#: stage seconds, finish times, ``comm_seconds``, op totals, counters,
#: stage spans and ``trace_digest`` stay.  Edit it with the next
#: deliberate break, never to make an accident pass.
ALLOWED_MOVES: tuple[tuple[str, str], ...] = (
    (r"[^.]+\.(first|resumed)\.report\.comm_split\."
     r"(intra|inter)_(max|seconds\[\d+\])$",
     "the run report's comm_split block is gone (all 0.0 when flat)"),
    (r"[^.]+\.checkpoint_docs(_after_resume)?\.[\w-]+\.json\."
     r"(payload|stages\.(setup|bootstrap|fast|slow|thorough))\.comm\."
     r"(intra|inter)_seconds$",
     "stage documents' comm account has no intra/inter split (all 0.0 "
     "when flat)"),
    (r"[^.]+\.checkpoint_docs(_after_resume)?\.[\w-]+\.json\.format$",
     "checkpoint format 3 -> 4: the comm account lost two keys"),
    (r"[^.]+\.checkpoints(_after_resume)?\.[\w-]+\.json$",
     "checkpoint file bytes: format, fingerprint and comm account"),
    (r"[^.]+\.(first|resumed)\.metrics_digest$",
     "metrics documents: the report lost its comm_split block"),
)


def _flatten(doc, path: str = "") -> dict[str, object]:
    """``{dotted path: leaf}`` of a JSON document."""
    if isinstance(doc, dict) and doc:
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in doc.items())
    elif isinstance(doc, list) and doc:
        items = ((f"{path}[{i}]", v) for i, v in enumerate(doc))
    else:
        return {path: doc}
    flat: dict[str, object] = {}
    for sub, value in items:
        flat.update(_flatten(value, sub))
    return flat


def diff_captures(old: dict, new: dict, allowed=ALLOWED_MOVES) -> int:
    """Print every leaf that moved between two capture documents, old vs
    new, tagged with the allow-list rule that covers it; returns the
    number of moves no rule covers."""
    missing = object()
    a, b = _flatten(old["scenarios"]), _flatten(new["scenarios"])
    moved = [p for p in sorted(a.keys() | b.keys())
             if a.get(p, missing) != b.get(p, missing)]
    by_rule: Counter = Counter()
    outside = []
    for p in moved:
        why = next((w for rx, w in allowed if re.match(rx, p)), None)
        by_rule[why] += 1
        if why is None:
            outside.append(p)

    def show(v):
        text = "<absent>" if v is missing else json.dumps(v)
        return text if len(text) <= 60 else text[:57] + "..."

    for p in moved:
        tag = "  " if p not in outside else "!!"
        print(f"{tag} {p}: {show(a.get(p, missing))} -> {show(b.get(p, missing))}")
    print(f"\n{len(moved)} of {len(a.keys() | b.keys())} fields moved; "
          f"{len(outside)} outside the allow-list")
    for why, n in by_rule.most_common():
        print(f"  {n:5d}  {why or 'NOT ALLOWED'}")
    scenarios = sorted(new["scenarios"])
    clean = [s for s in scenarios if not any(p.startswith(s + ".") for p in moved)]
    print(f"scenarios without any move: {', '.join(clean) or 'none'}")
    unequal = 0
    for name, fields in resumed_vs_first(new).items():
        unequal += len(fields or ())
        print(f"{name}: resumed vs first (comm_seconds included): " + (
            "not comparable, the first run lost a rank" if fields is None
            else f"differ in {fields}" if fields else "equal"
        ))
    return len(outside) + unequal


def test_differ_separates_allowed_from_unintended_moves(capsys):
    """The differ reports each moved leaf old -> new and counts only the
    moves no allow-list rule covers."""
    def doc(seconds, lnl):
        return {"scenarios": {"work-steal": {"first": {
            "stage_seconds": {"bootstrap": seconds, "fast": 1.0},
            "best_lnl": lnl, "finish_times": [seconds + 1.0],
        }}}}

    allowed = (
        (r"work-steal\.first\.(stage_seconds\.bootstrap|finish_times\[\d+\])$",
         "the bootstrap window moved"),
    )
    assert diff_captures(doc(2.0, -5.0), doc(2.5, -5.0), allowed) == 0
    out = capsys.readouterr().out
    assert "work-steal.first.stage_seconds.bootstrap: 2.0 -> 2.5" in out
    assert "2 of 4 fields moved; 0 outside the allow-list" in out
    assert diff_captures(doc(2.0, -5.0), doc(2.5, -5.5), allowed) == 1
    assert "!! work-steal.first.best_lnl: -5.0 -> -5.5" in capsys.readouterr().out
    # --check allows nothing.
    assert diff_captures(doc(2.0, -5.0), doc(2.5, -5.0), allowed=()) == 2


def run_all() -> dict:  # pragma: no cover
    doc = {"scenarios": {}}
    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"  running scenario {name} ...", file=sys.stderr, flush=True)
            doc["scenarios"][name] = run_scenario(SCENARIOS[name], Path(tmp))
    return json.loads(json.dumps(doc))


def main(argv=None) -> int:  # pragma: no cover
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--capture", metavar="OUT",
                    help="write the capture to OUT instead of the fixture")
    ap.add_argument("--diff", nargs="+", metavar=("OLD", "NEW"),
                    help="field-by-field OLD vs NEW (default: a fresh run) "
                    "against ALLOWED_MOVES")
    ap.add_argument("--check", action="store_true",
                    help="fresh run vs the fixture; any move fails")
    args = ap.parse_args(argv)

    def load(path):
        return json.loads(Path(path).read_text(encoding="ascii"))

    if args.check:
        return int(diff_captures(load(GOLDEN_PATH), run_all(), allowed=()) > 0)
    if args.diff:
        new = load(args.diff[1]) if len(args.diff) > 1 else run_all()
        return int(diff_captures(load(args.diff[0]), new) > 0)
    out = Path(args.capture) if args.capture else GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(run_all(), indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

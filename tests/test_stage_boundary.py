"""The one stage boundary (``repro.runtime.backends._exec_stage``): both
backends restore a finished stage the same way, a resumed run reports
what the fresh run reported — communication included — and no backend
sequences a boundary of its own."""

import ast
import json
from pathlib import Path

import pytest

import repro.runtime.backends as backends
from repro.cli import main
from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi.faults import FaultPlan, KillSpec
from repro.sched.tasks import build_dag
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.schedule import make_schedule
from repro.search.searches import StageParams
from tests.conftest import assert_bit_identical

QUICK = StageParams(
    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
    thorough_max_rounds=2, brlen_passes=1,
)


@pytest.mark.parametrize("schedule", ["static", "work-steal"])
def test_fresh_and_resumed_reports_equal(schedule, tmp_path, capsys):
    """The info file of a checkpointed run equals its ``--resume``
    continuation: restored stages report their journalled seconds *and*
    ops, the comm account continues from the last restored boundary (the
    barrier a resumed run skips is still in its ``comm_seconds``), and
    the share fields are read off the same state.  (Work-steal's
    ``sched`` counters describe what this process scheduled, per run.)"""
    argv = [
        "--simulate", "6", "90", "-N", "4", "-np", "2", "-T", "1", "--quick",
        "--schedule", schedule, "--checkpoint-dir", str(tmp_path / "ck"),
        "-w", str(tmp_path), "-n", "run",
    ]
    info = tmp_path / "RAxML_info.run.json"
    assert main(argv) == 0
    fresh = info.read_bytes()
    assert main(argv + ["--resume"]) == 0
    capsys.readouterr()
    if schedule == "static":
        assert info.read_bytes() == fresh
    fresh, resumed = json.loads(fresh), json.loads(info.read_bytes())
    assert fresh["ranks"][0]["stage_pattern_ops"]["bootstrap"] > 0
    assert all(row["comm_seconds"] > 0.0 for row in fresh["ranks"])
    fresh.pop("sched"), resumed.pop("sched")
    assert resumed == fresh


def test_worksteal_resume_mid_fast_restores_stages_and_reruns_missing_tasks(
    tmp_path,
):
    """A work-steal run killed mid-``fast`` (rank 1's fast search and
    everything after it never journalled): the resume restores
    ``bootstrap`` as a stage — a ``resumed`` span, journalled seconds and
    ops — and re-runs only the missing tasks."""
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    kw = dict(
        n_processes=2, n_threads=1, schedule="work-steal",
        comprehensive=ComprehensiveConfig(
            n_bootstraps=4, cat_categories=3, stage_params=QUICK
        ),
        checkpoint_dir=str(tmp_path), collect_trace=True,
    )
    first = run_hybrid_analysis(pal, HybridConfig(**kw))
    # The journal is rewritten per completion, so a process killed
    # mid-fast leaves exactly this: no fast/slow/thorough stage document,
    # no task past rank 0's fast search.
    for path in tmp_path.glob("sched-rank*.json"):
        doc = json.loads(path.read_text())
        doc["stages"] = {s: d for s, d in doc["stages"].items()
                         if s in ("setup", "bootstrap")}
        doc["tasks"] = {t: r for t, r in doc["tasks"].items()
                        if t.startswith("bootstrap:") or t == "fast:0:0"}
        path.write_text(json.dumps(doc))

    resumed = run_hybrid_analysis(pal, HybridConfig(resume=True, **kw))
    assert_bit_identical(first, resumed)
    stats = resumed.sched["stage_stats"]
    assert "bootstrap" not in stats  # restored, never scheduled
    executed = {s: sum(d["executed"] for d in per.values())
                for s, per in stats.items()}
    assert executed == {"setup": 2, "fast": 1, "slow": 2, "thorough": 2}
    for rank, before in zip(resumed.ranks, first.ranks):
        assert rank.stage_seconds["bootstrap"] == before.stage_seconds["bootstrap"]
        assert rank.stage_ops["bootstrap"] == before.stage_ops["bootstrap"] > 0
    spans = {
        (e["pid"], e["name"]): e["args"]
        for e in resumed.trace["traceEvents"] if e.get("cat") == "stage"
    }
    for pid in (0, 1):
        assert spans[pid, "bootstrap"]["resumed"] is True
        assert "resumed" not in spans[pid, "fast"]


TASK_STAGES = ("bootstrap", "fast", "slow", "thorough")


def _worksteal_kw(tmp_path, **kw):
    return dict(
        n_threads=1, schedule="work-steal",
        comprehensive=ComprehensiveConfig(
            n_bootstraps=4, cat_categories=3, stage_params=QUICK
        ),
        checkpoint_dir=str(tmp_path), **kw,
    )


def test_worksteal_resume_after_rank_death_keeps_the_survivors_accounting(
    tmp_path,
):
    """Rank 1 died in ``bootstrap`` and noted no stage; rank 0 finished
    the run.  Any rank's note makes a stage restorable (its results are
    the journal union's): rank 0 restores its own seconds and ops, rank 1
    — no document of its own — only the stage-end clock, and nothing is
    scheduled again."""
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    kw = _worksteal_kw(tmp_path, n_processes=2)
    plan = FaultPlan(kills=(KillSpec(rank=1, replicate=1),))
    first = run_hybrid_analysis(pal, HybridConfig(fault_plan=plan, **kw))
    assert first.failed_ranks == [1]

    resumed = run_hybrid_analysis(pal, HybridConfig(resume=True, **kw))
    assert_bit_identical(first, resumed, ignore=("rank_lnls",))
    assert set(resumed.sched["stage_stats"]) == {"setup"}
    survivor, revived = resumed.ranks
    for stage in TASK_STAGES:
        assert survivor.stage_seconds[stage] == first.ranks[0].stage_seconds[stage]
        assert survivor.stage_ops[stage] == first.ranks[0].stage_ops[stage] > 0
        assert revived.stage_seconds[stage] == 0.0 and revived.stage_ops[stage] == 0
    assert revived.finish_time == survivor.finish_time
    assert resumed.stage_seconds["thorough"] == first.stage_seconds["thorough"]


def test_worksteal_noted_stages_are_complete_under_deaths(tmp_path):
    """A journal notes a stage only after the stage's pool drained, and
    recovery never drops a task: under deaths too, every task of every
    noted stage is in the journal union, so a resume restores them all
    and reproduces the fault-free run."""
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    kw = _worksteal_kw(tmp_path, n_processes=3)
    baseline = run_hybrid_analysis(
        pal, HybridConfig(**{**kw, "checkpoint_dir": None})
    )
    plan = FaultPlan(kills=(KillSpec(rank=2, stage="fast"),
                            KillSpec(rank=1, stage="slow")))
    first = run_hybrid_analysis(pal, HybridConfig(fault_plan=plan, **kw))
    assert sorted(first.failed_ranks) == [1, 2]

    cc = kw["comprehensive"]
    dag = build_dag(make_schedule(cc.n_bootstraps, 3), cc, 3)
    docs = [json.loads(p.read_text())
            for p in sorted(tmp_path.glob("sched-rank*.json"))]
    assert len(docs) == 3
    union = set().union(*(doc["tasks"] for doc in docs))
    noted = set()
    for doc in docs:
        for stage in set(doc["stages"]) - {"setup"}:
            assert {t.id for t in dag[stage]} <= union, (doc["rank"], stage)
            noted.add(stage)
    assert noted == set(TASK_STAGES)

    resumed = run_hybrid_analysis(pal, HybridConfig(resume=True, **kw))
    assert_bit_identical(baseline, resumed)


def test_worksteal_keeps_the_papers_barriers():
    """The paper's program has one noteworthy barrier, after the
    bootstrap stage.  A fault-free work-steal run issues exactly the
    static run's barriers on every rank, as each rank's
    ``comm.calls.barrier`` metric counts them (the ranks may run in
    other processes, so the count travels in the report)."""
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    calls: dict[str, dict[int, int]] = {}
    for schedule in ("static", "work-steal"):
        result = run_hybrid_analysis(pal, HybridConfig(
            n_processes=2, n_threads=1, schedule=schedule, collect_metrics=True,
            comprehensive=ComprehensiveConfig(
                n_bootstraps=4, cat_categories=3, stage_params=QUICK
            ),
        ))
        calls[schedule] = {
            int(rank): doc["counters"].get("comm.calls.barrier", 0)
            for rank, doc in result.metrics["per_rank"].items()
        }
    assert calls["work-steal"] == calls["static"] == {0: 1, 1: 1}


def test_boundary_calls_only_in_exec_stage():
    """``WorkStealBackend.run`` (or any backend) no longer sequences a
    boundary: the four boundary calls occur in ``_exec_stage`` only."""
    boundary = {
        ("ctx", "kill_at_stage"), ("ctx", "begin_stage"),
        ("ctx", "end_stage"), ("comm", "barrier"),
    }
    tree = ast.parse(Path(backends.__file__).read_text(encoding="utf-8"))
    found: dict[tuple, set] = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and scope is None:
            scope = getattr(node, "name", None)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in boundary
        ):
            found.setdefault((node.value.id, node.attr), set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                visit(item, None)
        else:
            visit(top, None)
    assert found == {call: {"_exec_stage"} for call in boundary}

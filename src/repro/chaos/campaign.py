"""The deterministic chaos campaign: sweep seeded fault plans, assert
the runtime's three resilience invariants, emit ``BENCH_chaos.json``.

Every scenario runs the pinned toy comprehensive analysis (the same one
the golden parity suite pins) under a generated
:class:`~repro.chaos.plans.ScenarioSpec` and checks:

1. **No hang** — the run completes under the simulated world's own
   deadlines (a wedged collective is detected by peers' virtual-clock
   suspicion, never by the test watching a wall clock).
2. **Determinism** — whenever recovery succeeds, the result is
   bit-identical to the fault-free baseline: best lnL, best tree, and
   the bootstrap multiset.  Static recovery replays a dead rank's whole
   original share and never re-partitions the survivors' streams, so
   this holds for kills at any stage, replicate or collective index.  A
   sample of scenarios is additionally run twice to confirm the fault
   path itself is replayable bit-for-bit, timings included.
3. **Checkpoint → resume equivalence** — a sample of scenarios runs
   checkpointed and is then resumed with no fault plan (its faults
   already happened); the resumed run must reproduce the fault-free
   baseline.

The campaign is a pure function of ``(seed, n_scenarios)``: the report
names every scenario's plan, so any violation can be replayed in
isolation with :func:`replay_scenario`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.chaos.plans import ScenarioSpec, generate_scenario
from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi.policy import TimeoutPolicy
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams

#: Both execution backends are swept, alternately.
SCHEDULES = ("static", "work-steal")

#: World sizes swept (alternately, per schedule).
WORLD_SIZES = (2, 3)

#: Scenario indices divisible by this run the checkpoint→resume check.
RESUME_EVERY = 3

#: Scenario indices divisible by this are run twice (replay determinism).
REPEAT_EVERY = 25

#: Snappy suspicion deadline (harness seconds a peer's virtual clock may
#: stand still): a computing rank's clock moves with every likelihood
#: op, so 2.0 never falsely suspects a live rank but converts a hung one
#: into a death quickly.  The one deadline besides the default that any
#: run sets.
CHAOS_TIMEOUTS = TimeoutPolicy(collective_seconds=2.0, world_seconds=600.0)

#: The pinned toy analysis (same dataset family as the parity goldens).
DATASET = {"n_taxa": 6, "n_sites": 60, "seed": 301}
QUICK = StageParams(bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
                    thorough_max_rounds=2, brlen_passes=1)


def _make_inputs():
    pal, _ = make_test_dataset(**DATASET)
    cc = ComprehensiveConfig(n_bootstraps=4, cat_categories=3,
                             stage_params=QUICK)
    return pal, cc


def _capture(result) -> dict:
    """The fields equality with the fault-free baseline is asserted
    over: :meth:`HybridResult.identity`'s results view, minus the
    per-rank list (a dead rank files no report)."""
    doc = result.identity()
    del doc["rank_lnls"]
    return doc


def _run(pal, cc, spec: ScenarioSpec, *, checkpoint_dir=None, resume=False):
    """Run ``spec``'s analysis; a ``resume`` continuation runs with no
    fault plan (the faults already happened)."""
    config = HybridConfig(
        n_processes=spec.n_processes,
        n_threads=1,
        comprehensive=cc,
        schedule=spec.schedule,
        fault_plan=None if resume else spec.plan,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        timeout_policy=CHAOS_TIMEOUTS,
    )
    return run_hybrid_analysis(pal, config)


def _differences(result, baseline: dict) -> list[str]:
    """What a recoverable run got wrong: the captured fields that differ
    from the fault-free baseline."""
    got = _capture(result)
    return [f"{key} differs from baseline"
            for key, want in baseline.items() if got[key] != want]


def _check(pal, cc, spec: ScenarioSpec, check: str, expect, *,
           ckpt: Path | None = None, repeat: bool = False) -> dict:
    """The one run → compare → resume routine behind every record.

    Runs ``spec`` (checkpointed into ``ckpt`` when given) and records
    what ``expect(result)`` finds wrong with it, or the crash — a hang
    surfaces as one, through the world's own deadlines.  ``repeat``
    re-runs the same plan, which must reproduce the first run timings
    included.  A checkpointed run that passed is then resumed with no
    fault plan, and ``expect`` judges the resumed run too.  Returns the
    scenario's record with its ``violations`` list.
    """
    record = spec.as_doc()
    record["checks"] = [check]
    violations: list[str] = []
    t0 = time.perf_counter()

    def attempt(label: str, **kw):
        try:
            result = _run(pal, cc, spec, **kw)
        except BaseException as exc:  # RankKilledError is a BaseException
            violations.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        violations.extend(f"{label}: {v}" for v in expect(result))
        return result

    ckdir = None if ckpt is None else str(ckpt)
    result = attempt(check, checkpoint_dir=ckdir)
    if repeat and not violations:
        record["checks"].append("replay")
        # Config-identical re-run: checkpointing shifts collective call
        # indices (the resume negotiation is itself a collective), so a
        # checkpointed first run is only comparable to a checkpointed
        # replay (into its own directory).
        again = attempt(check, checkpoint_dir=ckdir and ckdir + "-replay")
        # Replay determinism is the strongest check: timings included.
        if again is not None and (
            again.identity(timings=True) != result.identity(timings=True)
        ):
            violations.append(f"{check}: replaying the same plan diverged")
    if ckdir is not None and not violations:
        record["checks"].append("resume")
        # A resumed continuation is fault-free (the faults already
        # happened), so it must reproduce the fault-free baseline.
        attempt(f"{check} resume", checkpoint_dir=ckdir, resume=True)
    record["violations"] = violations
    record["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    return record


def run_scenario(pal, cc, spec: ScenarioSpec, baseline: dict,
                 workdir: Path | None) -> dict:
    """Run one scenario; returns its record (with a ``violations`` list)."""
    ckpt = None
    if workdir is not None and spec.index % RESUME_EVERY == 0:
        ckpt = workdir / f"ckpt-{spec.schedule}-{spec.index}"
    return _check(pal, cc, spec, "equality-full",
                  lambda result: _differences(result, baseline),
                  ckpt=ckpt, repeat=spec.index % REPEAT_EVERY == 0)


def run_targeted_death_probes(pal, cc, workdir: Path | None = None) -> list[dict]:
    """Fixed deaths in a p=4 world, beside the generated scenarios.

    Each probe kills rank 0 at collective call 1, rank 2 at the ``fast``
    stage boundary, or both at collective calls 1 and 2, under both
    schedules; the survivors must reproduce the fault-free baseline bit
    for bit.  The two-death probe additionally runs checkpointed and
    resumed when ``workdir`` is given.
    """
    from repro.mpi.faults import FaultPlan, KillSpec

    base_spec = ScenarioSpec(index=-1, schedule="static", n_processes=4,
                             plan=None, equality="baseline", deaths=())
    baseline = _capture(_run(pal, cc, base_spec))
    plans = {
        "rank0-collective": FaultPlan(
            kills=(KillSpec(rank=0, collective=1),)),
        "rank2-stage": FaultPlan(
            kills=(KillSpec(rank=2, stage="fast"),)),
        "ranks02-collective": FaultPlan(
            kills=(KillSpec(rank=0, collective=1),
                   KillSpec(rank=2, collective=2))),
    }
    probes = []
    for schedule in SCHEDULES:
        for name, plan in plans.items():
            spec = ScenarioSpec(
                index=-2, schedule=schedule, n_processes=4, plan=plan,
                equality="targeted-death",
                deaths=tuple(sorted(k.rank for k in plan.kills)),
            )
            ckpt = None
            if workdir is not None and name == "ranks02-collective":
                ckpt = Path(workdir) / f"ckpt-targeted-{schedule}"
            record = _check(pal, cc, spec, "targeted-death",
                            lambda result: _differences(result, baseline),
                            ckpt=ckpt)
            record["probe"] = name
            probes.append(record)
    return probes


def run_campaign(n_scenarios: int = 200, seed: int = 20260808,
                 out: str | Path | None = None,
                 workdir: str | Path | None = None,
                 progress=None) -> dict:
    """Run the full campaign and return (and optionally write) its report.

    ``n_scenarios`` counts generated fault scenarios; the targeted-death
    probes and the cached fault-free baselines ride on top.
    ``workdir`` holds the checkpoint directories of the resume checks (a
    temporary directory when None).  ``progress`` is an optional callable
    invoked with each finished scenario record.
    """
    import tempfile

    t0 = time.perf_counter()
    pal, cc = _make_inputs()

    baselines: dict[tuple[str, int], dict] = {}
    records: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(workdir) if workdir is not None else Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        for i in range(n_scenarios):
            schedule = SCHEDULES[i % len(SCHEDULES)]
            p = WORLD_SIZES[(i // len(SCHEDULES)) % len(WORLD_SIZES)]
            key = (schedule, p)
            if key not in baselines:
                base_spec = ScenarioSpec(
                    index=-1, schedule=schedule, n_processes=p,
                    plan=None, equality="baseline", deaths=(),
                )
                baselines[key] = _capture(_run(pal, cc, base_spec))
            spec = generate_scenario(i, seed, schedule, p)
            record = run_scenario(pal, cc, spec, baselines[key], root)
            records.append(record)
            if progress is not None:
                progress(record)
        records.extend(run_targeted_death_probes(pal, cc, workdir=root))

    violations = [
        {"index": r["index"], "schedule": r["schedule"], "violations": v}
        for r in records if (v := r["violations"])
    ]
    checks = sorted({c for r in records for c in r["checks"]})
    report = {
        "campaign": "repro.chaos",
        "seed": seed,
        "n_scenarios": n_scenarios,
        "n_records": len(records),
        "n_violations": len(violations),
        "violations": violations,
        "counts": {
            "by_schedule": {
                s: sum(1 for r in records if r["schedule"] == s)
                for s in SCHEDULES
            },
            "by_equality": {
                e: sum(1 for r in records if r["equality"] == e)
                for e in sorted({r["equality"] for r in records})
            },
            "by_check": {
                c: sum(1 for r in records if c in r["checks"]) for c in checks
            },
        },
        "timeout_policy": {
            "collective_seconds": CHAOS_TIMEOUTS.collective_seconds,
            "world_seconds": CHAOS_TIMEOUTS.world_seconds,
        },
        "dataset": dict(DATASET),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "scenarios": records,
    }
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                       encoding="ascii")
    return report


def replay_scenario(index: int, seed: int, schedule: str,
                    n_processes: int) -> dict:
    """Re-run one scenario from a campaign report, in isolation."""
    pal, cc = _make_inputs()
    base_spec = ScenarioSpec(index=-1, schedule=schedule,
                             n_processes=n_processes, plan=None,
                             equality="baseline", deaths=())
    baseline = _capture(_run(pal, cc, base_spec))
    spec = generate_scenario(index, seed, schedule, n_processes)
    return run_scenario(pal, cc, spec, baseline, None)

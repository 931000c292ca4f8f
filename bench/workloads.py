"""The benchmark's workloads: the table, the input, one analysis, its facts.

Imports ``repro``; run.py never imports this module directly (it must
start without the package on the path), the worker and the self-test do.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.obs.trace import validate_trace_file
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.seq.io_phylip import write_phylip
from repro.seq.patterns import compress_alignment
from repro.tree.newick import parse_newick

#: What the CLI's ``--quick`` sets; the in-process workloads pass the same.
QUICK = StageParams(slow_max_rounds=2, thorough_max_rounds=3)
SEARCH_SEED = 12345  # -p and -x


@dataclass(frozen=True)
class Workload:
    name: str
    n_taxa: int
    n_sites: int
    n_bootstraps: int
    quick: bool
    n_processes: int
    n_threads: int
    kernel: str
    #: Timed repetitions of one run.  Fixed, so that a run's median is
    #: always over the same number of samples.
    reps: int
    schedule: str = "static"
    clv_cache: bool = False
    #: Run through ``python -m repro.cli`` (fresh interpreter per analysis,
    #: checkpoints, trace and metrics on) instead of the library call.
    cli: bool = False


# Why each was chosen is in BENCHMARK.json and README.md.  Taxa (and for the
# two multi-rank workloads N) are what fits ``reps`` analyses and five
# set-ups into the ~30 s the driver leaves per run: the issue's 12 x 40,000
# and 10 x 300 shapes take 17-30 s per analysis on this box whatever N is.
WORKLOADS = {w.name: w for w in (
    Workload(
        "small_1x4", n_taxa=12, n_sites=400, n_bootstraps=2, quick=False,
        n_processes=1, n_threads=4, kernel="batched", reps=3,
    ),
    Workload(
        "wide_1x1", n_taxa=8, n_sites=40000, n_bootstraps=2, quick=True,
        n_processes=1, n_threads=1, kernel="batched", reps=3, clv_cache=True,
    ),
    Workload(
        "ranks_4x2_steal", n_taxa=6, n_sites=300, n_bootstraps=8, quick=True,
        n_processes=4, n_threads=2, kernel="batched", reps=3,
        schedule="work-steal",
    ),
    Workload(
        "cli_default_2x2", n_taxa=6, n_sites=300, n_bootstraps=4, quick=True,
        n_processes=2, n_threads=2, kernel="reference", reps=3, cli=True,
    ),
)}

#: Self-test shape; also the fixed warm-up shape of every set-up.
SMOKE = Workload(
    "smoke", n_taxa=6, n_sites=60, n_bootstraps=2, quick=True,
    n_processes=1, n_threads=1, kernel="batched", reps=3,
)
#: ``simulate_alignment`` seed of the warm-up input (it is not measured).
WARMUP_SEED = 4242


def by_name(name: str) -> Workload:
    return SMOKE if name == SMOKE.name else WORKLOADS[name]


def warmup_of(w: Workload) -> Workload:
    """The smoke shape under ``w``'s kernel, schedule and thread count, on
    one rank: every rank repeats the whole pipeline, so four of them make
    the warm-up cost as much as the analysis it warms up for."""
    return dataclasses.replace(
        w, n_taxa=SMOKE.n_taxa, n_sites=SMOKE.n_sites,
        n_bootstraps=SMOKE.n_bootstraps, quick=True, n_processes=1, cli=False,
    )


def hybrid_config(w: Workload) -> HybridConfig:
    return HybridConfig(
        n_processes=w.n_processes,
        n_threads=w.n_threads,
        comprehensive=ComprehensiveConfig(
            n_bootstraps=w.n_bootstraps, seed_p=SEARCH_SEED, seed_x=SEARCH_SEED,
            stage_params=QUICK if w.quick else StageParams(),
        ),
        kernel=w.kernel,
        schedule=w.schedule,
        clv_cache=w.clv_cache,
    )


def cli_argv(w: Workload, phylip: str, resume: bool = False) -> list[str]:
    """Arguments of ``python -m repro.cli`` for one analysis in the cwd."""
    argv = [
        "-s", phylip, "-m", "GTRCAT", "-N", str(w.n_bootstraps),
        "-p", str(SEARCH_SEED), "-x", str(SEARCH_SEED), "-f", "a",
        "-np", str(w.n_processes), "-T", str(w.n_threads),
        "--checkpoint-dir", "ck", "--trace", "t.json",
        "--metrics-out", "m.json", "-w", "out", "-n", "b",
    ]
    if w.quick:
        argv.append("--quick")
    if resume:
        argv.append("--resume")
    return argv


def pattern_digest(pal) -> str:
    """Content hash of the compressed patterns and their weights."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pal.patterns).tobytes())
    h.update(np.ascontiguousarray(pal.weights).tobytes())
    return h.hexdigest()


# -- one analysis ------------------------------------------------------------

@dataclass
class Prepared:
    """A workload's input, ready to analyse any number of times."""

    workload: Workload
    seed: int
    pal: object
    workdir: Path  # scratch space inside the checkout
    phylip: Path | None = None  # CLI workloads only
    runs: int = 0

    def fresh_dir(self) -> Path:
        self.runs += 1
        d = self.workdir / f"run{self.runs}"
        d.mkdir(parents=True)
        return d


def prepare(w: Workload, seed: int, workdir: Path) -> Prepared:
    """``seed`` is the ``simulate_alignment`` seed; the program receives only
    the alignment (compressed, or as a PHYLIP file for the CLI workload)."""
    aln, _ = simulate_alignment(
        SimulationParams(n_taxa=w.n_taxa, n_sites=w.n_sites, seed=seed)
    )
    prep = Prepared(w, seed, compress_alignment(aln), workdir)
    if w.cli:
        workdir.mkdir(parents=True, exist_ok=True)
        prep.phylip = workdir / "data.phy"
        write_phylip(aln, prep.phylip)
    return prep


def facts_of(report: dict) -> dict:
    """From a run report (``HybridResult.to_report()`` / the CLI's info
    file): ``facts`` gate a repetition, ``sim`` (virtual-clock statistics
    and logical op totals) is only flagged, ``layer`` feeds per-layer counts."""
    ranks = report["ranks"]
    stage_ops: dict[str, int] = {}
    for row in ranks:
        for stage, ops in row["stage_pattern_ops"].items():
            stage_ops[stage] = stage_ops.get(stage, 0) + ops
    sched = report.get("sched") or {}
    return {
        "facts": {
            "best_lnl": report["best_lnl"],
            "best_tree": report["best_tree"],
            "rng_fingerprint": report["rng_fingerprint"],
            "n_bootstraps_done": report["n_bootstraps_done"],
            "shares": {
                k: report["schedule"][k]
                for k in ("bootstraps_per_process", "fast_per_process",
                          "slow_per_process")
            },
            "rank_searches": [
                [r["n_bootstraps"], r["n_fast"], r["n_slow"]] for r in ranks
            ],
        },
        "sim": {
            "total_seconds": report["total_seconds"],
            "stage_seconds": report["stage_seconds"],
            "stage_ops": stage_ops,
            "pattern_ops": sum(stage_ops.values()),
        },
        "layer": {
            "sched.tasks": sum(
                d.get("executed", 0)
                for per in sched.get("stage_stats", {}).values()
                for d in per.values()
            ),
            "sched.steal_attempts": sched.get("steal_attempts", 0),
            "sched.steal_grants": sched.get("steal_grants", 0),
        },
    }


def run_library(prep: Prepared) -> dict:
    """One analysis through ``run_hybrid_analysis``; the call is the timed region."""
    config = hybrid_config(prep.workload)
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = run_hybrid_analysis(prep.pal, config)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, **facts_of(result.to_report())}


def _check_cli_outputs(rundir: Path, prep: Prepared) -> tuple[dict, dict]:
    """Every output file exists and parses; returns the run report and what
    the files say about the obs and checkpoint layers."""
    out = rundir / "out"
    report = json.loads((out / "RAxML_info.b.json").read_text(encoding="ascii"))
    for name in ("RAxML_bestTree.b.nwk", "RAxML_bipartitions.b.nwk"):
        parse_newick((out / name).read_text(encoding="ascii"), taxa=prep.pal.taxa)
    events = validate_trace_file(rundir / "t.json")
    metrics = json.loads((rundir / "m.json").read_text(encoding="ascii"))
    if not {"per_rank", "aggregate", "report"} <= metrics.keys():
        raise ValueError("metrics file lacks per_rank/aggregate/report")
    checkpoints = list((rundir / "ck").rglob("*.json"))
    if not checkpoints:
        raise ValueError("no checkpoint was written")
    return report, {
        "obs.events": events["spans"] + events["instants"],
        "hybrid.checkpoint.bytes": sum(p.stat().st_size for p in checkpoints),
    }


def _cli_subprocess(argv: list[str], rundir: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], cwd=rundir,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"repro.cli exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall


def resume_cli(prep: Prepared, rundir: Path) -> float:
    """``--resume`` over a finished run: wall seconds; the info file must
    come out byte-identical (static-schedule resume promises exactly that)."""
    info = rundir / "out" / "RAxML_info.b.json"
    before = info.read_bytes()
    wall = _cli_subprocess(cli_argv(prep.workload, str(prep.phylip), resume=True), rundir)
    if info.read_bytes() != before:
        raise ValueError("--resume changed RAxML_info.b.json")
    return wall


def run_cli(prep: Prepared, in_process: bool = False, resume: bool = True) -> dict:
    """One fresh command-line analysis in a new directory, then (``resume``)
    the same command with ``--resume``.

    ``wall_s`` is the fresh subprocess, interpreter start to exit.
    ``in_process`` calls ``repro.cli.main`` here instead, so that a tracer
    installed in this interpreter sees it.
    """
    rundir = prep.fresh_dir()
    argv = cli_argv(prep.workload, str(prep.phylip))
    if in_process:
        import os

        import repro.cli

        cwd = os.getcwd()
        os.chdir(rundir)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = repro.cli.main(argv)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"repro.cli.main returned {code}")
    else:
        import resource

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = _cli_subprocess(argv, rundir)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    report, counted = _check_cli_outputs(rundir, prep)
    rep = {"wall_s": wall, "cpu_s": cpu, **facts_of(report)}
    rep["layer"].update(counted)
    if resume:
        rep["resume_s"] = resume_cli(prep, rundir)
    return rep


def run_once(prep: Prepared, in_process: bool = False, resume: bool = True) -> dict:
    """One analysis of the prepared workload; ``in_process`` and ``resume``
    only matter to the command-line workload."""
    if prep.workload.cli:
        return run_cli(prep, in_process, resume)
    return run_library(prep)

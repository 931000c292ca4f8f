"""Rank-world microbenchmark: consecutive in-process multi-rank analyses.

Recorded to ``output/BENCH_runtime.json``.  One fresh interpreter runs
the wall-clock benchmark's multi-rank shape (6 taxa x 300 sites, N = 8,
4 ranks x 2 threads, work-steal, batched kernel, BLAS pinned to one
thread) :data:`REPS` times in a row, ``gc.collect()`` between, and
records per repetition wall, user and system seconds of the process
(``RUSAGE_SELF``) and of its reaped children (``RUSAGE_CHILDREN``: the
forked rank processes), and the voluntary / involuntary context
switches of both together.  ``run_hybrid_analysis`` runs each rank in
a forked child, so the launcher's own CPU is only its hub threads; the
rank work is the children's.

Why consecutive repetitions: with free-running rank threads (before the
ranks were processes, :data:`PARENT_ROWS`) the *first* analysis of a
process was the cheap one and every later one paid ~1.6x the wall time
and ~2x the context switches — four threads handing the interpreter
lock across two cores at every ~87-pattern NumPy call — while the same
process pinned to one CPU ran every repetition at the one-core cost.
With rank processes the first repetition is often the slow one on a
shared two-core host: its ranks do not all get the second core at once
(EXPERIMENTS.md, "Real ranks"), so the full leg's first-against-later
claim fails there.

* **Smoke leg** (always; CI's ``test`` job): :data:`SMOKE_REPS`
  repetitions, records, and asserts what holds on any host — identical
  results across repetitions.
* **Full leg** (``REPRO_BENCH_FULL=1``, a quiet host): :data:`REPS`
  repetitions plus the one-CPU control, and the two claims — first and
  later repetitions within 15 %, voluntary context switches per analysis
  at least 10x below the parent's.

Run as a script it prints the measurement of whatever ``repro`` is on
the path, which is how :data:`PARENT_ROWS` was taken
(``PYTHONPATH=<parent>/src python benchmarks/test_runtime_microbench.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPS = 5
SMOKE_REPS = 2
SHAPE = {"n_taxa": 6, "n_sites": 300, "seed": 4242, "n_bootstraps": 8,
         "n_processes": 4, "n_threads": 2, "schedule": "work-steal"}
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The parent commit (c143faf, free-running rank threads) measured with
#: this script on the 2-CPU host of ISSUE 22, the same day as ``change``
#: in the committed BENCH_runtime.json: per repetition (wall s, user s,
#: sys s, voluntary, involuntary context switches), on both CPUs and
#: pinned to one.
PARENT_ROWS = {
    "parent": [
        (2.835, 2.408, 0.648, 62740, 9462),
        (4.173, 3.298, 1.367, 131662, 21574),
        (4.528, 3.443, 1.586, 136944, 22369),
        (4.456, 3.428, 1.551, 136128, 21758),
        (4.451, 3.447, 1.521, 138769, 22783),
    ],
    "parent_one_cpu": [
        (1.879, 1.871, 0.000, 1604, 1342),
        (1.841, 1.824, 0.008, 1563, 1280),
        (1.574, 1.563, 0.004, 1320, 1083),
        (1.584, 1.578, 0.000, 1354, 1128),
        (1.886, 1.878, 0.000, 1610, 1367),
    ],
}
ROW_KEYS = ("wall_s", "user_s", "sys_s", "nvcsw", "nivcsw")


def _usage() -> tuple:
    """User and system seconds of this process and of its reaped
    children, and the context switches of both together."""
    u = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (u.ru_utime, u.ru_stime, c.ru_utime, c.ru_stime,
            u.ru_nvcsw + c.ru_nvcsw, u.ru_nivcsw + c.ru_nivcsw)


def measure(reps: int) -> dict:
    """``reps`` consecutive analyses of :data:`SHAPE` in this process."""
    from repro.datasets.generator import SimulationParams, simulate_alignment
    from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
    from repro.search.comprehensive import ComprehensiveConfig
    from repro.search.searches import StageParams
    from repro.seq.patterns import compress_alignment

    def config(n_processes, n_bootstraps):
        return HybridConfig(
            n_processes=n_processes, n_threads=SHAPE["n_threads"],
            schedule=SHAPE["schedule"],
            comprehensive=ComprehensiveConfig(
                n_bootstraps=n_bootstraps, seed_p=12345, seed_x=12345,
                stage_params=StageParams(slow_max_rounds=2, thorough_max_rounds=3),
            ),
        )

    def pal_of(n_taxa, n_sites, seed):
        aln, _ = simulate_alignment(
            SimulationParams(n_taxa=n_taxa, n_sites=n_sites, seed=seed)
        )
        return compress_alignment(aln)

    def repetition() -> tuple[dict, dict]:
        gc.collect()
        before, t0 = _usage(), time.perf_counter()
        result = run_hybrid_analysis(pal, cfg)
        wall, after = time.perf_counter() - t0, _usage()
        self_user, self_sys, child_user, child_sys, nvcsw, nivcsw = (
            a - b for a, b in zip(after, before)
        )
        return {
            "wall_s": wall, "user_s": self_user, "sys_s": self_sys,
            "child_user_s": child_user, "child_sys_s": child_sys,
            "nvcsw": nvcsw, "nivcsw": nivcsw,
        }, result.identity(timings=True)

    # Warm-up as bench/worker.py does it: the smoke shape on one rank.
    run_hybrid_analysis(pal_of(6, 60, 4242), config(1, 2))
    pal = pal_of(SHAPE["n_taxa"], SHAPE["n_sites"], SHAPE["seed"])
    cfg = config(SHAPE["n_processes"], SHAPE["n_bootstraps"])
    rows, identities = [], []
    for _ in range(reps):
        row, identity = repetition()
        rows.append(row)
        identities.append(identity)
    return {
        "cpus": sorted(os.sched_getaffinity(0)),
        "reps": rows,
        "identical": all(i == identities[0] for i in identities),
        "best_lnl": identities[0]["best_lnl"],
    }


def summary(record: dict) -> dict:
    """First against later repetitions, the numbers the claims read."""
    rows = record["reps"]
    first = rows[0]["wall_s"]
    later = statistics.median(r["wall_s"] for r in rows[1:])
    return {
        "first_wall_s": first,
        "later_wall_s_median": later,
        "later_over_first": later / first,
        "nvcsw_median": statistics.median(r["nvcsw"] for r in rows),
    }


def in_fresh_interpreter(reps: int, one_cpu: bool = False) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, **{name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    argv = [sys.executable, __file__, "--reps", str(reps)]
    if one_cpu:
        argv.append("--one-cpu")
    proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_microbench(benchmark, emit):
    from conftest import OUTPUT_DIR

    from repro.util.tables import format_table

    full = os.environ.get("REPRO_BENCH_FULL") == "1"
    out_path = OUTPUT_DIR / "BENCH_runtime.json"
    try:
        doc = json.loads(out_path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        doc = {}
    doc.update(shape=SHAPE, pinned=list(PINNED))
    for name, rows in PARENT_ROWS.items():
        reps = [dict(zip(ROW_KEYS, row)) for row in rows]
        doc[name] = {"reps": reps, "summary": summary({"reps": reps})}
    record = benchmark.pedantic(
        in_fresh_interpreter, args=(REPS if full else SMOKE_REPS,),
        rounds=1, iterations=1,
    )
    # Smoke mode refreshes only its own section: the full record is taken
    # on a quiet host and must survive intervening smoke runs.
    doc["change" if full else "smoke"] = {**record, "summary": summary(record)}
    if full:
        control = in_fresh_interpreter(REPS, one_cpu=True)
        doc["change_one_cpu"] = {**control, "summary": summary(control)}
    OUTPUT_DIR.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")

    # -- what holds on any host ---------------------------------------------
    assert record["identical"], "repetitions disagree on identity(timings=True)"

    # -- the claims, on a quiet host ------------------------------------------
    if full:
        s = doc["change"]["summary"]
        assert abs(s["later_over_first"] - 1.0) < 0.15, s
        assert s["nvcsw_median"] * 10 <= doc["parent"]["summary"]["nvcsw_median"], s

    sections = [k for k in ("parent", "parent_one_cpu", "change",
                            "change_one_cpu", "smoke") if doc.get(k)]
    emit(
        "runtime_microbench",
        format_table(
            ["Run", "Rep", "wall s", "user s", "sys s", "child user s",
             "child sys s", "nvcsw", "nivcsw"],
            [
                [name, rep, r["wall_s"], r["user_s"], r["sys_s"],
                 r.get("child_user_s", 0.0), r.get("child_sys_s", 0.0),
                 r["nvcsw"], r["nivcsw"]]
                for name in sections
                for rep, r in enumerate(doc[name]["reps"], 1)
            ],
            formats=[None, None, ".2f", ".2f", ".2f", ".2f", ".2f", None,
                     None],
            title="RANK WORLDS: consecutive in-process 4x2 analyses "
                  "(6 x 300, N = 8, work-steal), ranks in processes",
        ),
    )


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=REPS)
    ap.add_argument("--one-cpu", action="store_true",
                    help="pin the process to one CPU first (the control)")
    args = ap.parse_args()
    if args.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(measure(args.reps)))

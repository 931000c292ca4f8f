#!/usr/bin/env python3
"""End-to-end and per-layer wall-clock benchmark of the comprehensive analysis.

    python3 bench/run.py [--workload W] [--seed S] [--traced] [--agree] [--pin]
    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

The first form prints every metric by name with its unit, checks every
result against ``goldens.json`` and exits non-zero on any failure.  The
second is the form ``BENCHMARK.json`` names: it ends with one JSON object on
the last line of standard output.  See README.md beside this file.

``--seed`` is the ``simulate_alignment`` seed of the input.  Results are
checked against goldens, so a seed that has none runs the pinned seed
``pinned[seed % len(pinned)]`` of the workload instead, and says so.

Each workload runs in fresh subprocesses of ``worker.py``, one after
another, with BLAS pinned to one thread.  This file imports neither
``repro`` nor the workloads, so it can say what is missing when they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDENS = BENCH / "goldens.json"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))

#: Unpinned, BLAS uses both cores on the wide shape and the number measures
#: the scheduler (63 s wall / 116 s CPU on 12 x 40,000).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
DEFAULT_SEED = 4242
#: Fresh interpreter starts behind ``setup_s`` (the measuring one included).
SETUP_SAMPLES = 5
#: The bounds of the issue that defined this benchmark.  BENCHMARK.json
#: carries wider ones (README.md, "Bounds"); ``--agree`` reports both.
ISSUE_BOUNDS = {"wall_s": 0.10, "pattern_mops_per_s": 0.10, "setup_s": 0.15,
                "peak_rss_mb": 0.10}
#: A repetition slower than this many pinned medians counts as failed.
SLOW_FACTOR = 10.0
#: A worker that has not finished by then is wedged (ranks are threads that
#: wait on each other); the whole run has to end within three minutes.
WORKER_TIMEOUT_S = 150

E2E = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}


# -- environment ---------------------------------------------------------------

def blas_name() -> str:
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": load,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name(),
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
        "git_commit": git_commit(),
        "seed": seed,
    }


def print_environment(env: dict) -> None:
    print("== environment ==")
    for key, value in env.items():
        print(f"  {key}: {value}")
    if env["loadavg_at_start"][0] > env["nproc"] - 1:
        print(f"  WARNING: 1-minute load {env['loadavg_at_start'][0]} exceeds "
              f"nproc - 1 = {env['nproc'] - 1}; timings will be noisy")


# -- running workers -----------------------------------------------------------

def worker(mode: str, workload: str, seed: int) -> dict:
    """Run worker.py to completion in a scratch directory of its own."""
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS / "tmp"))
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
             "--workload", workload, "--seed", str(seed),
             "--workdir", str(workdir)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"worker {mode} {workload} killed after {WORKER_TIMEOUT_S} s"
        ) from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker {mode} {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- goldens ---------------------------------------------------------------------

def load_goldens() -> dict:
    """``{workload: {simulate_alignment seed: golden}}``."""
    if not GOLDENS.exists():
        raise SystemExit(f"{GOLDENS} not found: run with --pin")
    return json.loads(GOLDENS.read_text(encoding="ascii"))["workloads"]


def pinned_seed(name: str, seed: int, goldens: dict) -> int:
    """The seed ``name`` runs for ``--seed seed``: itself if it has goldens,
    else one of the workload's pinned seeds (the driver passes seeds of its
    own choosing, and a result nobody pinned cannot be checked)."""
    if name not in goldens:
        raise SystemExit(f"no goldens for workload {name}: run with --pin")
    pinned = sorted(int(k) for k in goldens[name])
    return seed if seed in pinned else pinned[seed % len(pinned)]


def mismatches(facts: dict, golden: dict) -> list[str]:
    """Names of the pinned facts a repetition got wrong (``best_lnl`` to a
    relative 1e-9, everything else exactly)."""
    wrong = [k for k in golden if k != "best_lnl" and facts.get(k) != golden[k]]
    want = golden["best_lnl"]
    if abs(facts["best_lnl"] - want) > 1e-9 * abs(want):
        wrong.append("best_lnl")
    return wrong


def judge(out: dict, golden: dict) -> None:
    """Mark each repetition of a worker's output with why it failed, if it did."""
    if (out["n_patterns"], out["digest"]) != (golden["n_patterns"], golden["digest"]):
        raise SystemExit("the generated alignment is not the pinned one")
    first_lnl = None
    for rep in out["reps"]:
        if "error" in rep:
            rep["failed"] = rep["error"]
            continue
        wrong = mismatches(rep["facts"], golden["facts"])
        if first_lnl is None:
            first_lnl = rep["facts"]["best_lnl"]
        if rep["facts"]["best_lnl"] != first_lnl:
            wrong.append("best_lnl differs between repetitions")
        if rep["wall_s"] > SLOW_FACTOR * golden["wall_s"]:
            wrong.append(f"slower than {SLOW_FACTOR:g} x pinned median")
        if wrong:
            rep["failed"] = "; ".join(wrong)


def pin(names: list[str], seed: int, env: dict) -> int:
    """Pin ``seed`` itself (no folding) for the named workloads."""
    doc = json.loads(GOLDENS.read_text(encoding="ascii")) if GOLDENS.exists() else {}
    for name in names:
        out = worker("measure", name, seed)
        reps = out["reps"]
        errors = [r["error"] for r in reps if "error" in r]
        if errors or any(
            (r["facts"], r["sim"]) != (reps[0]["facts"], reps[0]["sim"]) for r in reps
        ):
            raise SystemExit(f"{name}: repetitions fail or disagree, not pinning: {errors}")
        doc.setdefault("workloads", {}).setdefault(name, {})[str(seed)] = {
            "n_patterns": out["n_patterns"], "digest": out["digest"],
            "facts": reps[0]["facts"], "sim": reps[0]["sim"],
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        print(f"pinned {name} seed {seed}: {out['n_patterns']} patterns, "
              f"{reps[0]['sim']['pattern_ops']} pattern-ops, {out['peak_rss_mb']:.1f} MiB, "
              f"lnL {reps[0]['facts']['best_lnl']!r}, {len(reps)} repetitions agree")
    doc["pinned_under"] = {k: env[k] for k in ("python", "numpy", "blas", "platform")}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


# -- measuring -------------------------------------------------------------------

def stat(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "reps": len(values),
            "min": min(values), "max": max(values)}


def run_untraced(name: str, seed: int, golden: dict) -> dict:
    setups = [worker("setup", name, seed)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    out = worker("measure", name, seed)
    judge(out, golden)
    good = [r for r in out["reps"] if "failed" not in r]
    if not good:
        raise SystemExit(f"{name}: every repetition failed: "
                         f"{[r['failed'] for r in out['reps']]}")
    walls = [r["wall_s"] for r in good]
    ops = golden["sim"]["pattern_ops"]  # pinned, so saved logical work reads as a gain
    metrics = {
        "wall_s": stat(walls, E2E["wall_s"]["unit"]),
        "pattern_mops_per_s": stat(
            [ops / w / 1e6 for w in walls], E2E["pattern_mops_per_s"]["unit"]
        ),
        "setup_s": stat(setups + [out["setup_s"]], E2E["setup_s"]["unit"]),
        "peak_rss_mb": stat([out["peak_rss_mb"]], E2E["peak_rss_mb"]["unit"]),
    }
    failed = len(out["reps"]) - len(good)
    result = {
        "simulate_seed": seed,
        "metrics": metrics,
        "attempted": len(out["reps"]),
        "failed": failed,
        "failed_share": failed / len(out["reps"]),
        "failures": [r["failed"] for r in out["reps"] if "failed" in r],
        "sim_identical": all(r["sim"] == golden["sim"] for r in good),
        "cpu_s": stat([r["cpu_s"] for r in good], "s"),
    }
    resumes = [r["resume_s"] for r in good if "resume_s" in r]
    if resumes:
        result["resume_s"] = stat(resumes, "s")
    return result


def run_traced(name: str, seed: int, golden: dict) -> dict:
    out = worker("trace", name, seed)
    judge(out, golden)
    rep = out["reps"][0]
    if out["untraced_facts"] != rep.get("facts"):
        rep.setdefault("failed", "tracing changed the result")
    failed = int("failed" in rep)
    return {
        "simulate_seed": seed,
        "metrics": {
            k: {"value": out["layer"][k], "unit": PER_LAYER[k]["unit"]}
            for k in PER_LAYER
        },
        "attempted": 1,
        "failed": failed,
        "failures": [rep["failed"]] if failed else [],
        "sim_identical": "sim" in rep and rep["sim"] == golden["sim"],
        "conservation": out["conservation"],
        "missing_targets": out["missing_targets"],
        "trace_file": out["trace_file"],
        "trace_dropped_spans": out["trace_dropped_spans"],
        "traced_wall_s": rep.get("wall_s"),
        "untraced_wall_s": out["untraced_wall_s"],
    }


def print_result(title: str, result: dict) -> None:
    print(f"== {title} ==")
    for name, m in result["metrics"].items():
        extra = ""
        if m.get("reps", 1) > 1:
            extra = f"   (median of {m['reps']}: min={m['min']:.6g} max={m['max']:.6g})"
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{extra}")
    if "failed_share" in result:
        print(f"  {'failed_share':42s} {result['failed_share']:>14.6g} ratio   "
              f"({result['failed']} of {result['attempted']})")
    for why in result["failures"]:
        print(f"  FAILED: {why}")
    print(f"  sim_identical: {str(result['sim_identical']).lower()}")
    for thread, c in result.get("conservation", {}).items():
        print(f"  self time conserved on {thread}: "
              f"{c['self_s']:.6f} s of {c['root_s']:.6f} s")
    if result.get("missing_targets"):
        print(f"  not found, so not traced: {result['missing_targets']}")
    if "trace_file" in result:
        print(f"  trace: {result['trace_file']} "
              f"({result['trace_dropped_spans']} shortest spans left out)")


def run_set(names: list[str], seed: int, goldens: dict, traced: bool) -> dict:
    runner = run_traced if traced else run_untraced
    kind = "traced" if traced else "untraced"
    results = {}
    for name in names:
        sim = pinned_seed(name, seed, goldens)
        results[name] = runner(name, sim, goldens[name][str(sim)])
        print_result(f"{name} ({kind}, simulate_alignment seed {sim})", results[name])
        sys.stdout.flush()
    return results


def agreement(a: dict, b: dict) -> tuple[dict, bool]:
    """Per workload and end-to-end metric: both medians, how much worse the
    worse one is, and whether that is within BENCHMARK.json's bound and
    within the issue's.  The verdict is by BENCHMARK.json's."""
    table: dict = {}
    ok = True
    for name in a:
        table[name] = {}
        for metric, spec in E2E.items():
            va, vb = a[name]["metrics"][metric]["value"], b[name]["metrics"][metric]["value"]
            diff = abs(va - vb) / min(va, vb)
            table[name][metric] = {
                "first": va, "second": vb, "relative_difference": diff,
                "bound": spec["bound"], "within_bound": diff <= spec["bound"],
                "issue_bound": ISSUE_BOUNDS[metric],
                "within_issue_bound": diff <= ISSUE_BOUNDS[metric],
            }
            ok &= diff <= spec["bound"]
        fa, fb = a[name]["failed_share"], b[name]["failed_share"]
        table[name]["failed_share"] = {"first": fa, "second": fb, "bound": 0,
                                       "within_bound": fa == fb}
        ok &= fa == fb
    return table, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="simulate_alignment seed of the input")
    ap.add_argument("--seconds", type=float,
                    help="accepted because the driver passes it; the number of "
                         "repetitions is fixed per workload (workloads.py)")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="0: end-to-end metrics, 1: per-layer metrics; "
                         "with --workload, ends with the JSON result line")
    ap.add_argument("--traced", action="store_true",
                    help="untraced run, then the traced one")
    ap.add_argument("--agree", action="store_true",
                    help="two untraced sets; writes results/agreement.json")
    ap.add_argument("--pin", action="store_true",
                    help="pin --seed in goldens.json for the workload(s)")
    args = ap.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"{SRC / 'repro'} not found: the benchmark measures that package",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in MANIFEST["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    env = environment(args.seed)
    print_environment(env)
    if args.pin:
        return pin(names, args.seed, env)
    goldens = load_goldens()

    doc: dict = {"environment": env}
    ok = True
    if args.agree:
        doc["untraced"] = run_set(names, args.seed, goldens, traced=False)
        doc["untraced_second"] = run_set(names, args.seed, goldens, traced=False)
        table, ok = agreement(doc["untraced"], doc["untraced_second"])
        (RESULTS / "agreement.json").write_text(
            json.dumps({"environment": env, "agreement": table, "agree": ok}, indent=1)
            + "\n", encoding="ascii")
        for name, row in table.items():
            for metric, cell in row.items():
                verdict = "ok" if cell["within_bound"] else "DISAGREE"
                if not cell.get("within_issue_bound", True):
                    verdict += f" (beyond the issue's {cell['issue_bound']})"
                print(f"  agree {name:18s} {metric:20s} {cell['first']:.6g} vs "
                      f"{cell['second']:.6g}  bound {cell['bound']}  {verdict}")
    elif args.trace != 1:
        doc["untraced"] = run_set(names, args.seed, goldens, traced=False)
    if args.traced or args.trace == 1:
        doc["traced"] = run_set(names, args.seed, goldens, traced=True)
    (RESULTS / "last.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")

    sets = [doc[k] for k in ("untraced", "untraced_second", "traced") if k in doc]
    failed = sum(r["failed"] for s in sets for r in s.values())
    if args.trace is not None and args.workload is not None:
        result = sets[0][args.workload]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items()},
        }))
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh interpreter; run.py starts it and reads the
JSON object on the last line of its standard output.

Modes: ``setup`` (set up and stop), ``measure`` (set up, then timed
repetitions with tracing off), ``trace`` (set up, one untraced and one
traced repetition, per-layer metrics).  Set-up is what all three do
first: import ``repro``, build the input, one warm-up analysis on the
fixed smoke shape under the workload's layout and kernel.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

#: Set-up is timed from here: numpy, repro and the benchmark's own modules
#: are imported inside main().
T0 = perf_counter()

IMPORT_SAMPLES = 5
RESULTS = Path(__file__).resolve().parent / "results"  # run.py creates it


def timed_reps(W, prep) -> list[dict]:
    """The workload's fixed number of repetitions.  One that raises is kept
    as ``{"error": ...}``.  Only the first is followed by a ``--resume`` run
    (command-line workload)."""
    reps: list[dict] = []
    for _ in range(prep.workload.reps):
        gc.collect()  # else collector debt of one repetition is paid by the next
        try:
            reps.append(W.run_once(prep, resume=not reps))
        except Exception as exc:  # a failed repetition is a result, not a crash
            reps.append({"error": f"{type(exc).__name__}: {exc}"})
    return reps


def import_seconds() -> list[float]:
    out = []
    for _ in range(IMPORT_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        out.append(perf_counter() - t0)
    return out


def traced_rep(W, prep) -> dict:
    import layers
    from tracer import Tracer

    from repro.obs.trace import validate_chrome_trace

    gc.collect()
    base = W.run_once(prep, in_process=True, resume=False)
    gc.collect()
    tracer = Tracer()
    c0 = time.process_time()
    with tracer:
        rep = W.run_once(prep, in_process=True)
    cpu_s = time.process_time() - c0
    doc = tracer.chrome_trace(meta={"workload": prep.workload.name, "seed": prep.seed})
    validate_chrome_trace(doc)
    trace_path = RESULTS / f"trace_{prep.workload.name}.json"
    trace_path.write_text(json.dumps(doc), encoding="ascii")
    imports = import_seconds()
    return {
        "reps": [rep],
        "untraced_wall_s": base["wall_s"],
        "untraced_facts": base["facts"],
        "layer": layers.layer_metrics(
            tracer, rep, base["wall_s"], cpu_s, statistics.median(imports)
        ),
        "import_s": imports,
        "conservation": tracer.conservation(),
        "missing_targets": tracer.missing,
        "trace_file": str(trace_path),
        "trace_dropped_spans": doc["otherData"]["dropped_spans"],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="simulate_alignment seed of the input")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    import workloads as W

    w = W.by_name(args.workload)
    prep = W.prepare(w, args.seed, args.workdir)
    W.run_library(W.prepare(W.warmup_of(w), W.WARMUP_SEED, args.workdir))
    out = {
        "setup_s": perf_counter() - T0,
        "n_patterns": prep.pal.n_patterns,
        "digest": W.pattern_digest(prep.pal),
    }
    if args.mode == "measure":
        out["reps"] = timed_reps(W, prep)
    elif args.mode == "trace":
        out.update(traced_rep(W, prep))
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if w.cli else resource.RUSAGE_SELF
    )
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

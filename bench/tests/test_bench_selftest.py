"""Self-test of the benchmark harness (``pytest bench/tests``, under a minute).

Not collected by tier-1: pyproject's ``testpaths`` is ``["tests"]``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import layers  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
GOLDENS = json.loads((BENCH / "goldens.json").read_text(encoding="ascii"))["workloads"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- tracer arithmetic -----------------------------------------------------------

def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_of_nested_spans():
    tr = T.Tracer()
    leaf = tr.wrap(lambda: _spin(0.02), "inner", "leaf")

    def parent():
        _spin(0.01)
        leaf()
        leaf()

    tr.wrap(parent, "outer", "parent")()
    agg = tr.aggregate()
    outer, inner = agg[("outer", "parent")], agg[("inner", "leaf")]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert inner["self_s"] == inner["wall_s"] >= 0.04
    assert outer["self_s"] == pytest.approx(outer["wall_s"] - inner["wall_s"])
    assert 0.01 <= outer["self_s"] < 0.02
    (thread,) = tr.conservation().values()
    assert thread["self_s"] == pytest.approx(thread["root_s"], rel=1e-9)
    assert thread["root_s"] == outer["wall_s"]
    spans = tr.threads[0].spans
    assert [s[T.PARENT] for s in spans] == [-1, 0, 0]


def test_self_time_is_kept_per_thread():
    tr = T.Tracer()
    work = tr.wrap(lambda: _spin(0.02), "layer", "work")
    root = tr.wrap(lambda: work(), "layer", "root")
    threads = [threading.Thread(target=root) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(tr.threads) == 2
    for c in tr.conservation().values():
        assert c["self_s"] == pytest.approx(c["root_s"], rel=1e-9)
    # A child never reduces the self time of a span on another thread.
    for st in tr.threads:
        assert [s[T.PARENT] for s in st.spans] == [-1, 0]
    assert tr.aggregate()[("layer", "work")]["calls"] == 2


def test_failed_call_still_closes_its_span():
    tr = T.Tracer()

    def boom():
        raise KeyError("x")

    outer = tr.wrap(lambda: tr.wrap(boom, "l", "boom")(), "l", "outer")
    with pytest.raises(KeyError):
        outer()
    assert tr.threads[0].stack == []
    assert tr.aggregate()[("l", "boom")]["calls"] == 1


def test_install_then_restore_leaves_every_attribute_identical():
    import numpy

    import repro.hybrid.driver as driver
    import repro.runtime.backends as backends
    from repro.likelihood.kernels import BatchedKernel, KernelBackend

    before = {
        "einsum": numpy.einsum,
        "driver.run_rank": driver.run_rank,
        "backends.run_rank": backends.run_rank,
        "propagate": KernelBackend.__dict__["propagate"],
        "level_partials": BatchedKernel.__dict__["level_partials"],
    }
    tr = T.Tracer()
    with tr:
        patched = list(tr.patched)
        assert tr.missing == []
        assert numpy.einsum is not before["einsum"]
        # ``from x import f`` call sites see the wrapper too.
        assert driver.run_rank is backends.run_rank is not before["driver.run_rank"]
        assert KernelBackend.__dict__["propagate"].__wrapped__ is before["propagate"]
    assert len(patched) > 80
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert numpy.einsum is before["einsum"]
    assert driver.run_rank is before["driver.run_rank"]
    assert BatchedKernel.__dict__["level_partials"] is before["level_partials"]
    assert set(T.TARGETS) | {T.KERNEL_LAYER} == set(T.LAYERS)


# -- names and manifest ------------------------------------------------------------

def test_names_and_limits():
    names = (
        [w["name"] for w in MANIFEST["workloads"]]
        + [m["name"] for m in MANIFEST["end_to_end"]]
        + [m["name"] for m in MANIFEST["per_layer"]]
    )
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert [w["name"] for w in MANIFEST["workloads"]] == list(W.WORKLOADS)
    for w in MANIFEST["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in MANIFEST["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}
    assert MANIFEST["paths"] == ["bench"]


# -- seeds and goldens --------------------------------------------------------------

def _load_run():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_a_pinned_seed_runs_itself_and_any_other_folds_onto_one():
    run = _load_run()
    for name in list(W.WORKLOADS) + [W.SMOKE.name]:
        pinned = sorted(int(k) for k in GOLDENS[name])
        assert run.DEFAULT_SEED in pinned
        for seed in pinned:
            assert run.pinned_seed(name, seed, GOLDENS) == seed
        folded = {run.pinned_seed(name, seed, GOLDENS) for seed in range(100, 130)}
        assert folded == set(pinned)  # every pinned problem is reached
    with pytest.raises(SystemExit):
        run.pinned_seed("no_such_workload", 1, GOLDENS)


def test_seed_is_the_simulate_alignment_seed(tmp_path):
    a = W.prepare(W.SMOKE, 4242, tmp_path)
    assert W.pattern_digest(a.pal) == GOLDENS["smoke"]["4242"]["digest"]
    assert W.pattern_digest(W.prepare(W.SMOKE, 4242, tmp_path).pal) == W.pattern_digest(a.pal)
    assert W.pattern_digest(W.prepare(W.SMOKE, 4243, tmp_path).pal) != W.pattern_digest(a.pal)


def test_holdout_seeds_are_problems_of_the_same_size():
    """The rule the pinned seeds were chosen by (README.md, "Seeds")."""
    for name in W.WORKLOADS:
        ref = GOLDENS[name]["4242"]
        assert len(GOLDENS[name]) >= 2, name
        for g in GOLDENS[name].values():
            assert abs(g["n_patterns"] - ref["n_patterns"]) <= 0.05 * ref["n_patterns"]
            ops, ref_ops = g["sim"]["pattern_ops"], ref["sim"]["pattern_ops"]
            assert abs(ops - ref_ops) <= 0.10 * ref_ops
            assert abs(g["peak_rss_mb"] - ref["peak_rss_mb"]) <= 0.05 * ref["peak_rss_mb"]


# -- end to end on the smoke shape -----------------------------------------------------

def _run(*argv: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seconds", "1", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def _result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def test_smoke_untraced_prints_exactly_the_end_to_end_metrics():
    proc = _run("--seed", "5", "--trace", "0")
    doc = _result_line(proc)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert doc["attempted"] == W.SMOKE.reps >= 3
    assert "sim_identical: true" in proc.stdout
    assert f"median of {W.SMOKE.reps}" in proc.stdout
    assert "failed_share" in proc.stdout
    assert proc.stdout.startswith("== environment ==")


def test_smoke_traced_prints_exactly_the_per_layer_metrics():
    proc = _run("--seed", "6", "--trace", "1")
    doc = _result_line(proc)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["per_layer"]
    }
    value = {k: v["value"] for k, v in doc["metrics"].items()}
    assert value["trace.spans"] > 1000
    assert value["numpy.einsum.calls"] > 0
    assert value["search.moves_tried"] > 0
    assert 0 < value["search.accept_ratio"] <= 1
    assert value["likelihood.kernels.pattern_ops"] > 0
    assert value["runtime.wait_share"] < 0.2  # one rank: nothing to wait for
    assert value["sched.tasks"] == value["obs.events"] == 0
    last = json.loads((BENCH / "results" / "last.json").read_text(encoding="ascii"))
    traced = last["traced"]["smoke"]
    for c in traced["conservation"].values():
        assert c["self_s"] == pytest.approx(c["root_s"], rel=0.01)
    assert traced["missing_targets"] == []
    from repro.obs.trace import validate_trace_file

    assert validate_trace_file(traced["trace_file"])["spans"] > 1000


def test_wrong_result_fails_the_run():
    run = _load_run()
    golden = run.load_goldens()["smoke"]["4242"]
    good = {"wall_s": 0.5, "facts": json.loads(json.dumps(golden["facts"]))}
    drifted = json.loads(json.dumps(good))
    drifted["facts"]["best_lnl"] *= 1 + 1e-7
    slow = {**good, "wall_s": 11 * golden["wall_s"]}
    out = {"n_patterns": golden["n_patterns"], "digest": golden["digest"],
           "reps": [good, drifted, slow, {"error": "ValueError: x"}]}
    run.judge(out, golden)
    assert ["failed" in r for r in out["reps"]] == [False, True, True, True]
    with pytest.raises(SystemExit):
        run.judge({**out, "digest": "0" * 64}, golden)


def test_layer_metric_names_match_the_manifest():
    tr = T.Tracer()
    rep = {"wall_s": 1.0, "sim": {"pattern_ops": 0},
           "layer": {"sched.tasks": 0, "sched.steal_attempts": 0, "sched.steal_grants": 0}}
    got = layers.layer_metrics(tr, rep, 1.0, 1.0, 1.0)
    assert list(got) == [m["name"] for m in MANIFEST["per_layer"]]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_1x4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

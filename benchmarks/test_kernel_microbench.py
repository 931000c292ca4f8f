"""Kernel-layer microbenchmark: the kernel's contractions and real SPR rounds.

Three legs, all recorded to ``output/BENCH_kernels.json`` (the record is
written *before* any claim is asserted, so a failed assertion still
leaves the numbers on disk for inspection):

* **Contraction table** (always runs): µs per call of every kernel
  contraction, the path-optimised ``einsum`` it used to be against the
  explicit-product helper it is now, at 57 / 230 / 4,600 patterns (the
  tier-1 toys, ``small_1x4`` and ``wide_1x1`` of ``bench/``).  Asserts
  only what holds on any host: at 57 patterns, where a call is all
  dispatch, no helper loses to the einsum it replaced.  A second table
  times the products that replaced *no* einsum — the Γ Newton triple and
  the Γ site sum (old reduction vs new product) and the two transposed
  operands (strided view vs contiguous copy) — and the product step's
  scaling (divide-by-max vs threshold) at 87 / 230 / 4,610 patterns; it
  asserts the Newton product and the threshold step win at 4,610.
* **Small leg** (always runs; this is what CI's ``kernels-smoke`` job
  executes): a >=500-pattern simulated alignment, one SPR round per
  variant — from scratch, planned over the CLV cache, and planned under
  a 4-thread virtual pool (which prices the thread chunks and makes
  serial's kernel calls).  Asserts are exact: bit-identical
  log-likelihoods everywhere, the planner saves CLV work, and the
  threaded round charges *exactly* the serial op counts.
* **Full leg** (``REPRO_BENCH_FULL=1``): the paper's largest data-set
  shape — 125 taxa x 29,149 characters, ~19.4k patterns — three SPR
  rounds in a fresh subprocess, plus two more fresh processes for the
  cold (first) round, whose cost is mostly page commissioning.  It
  records wall-clock seconds and asserts only that every process made
  the same search.
"""

import json
import os
import subprocess
import sys
import time
import timeit

import numpy as np

from repro.datasets import test_dataset as make_test_dataset
from repro.likelihood.engine import LikelihoodEngine, OpCounter, RateModel
from repro.likelihood.gtr import GTRModel, _spectral_products
from repro.likelihood.kernels import base as kb
from repro.search.spr import SPRParams, spr_round
from repro.seq.encoding import state_likelihood_rows
from repro.threads.pool import VirtualThreadPool
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom
from repro.util.tables import format_table

from conftest import OUTPUT_DIR

MODEL = GTRModel(rates=(1.3, 3.1, 0.9, 1.0, 3.4, 1.0), freqs=(0.28, 0.22, 0.24, 0.26))
PARAMS = SPRParams(radius=2, min_improvement=0.01)

# The full leg's child process: the paper's largest dataset
# shape (125 taxa, 29,149 characters; the tuned invariant fraction lands
# the simulation at 19,441 unique patterns vs the real data's 19,436),
# three SPR rounds from a fixed Yule start tree, reported as JSON.
_FULL_CHILD = r"""
import json, sys, time
from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.seq.patterns import compress_alignment
from repro.likelihood.engine import LikelihoodEngine, OpCounter, RateModel
from repro.likelihood.gtr import GTRModel
from repro.search.spr import SPRParams, spr_round
from repro.util.rng import RAxMLRandom
from repro.tree.random_trees import yule_tree

n_rounds = int(sys.argv[1])
aln, _ = simulate_alignment(SimulationParams(
    n_taxa=125, n_sites=29149, seed=20260808, proportion_invariant=0.2837,
))
pal = compress_alignment(aln)
model = GTRModel(rates=(1.3, 3.1, 0.9, 1.0, 3.4, 1.0),
                 freqs=(0.28, 0.22, 0.24, 0.26))
ops = OpCounter()
engine = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4), ops=ops,
                          clv_cache=True)
tree = yule_tree(pal.taxa, RAxMLRandom(4711))
rng = RAxMLRandom(97)
params = SPRParams(radius=2, min_improvement=0.01, max_prune_candidates=8)
rounds, lnls, lnl = [], [], None
for _ in range(n_rounds):
    t0 = time.perf_counter()
    tree, lnl, _ = spr_round(engine, tree, params, current_lnl=lnl, rng=rng)
    rounds.append(time.perf_counter() - t0)
    lnls.append(lnl)
print(json.dumps({
    "n_patterns": pal.n_patterns,
    "round_seconds": rounds, "lnls": lnls, "ops": ops.snapshot(),
}))
"""


#: Pattern counts of the contraction table: the 6 x 60 tier-1 toys, and
#: ``small_1x4`` / ``wide_1x1`` of ``bench/``.
CONTRACTION_SIZES = (57, 230, 4600)


def _contractions(m: int):
    """``(subscripts, operands, helper)`` per kernel contraction at ``m``
    patterns (Γ with k = 4; CAT with 8 categories)."""
    rng = np.random.default_rng(m)
    pm, pm8 = rng.random((4, 4, 4)), rng.random((8, 4, 4))
    clv, other = rng.random((m, 4, 4)), rng.random((m, 4, 4))
    tip, tip2 = rng.random((m, 4)), rng.random((m, 4))
    per_pattern = pm8[rng.integers(0, 8, size=m)]
    u, u_inv = MODEL._spectral[1:3]
    return [
        ("kab,mkb->mka", (pm, clv), kb._propagate_inner),
        ("kab,mb->mka", (pm, tip), kb._propagate_tip),
        ("pab,pb->pa", (per_pattern, tip), kb._propagate_cat),
        ("mka,mka->m", (clv, other), kb._site_dot),
        ("pa,pa->p", (tip, tip2), kb._site_dot),
        ("mka,aj->mkj", (clv, u), kb._to_eigenbasis),
        ("mkb,jb->mkj", (clv, u_inv), lambda x, ui: kb._to_eigenbasis(x, ui.T)),
        ("kab,sb->ksa", (pm, state_likelihood_rows()), kb._mask_table),
    ]


def _us_per_call(fn) -> float:
    """Best of five batches, each sized to about 5 ms."""
    timer = timeit.Timer(fn)
    number = max(1, int(5e-3 / max(timer.timeit(3) / 3, 1e-7)))
    return 1e6 * min(timer.repeat(repeat=5, number=number)) / number


def run_contraction_bench() -> dict:
    """``{subscripts: {m: {"einsum_us", "helper_us"}}}``; the spectral
    product, which has no pattern axis, is keyed by its k instead."""
    table: dict[str, dict[str, dict[str, float]]] = {}
    for m in CONTRACTION_SIZES:
        for subs, operands, helper in _contractions(m):
            table.setdefault(subs, {})[str(m)] = {
                "einsum_us": _us_per_call(
                    lambda: np.einsum(subs, *operands, optimize=True)
                ),
                "helper_us": _us_per_call(lambda: helper(*operands)),
            }
    lam, u, u_inv, _, pairs = MODEL._spectral
    for k in (4, 8):
        e = np.exp(np.outer(np.linspace(0.2, 2.0, k) * 0.1, lam))
        table.setdefault("ij,kj,jl->kil", {})[f"k={k}"] = {
            "einsum_us": _us_per_call(
                lambda: np.einsum("ij,kj,jl->kil", u, e, u_inv, optimize=True)
            ),
            "helper_us": _us_per_call(lambda: _spectral_products(u, e, u_inv, pairs)),
        }
    return table


#: Pattern counts of the rewrites table: ``ranks_4x2_steal``,
#: ``small_1x4`` and ``wide_1x1`` of ``bench/`` (the last one is past
#: ``KernelBackend.fuse_min_patterns``).
REWRITE_SIZES = (87, 230, 4610)


def _newton_by_reductions(coef, exps, t):
    """The Γ Newton sums as they were before ``_newton_rows``: three full
    ``(m, k, 4)`` products and three ``sum(axis=(1, 2))`` reductions."""
    term = coef * np.exp(exps * t)
    site = term.sum(axis=(1, 2))
    np.multiply(term, exps, out=term)
    d1 = term.sum(axis=(1, 2))
    np.multiply(term, exps, out=term)
    return site, d1, term.sum(axis=(1, 2))


def _divide_by_max(parts, clv_out, logmx_out, acc):
    """The product step before threshold scaling: the product in scratch,
    every pattern divided by its max entry into ``clv_out``, the log of
    the divisors into ``logmx_out``."""
    n = len(clv_out)
    np.multiply(parts[0], parts[1], out=acc)
    for extra in parts[2:]:
        np.multiply(acc, extra, out=acc)
    mx = kb._row_max(acc.reshape(n, -1))
    np.maximum(mx, kb._TINY, out=mx)
    np.divide(acc.reshape(n, -1), mx[:, None], out=clv_out.reshape(n, -1))
    np.log(mx, out=logmx_out)


def _rewrites(m: int):
    """``{row: (old, new)}`` at ``m`` patterns, Γ with k = 4: the two Γ
    sums as the reductions they were and the products they are, the two
    transposed 4-column operands as strided views and as contiguous
    copies — ``U⁻¹ᵀ`` is already contiguous as ``GTRModel`` holds it, so
    its "old" is a C-ordered ``U⁻¹`` — and a two-child product step
    scaled by divide-by-max and by threshold (nothing underflows)."""
    rng = np.random.default_rng(m)
    coef, clv = rng.standard_normal((m, 4, 4)), rng.random((m, 4, 4))
    tip, pm = rng.random((m, 4)), rng.random((4, 4, 4))
    exps = np.outer(RateModel.gamma(0.8, 4).rates, MODEL._spectral[0])
    u_inv = MODEL._spectral[2]
    u_inv_c = np.ascontiguousarray(u_inv)
    pi_column = np.tile(MODEL.pi, 4).reshape(-1, 1)  # built once per kernel
    parts = [rng.random((m, 4, 4)), rng.random((m, 4, 4))]
    out, scale, acc = np.empty((m, 4, 4)), np.empty(m), np.empty((m, 4, 4))
    return {
        "newton_triple": (
            lambda: _newton_by_reductions(coef, exps, 0.1),
            lambda: kb._newton_rows(coef, exps, 0.1),
        ),
        "gamma_site_sum": (
            lambda: np.einsum("mka,a->m", clv, MODEL.pi),
            lambda: kb._site_sum(clv, pi_column),
        ),
        "tip_pmats_T": (
            lambda: tip @ pm.reshape(16, 4).T,
            lambda: kb._propagate_tip(pm, tip),
        ),
        "u_inv_T": (
            lambda: kb._to_eigenbasis(clv, u_inv_c.T),
            lambda: kb._to_eigenbasis(clv, u_inv.T),
        ),
        "product_rescale": (
            lambda: _divide_by_max(parts, out, scale, acc),
            lambda: kb._product_rescale(parts, out, scale),
        ),
    }


def run_rewrite_bench() -> dict:
    """``{row: {m: {"old_us", "new_us"}}}`` at :data:`REWRITE_SIZES`."""
    table: dict[str, dict[str, dict[str, float]]] = {}
    for m in REWRITE_SIZES:
        for row, (old, new) in _rewrites(m).items():
            table.setdefault(row, {})[str(m)] = {
                "old_us": _us_per_call(old), "new_us": _us_per_call(new),
            }
    return table


def _spr_round(pal, clv_cache: bool, n_threads: int = 1):
    """One SPR round from a fresh Yule start tree; returns (lnl, ops, secs)."""
    ops = OpCounter()
    engine = LikelihoodEngine(
        pal, MODEL, RateModel.gamma(0.8, 4), ops=ops, clv_cache=clv_cache,
        pool=VirtualThreadPool(n_threads) if n_threads > 1 else None,
    )
    tree = yule_tree(pal.taxa, RAxMLRandom(4711))
    start = time.perf_counter()
    _, lnl, _ = spr_round(engine, tree, PARAMS)
    secs = time.perf_counter() - start
    return lnl, ops.snapshot(), secs


def run_microbench():
    pal, _ = make_test_dataset(n_taxa=24, n_sites=1600, seed=909)
    assert pal.n_patterns >= 500
    variants = {
        "scratch": _spr_round(pal, clv_cache=False),
        "planned": _spr_round(pal, clv_cache=True),
        "threaded4-planned": _spr_round(pal, clv_cache=True, n_threads=4),
    }
    return pal.n_patterns, variants


def _full_child(n_rounds: int):
    proc = subprocess.run(
        [sys.executable, "-c", _FULL_CHILD, str(n_rounds)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_full_bench():
    """The 19.4k-pattern SPR-round benchmark in fresh subprocesses.

    The *cold* round (a fresh process's first SPR round) is dominated by
    page commissioning, whose cost depends on host memory state, so it
    is sampled three times (three fresh processes); steady-state rounds
    come from the one 3-round child.
    """
    res = _full_child(3)
    cold = [_full_child(1) for _ in range(2)]
    res["cold_samples"] = [res["round_seconds"][0]] + [c["round_seconds"][0] for c in cold]
    res["cold_lnls"] = [c["lnls"] for c in cold]
    return res


def test_kernel_microbench(benchmark, emit):
    n_patterns, variants = benchmark.pedantic(run_microbench, rounds=1, iterations=1)
    full = run_full_bench() if os.environ.get("REPRO_BENCH_FULL") == "1" else None
    contractions = run_contraction_bench()
    rewrites = run_rewrite_bench()

    # -- record first, assert second ---------------------------------------
    lnls = {name: lnl for name, (lnl, _, _) in variants.items()}
    scratch = variants["scratch"][1]
    planned = variants["planned"][1]
    doc = {
        "n_patterns": n_patterns,
        "spr_params": {"radius": PARAMS.radius, "min_improvement": PARAMS.min_improvement},
        "loglikelihood": lnls["scratch"],
        "clv_update_savings": 1.0 - planned["clv_updates"] / scratch["clv_updates"],
        "contractions_us_per_call": contractions,
        "rewrites_us_per_call": rewrites,
        "variants": {
            name: {"lnl": lnl, "wall_seconds": secs, **snapshot}
            for name, (lnl, snapshot, secs) in variants.items()
        },
    }
    if full is not None:
        doc["spr_round_19436"] = {
            "spr_params": {"radius": 2, "min_improvement": 0.01,
                           "max_prune_candidates": 8},
            "protocol": "one fresh 3-round subprocess (steady rounds) plus "
                        "two fresh 1-round subprocesses (cold samples)",
            **full,
        }
    out_path = OUTPUT_DIR / "BENCH_kernels.json"
    if full is None:
        # Smoke mode refreshes only its own section: the full-leg record
        # is measured on a quiet dedicated host (REPRO_BENCH_FULL=1) and
        # must survive intervening smoke runs.
        try:
            doc["spr_round_19436"] = json.loads(out_path.read_text())["spr_round_19436"]
        except (OSError, KeyError, ValueError):
            pass
    OUTPUT_DIR.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    # -- contraction table: dispatch-bound calls got cheaper ----------------
    emit(
        "kernel_contractions",
        format_table(
            ["Contraction", *(f"m={m}" for m in CONTRACTION_SIZES)],
            [
                (subs, *[
                    f"{cell['einsum_us']:.1f} -> {cell['helper_us']:.1f}"
                    for cell in row.values()
                ], *[""] * (len(CONTRACTION_SIZES) - len(row)))
                for subs, row in contractions.items()
            ],
            title="CONTRACTIONS, us/call: einsum(optimize=True) -> explicit product "
                  "(last row: k=4, k=8)",
        ),
    )
    for subs, row in contractions.items():
        smallest = next(iter(row.values()))
        assert smallest["helper_us"] < smallest["einsum_us"], (subs, smallest)
    emit(
        "kernel_rewrites",
        format_table(
            ["Rewrite", *(f"m={m}" for m in REWRITE_SIZES)],
            [
                (name, *[f"{c['old_us']:.1f} -> {c['new_us']:.1f}" for c in row.values()])
                for name, row in rewrites.items()
            ],
            title="REWRITES, us/call: reduction, strided view or divide-by-max "
                  "-> product, copy or threshold scaling",
        ),
    )
    for name in ("newton_triple", "product_rescale"):
        widest = rewrites[name][str(REWRITE_SIZES[-1])]
        assert widest["new_us"] < widest["old_us"], (name, widest)

    # -- small leg: exact claims -------------------------------------------
    # Bit-identical log-likelihoods across cache and thread count.
    assert len(set(lnls.values())) == 1, lnls
    # The planner must save CLV work on a real search round.
    assert planned["clv_updates"] < scratch["clv_updates"]
    assert planned["pattern_ops"] < scratch["pattern_ops"]
    # Edge/Newton work is cache-independent: same number of evaluations.
    assert planned["edge_evals"] == scratch["edge_evals"]
    assert planned["sumtables"] == scratch["sumtables"]
    assert planned["deriv_evals"] == scratch["deriv_evals"]
    # A threaded round charges exactly the serial op totals.
    assert variants["threaded4-planned"][1] == planned

    rows = [
        (name, snapshot["clv_updates"], snapshot["edge_evals"],
         snapshot["pattern_ops"], f"{secs:.3f}")
        for name, (_, snapshot, secs) in variants.items()
    ]
    emit(
        "kernel_microbench",
        format_table(
            ["Variant", "CLV updates", "Edge evals", "Pattern ops", "Wall s"],
            rows,
            title=(
                f"KERNEL MICROBENCH ({n_patterns} patterns; planner saves "
                f"{100 * doc['clv_update_savings']:.1f}% of CLV updates)"
            ),
        ),
    )
    if full is None:
        return

    # -- full leg: wall-clock record -----------------------------------------
    big = doc["spr_round_19436"]
    emit(
        "kernel_microbench_19436",
        format_table(
            ["Cold samples (s)", "Round 2", "Round 3"],
            [(
                "/".join(f"{s:.1f}" for s in sorted(big["cold_samples"])),
                *(f"{s:.2f}" for s in big["round_seconds"][1:]),
            )],
            title=f"SPR-ROUND MICROBENCH ({big['n_patterns']} patterns, "
                  "fresh subprocesses)",
        ),
    )
    # Every fresh process made the same search, to the bit.
    assert all(lnls == big["lnls"][:1] for lnls in big["cold_lnls"]), big

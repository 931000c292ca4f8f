"""Kernel-layer microbenchmark: the backend matrix on real SPR rounds.

Four legs, all recorded to ``output/BENCH_kernels.json`` (the record is
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
* **Override audit** (always runs): for every protocol method
  ``BatchedKernel`` overrides, µs per call of the inherited default and
  of the override on the same kernel and operands, at 87 / 230 / 4,610
  patterns (the three batched ``bench/`` workloads), Γ and CAT.  Asserts
  that the table has exactly one entry per override, so a new override
  arrives with its number or fails by name.
* **Small leg** (always runs; this is what CI's ``kernels-smoke`` job
  executes): a >=500-pattern simulated alignment, one SPR round per
  variant — from-scratch vs planned reference, plus the batched
  backend, serial and under a 4-thread virtual pool (which prices the
  thread chunks and makes serial's kernel calls).  Asserts are exact:
  bit-identical log-likelihoods everywhere, the planner saves CLV work,
  and every planned backend charges *exactly* the reference op counts
  (level-batching and contribution reuse are wall-clock
  optimisations, never less logical work).
* **Full leg** (``REPRO_BENCH_FULL=1``): the paper's largest data-set
  shape — 125 taxa x 29,149 characters, ~19.4k patterns — three SPR
  rounds per kernel, each kernel in its *own subprocess* so every
  backend pays its own allocator/page-commissioning cost (in-process
  ordering would let the second kernel reuse the first one's committed
  pages and flatter its cold round).  Wall-clock records live here,
  where the rounds are long enough to mean something: the batched
  backend's cold (first) round and steady-state rounds are both
  reported as speedups over reference, with regression-canary floors
  asserted below the observed ranges, and no registered kernel may
  lose to the reference at steady state beyond a noise tolerance.
"""

import itertools
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
from repro.likelihood.kernels import BatchedKernel, available_kernels
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

#: Steady-state wall-clock tolerance for "no kernel regresses vs
#: reference": the 1-core hosts this runs on show 15-20% run-to-run
#: noise, so a regression must exceed that to count as real.
NO_REGRESSION_TOLERANCE = 1.25

# The full leg's per-kernel child process: the paper's largest dataset
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

kernel = sys.argv[1]
n_rounds = int(sys.argv[2])
aln, _ = simulate_alignment(SimulationParams(
    n_taxa=125, n_sites=29149, seed=20260808, proportion_invariant=0.2837,
))
pal = compress_alignment(aln)
model = GTRModel(rates=(1.3, 3.1, 0.9, 1.0, 3.4, 1.0),
                 freqs=(0.28, 0.22, 0.24, 0.26))
ops = OpCounter()
engine = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4), ops=ops,
                          kernel=kernel, clv_cache=True)
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
    "kernel": kernel, "n_patterns": pal.n_patterns,
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


#: Pattern counts of the rewrites table and the override audit:
#: ``ranks_4x2_steal``, ``small_1x4`` and ``wide_1x1`` of ``bench/`` (the
#: last one is past ``BatchedKernel.fuse_min_patterns``).
AUDIT_SIZES = (87, 230, 4610)


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
    """``{row: {m: {"old_us", "new_us"}}}`` at the override audit's sizes."""
    table: dict[str, dict[str, dict[str, float]]] = {}
    for m in AUDIT_SIZES:
        for row, (old, new) in _rewrites(m).items():
            table.setdefault(row, {})[str(m)] = {
                "old_us": _us_per_call(old), "new_us": _us_per_call(new),
            }
    return table


def batched_overrides() -> set[str]:
    """The protocol methods ``BatchedKernel`` defines over its base."""
    return {
        name for name, value in vars(BatchedKernel).items()
        if callable(value) and not name.startswith("__") and hasattr(kb.KernelBackend, name)
    }


def _audit_cases(m: int, rate_model: RateModel):
    """``{override: {variant: thunk}}`` on one ``BatchedKernel`` of ``m``
    patterns: ``default`` is the base-class method on that same kernel
    and operands, ``override`` the kernel's own.  A level is two nodes,
    (tip, inner) and (inner, inner); the up level adds a parent-side
    partial to each.  Level signatures are fresh on every call, as on a
    tree whose branch lengths just moved; ``level_contribs`` is timed
    both ways (``override``: every spec an LRU hit, ``override_miss``:
    none), the insertion memo on its hit."""
    rng = np.random.default_rng(m)
    kernel = BatchedKernel(MODEL, rate_model, OpCounter(), m)
    kernel._contrib_lru.capacity = 16  # fresh signatures must not pile up
    clv_shape = (m, 4) if kernel.is_cat else (m, kernel.n_categories, 4)
    clvs = [0.5 + rng.random(clv_shape) for _ in range(4)]
    masks = rng.integers(1, 16, size=m)
    logscale = -rng.random(m)
    lengths = (0.05, 0.11, 0.17, 0.23)
    fresh = itertools.count(1)

    def level(signatures):
        sig = iter(signatures)
        return [
            ([(next(sig), lengths[0], masks), (next(sig), lengths[1], clvs[0])],
             [None, logscale]),
            ([(next(sig), lengths[2], clvs[1]), (next(sig), lengths[3], clvs[2])],
             [logscale, logscale]),
        ]

    def up_level(signatures):
        return [((0.3, clvs[3], logscale), specs, lss) for specs, lss in level(signatures)]

    warm = [spec for specs, _ in level(range(-4, 0)) for spec in specs]
    kernel.level_contribs(warm)  # every spec an LRU hit from here on
    pmats = kernel.pmatrices(0.07)
    base = kb.KernelBackend
    return {
        "level_contribs": {
            "default": lambda: base.level_contribs(kernel, warm),
            "override": lambda: kernel.level_contribs(warm),
            "override_miss": lambda: kernel.level_contribs(
                [s for specs, _ in level(fresh) for s in specs]
            ),
        },
        "_insertion_transport": {
            "default": lambda: base._insertion_transport(kernel, clvs[0], pmats),
            "override": lambda: kernel._insertion_transport(clvs[0], pmats),
        },
        "level_partials": {
            "default": lambda: base.level_partials(kernel, level(fresh)),
            "override": lambda: kernel.level_partials(level(fresh)),
        },
        "up_level_partials": {
            "default": lambda: base.up_level_partials(kernel, up_level(fresh)),
            "override": lambda: kernel.up_level_partials(up_level(fresh)),
        },
    }


def run_override_audit() -> dict:
    """``{override: {m: {"gamma" | "cat": {variant + "_us": µs}}}}``."""
    table: dict[str, dict[str, dict[str, dict[str, float]]]] = {}
    for m in AUDIT_SIZES:
        rate_models = {
            "gamma": RateModel.gamma(0.8, 4),
            "cat": RateModel.cat(np.geomspace(0.1, 4.0, 8), np.arange(m) % 8),
        }
        for rm_name, rate_model in rate_models.items():
            for override, variants in _audit_cases(m, rate_model).items():
                table.setdefault(override, {}).setdefault(str(m), {})[rm_name] = {
                    f"{variant}_us": _us_per_call(thunk)
                    for variant, thunk in variants.items()
                }
    return table


def _spr_round(pal, kernel: str, clv_cache: bool, n_threads: int = 1):
    """One SPR round from a fresh Yule start tree; returns (lnl, ops, secs)."""
    rate_model = RateModel.gamma(0.8, 4)
    ops = OpCounter()
    if n_threads > 1:
        engine = LikelihoodEngine(
            pal, MODEL, rate_model, ops=ops, kernel=kernel, clv_cache=clv_cache,
            pool=VirtualThreadPool(n_threads),
        )
    else:
        engine = LikelihoodEngine(
            pal, MODEL, rate_model, ops=ops, kernel=kernel, clv_cache=clv_cache
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
        "reference-scratch": _spr_round(pal, "reference", clv_cache=False),
        "reference-planned": _spr_round(pal, "reference", clv_cache=True),
        "batched-planned": _spr_round(pal, "batched", clv_cache=True),
        "threaded4-planned": _spr_round(pal, "reference", clv_cache=True, n_threads=4),
        "batched-threaded4": _spr_round(pal, "batched", clv_cache=True, n_threads=4),
    }
    return pal.n_patterns, variants


def _full_child(kernel: str, n_rounds: int):
    proc = subprocess.run(
        [sys.executable, "-c", _FULL_CHILD, kernel, str(n_rounds)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_full_bench():
    """The 19.4k-pattern SPR-round benchmark, one subprocess per kernel.

    The *cold* round (a fresh process's first SPR round) is dominated by
    page commissioning, whose cost depends on host memory state and
    varies ~2x run to run for the allocation-heavy reference kernel —
    so it is sampled three times (three fresh processes) and summarised
    by its median; steady-state rounds come from the one 3-round child.
    """
    results = {}
    for kernel in ("reference", "batched"):
        res = _full_child(kernel, 3)
        res["cold_samples"] = [res["round_seconds"][0]] + [
            _full_child(kernel, 1)["round_seconds"][0] for _ in range(2)
        ]
        results[kernel] = res
    return results


def _median3(xs):
    return sorted(xs)[1]


def test_kernel_microbench(benchmark, emit):
    n_patterns, variants = benchmark.pedantic(run_microbench, rounds=1, iterations=1)
    full = run_full_bench() if os.environ.get("REPRO_BENCH_FULL") == "1" else None
    contractions = run_contraction_bench()
    rewrites = run_rewrite_bench()
    audit = run_override_audit()

    # -- record first, assert second ---------------------------------------
    lnls = {name: lnl for name, (lnl, _, _) in variants.items()}
    scratch = variants["reference-scratch"][1]
    planned = variants["reference-planned"][1]
    doc = {
        "n_patterns": n_patterns,
        "spr_params": {"radius": PARAMS.radius, "min_improvement": PARAMS.min_improvement},
        "loglikelihood": lnls["reference-scratch"],
        "clv_update_savings": 1.0 - planned["clv_updates"] / scratch["clv_updates"],
        "kernels": sorted(available_kernels()),
        "contractions_us_per_call": contractions,
        "rewrites_us_per_call": rewrites,
        "override_audit": audit,
        "variants": {
            name: {"lnl": lnl, "wall_seconds": secs, **snapshot}
            for name, (lnl, snapshot, secs) in variants.items()
        },
    }
    if full is not None:
        ref = full["reference"]
        doc["spr_round_19436"] = {
            "n_patterns": ref["n_patterns"],
            "spr_params": {"radius": 2, "min_improvement": 0.01,
                           "max_prune_candidates": 8},
            "protocol": "per kernel: one fresh 3-round subprocess (steady "
                        "rounds) plus two fresh 1-round subprocesses; the "
                        "cold-round speedup is a ratio of medians over the "
                        "three cold (first-round-of-a-fresh-process) samples",
            "kernels": full,
            "cold_round_speedup": {
                k: _median3(ref["cold_samples"]) / _median3(v["cold_samples"])
                for k, v in full.items()
            },
            "steady_round_speedup": {
                k: min(ref["round_seconds"][1:]) / min(v["round_seconds"][1:])
                for k, v in full.items()
            },
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
            ["Rewrite", *(f"m={m}" for m in AUDIT_SIZES)],
            [
                (name, *[f"{c['old_us']:.1f} -> {c['new_us']:.1f}" for c in row.values()])
                for name, row in rewrites.items()
            ],
            title="REWRITES, us/call: reduction, strided view or divide-by-max "
                  "-> product, copy or threshold scaling",
        ),
    )
    for name in ("newton_triple", "product_rescale"):
        widest = rewrites[name][str(AUDIT_SIZES[-1])]
        assert widest["new_us"] < widest["old_us"], (name, widest)

    # -- override audit: one entry per override, named --------------------
    emit(
        "kernel_override_audit",
        format_table(
            ["Override", "rates", *(f"m={m}" for m in AUDIT_SIZES)],
            [
                (override, rm_name, *[
                    " / ".join(f"{us:.1f}" for us in by_m[rm_name].values())
                    for by_m in row.values()
                ])
                for override, row in audit.items()
                for rm_name in ("gamma", "cat")
            ],
            title="BATCHED OVERRIDES, us/call: inherited default / override "
                  "(level_contribs: / override on LRU misses)",
        ),
    )
    assert set(audit) == batched_overrides(), set(audit) ^ batched_overrides()

    # -- small leg: exact claims -------------------------------------------
    # Bit-identical log-likelihoods across cache, backend, and thread count.
    assert len(set(lnls.values())) == 1, lnls
    # The planner must save CLV work on a real search round.
    assert planned["clv_updates"] < scratch["clv_updates"]
    assert planned["pattern_ops"] < scratch["pattern_ops"]
    # Edge/Newton work is cache-independent: same number of evaluations.
    assert planned["edge_evals"] == scratch["edge_evals"]
    assert planned["sumtables"] == scratch["sumtables"]
    assert planned["deriv_evals"] == scratch["deriv_evals"]
    # Every planned backend charges exactly the reference op totals.
    for name in ("batched-planned", "batched-threaded4"):
        assert variants[name][1] == planned, name

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

    # -- full leg: wall-clock claims ---------------------------------------
    big = doc["spr_round_19436"]
    emit(
        "kernel_microbench_19436",
        format_table(
            ["Kernel", "Cold samples (s)", "Round 2", "Round 3",
             "Cold speedup", "Steady speedup"],
            [
                (k, "/".join(f"{s:.1f}" for s in sorted(v["cold_samples"])),
                 *(f"{s:.2f}" for s in v["round_seconds"][1:]),
                 f"{big['cold_round_speedup'][k]:.2f}x",
                 f"{big['steady_round_speedup'][k]:.2f}x")
                for k, v in full.items()
            ],
            title=f"SPR-ROUND MICROBENCH ({big['n_patterns']} patterns, "
                  "fresh subprocess per kernel)",
        ),
    )
    # Same search, same bits, same accounted work — for every kernel.
    assert len({json.dumps(v["lnls"]) for v in full.values()}) == 1
    assert len({json.dumps(v["ops"]) for v in full.values()}) == 1
    # The tentpole claim: the batched backend wins both regimes — the
    # cold round (the fused block pipeline allocates no full-pattern
    # temporaries, so it commissions ~3x less memory; observed median
    # speedup 1.3-3.4x depending on how expensive the host makes page
    # faults that day) and steady state (cache-hot block pipeline;
    # observed 1.5-1.7x).  BENCH_kernels.json records the measured
    # ratios and all three cold samples per kernel; the assert floors
    # are regression *canaries* set below the observed ranges — a real
    # collapse (batched losing a regime) fails, a slow-host rerun does
    # not.
    assert big["cold_round_speedup"]["batched"] >= 1.1, big["cold_round_speedup"]
    assert big["steady_round_speedup"]["batched"] >= 1.2, big["steady_round_speedup"]
    # No registered kernel regresses vs reference at steady state.
    for k, v in big["steady_round_speedup"].items():
        assert v >= 1.0 / NO_REGRESSION_TOLERANCE, (k, big["steady_round_speedup"])

"""One kernel sweep per parallel region — and the proof that slicing the
pattern axis per worker would give the same bits.

The engine hands kernels the whole pattern axis whatever the thread
count: the workers of the paper's Pthreads layer are virtual, their
slices are *priced* (``VirtualThreadPool.charge_region``), not executed.
Two things keep that honest:

* the paper's slice-and-combine decomposition is still **proved**:
  kernel subclasses handed to the engine here cut the axis at the one
  hook every sweep goes through (``KernelBackend._sweep``) — into the ``contiguous_chunks(m,
  T)`` a T-thread master/worker run would use — and must reproduce the
  whole-axis result bit for bit, on log-likelihoods, both branch
  derivatives, lazy-SPR insertion scores and every up/down partial;
* a call-count regression test: a T = 4 analysis makes exactly the NumPy
  calls a T = 1 analysis makes, so a kernel that re-introduces a
  per-thread loop fails by name.
"""

from collections import Counter

import numpy as np
import pytest

from tests.conftest import assert_bit_identical, full_clv
from repro.datasets import test_dataset as _make_dataset
from repro.hybrid import HybridConfig, run_hybrid_analysis
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import available_kernels, get_kernel
from repro.likelihood.kernels.base import KernelBackend
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.threads.partition import contiguous_chunks
from repro.threads.pool import VirtualThreadPool
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom

_PAL, _ = _make_dataset(n_taxa=8, n_sites=150, seed=202)
_MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


# -- kernels that really cut the axis -------------------------------------------


def _concatenate(parts: list):
    """Per-tile span results joined along the pattern axis: arrays, or
    tuples of arrays and ``None`` (an output with no pattern axis)."""
    first = parts[0]
    if isinstance(first, tuple):
        return tuple(_concatenate([p[i] for p in parts]) for i in range(len(first)))
    return None if first is None else np.concatenate(parts)


class Tiled:
    """Mix-in for a :class:`KernelBackend`: every sweep runs tile by tile
    through the ``_sweep`` hook and is stitched back together, as a
    master thread combines its workers' slices.  Subclasses say where
    the cuts are (:meth:`_tiles`) on an axis of ``n`` rows: the pattern
    axis, or a compact partial's class rows (a tip's, a site-repeat
    node's)."""

    sweeps = 0  # sweeps made / span calls they took, per instance
    spans = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.widths = Counter()  # the sweeps by their row count

    def spans_per_width(self, cut) -> int:
        """The span calls the sweeps take if ``cut(n)`` tiles ``n`` rows."""
        return sum(count * cut(n) for n, count in self.widths.items())

    def _tiles(self, n: int) -> list[slice]:
        raise NotImplementedError

    def _sweep(self, span, *operands, **fixed):
        n = len(next(a for a in operands if a is not None))
        tiles = [sl for sl in self._tiles(n) if sl.stop > sl.start]
        self.sweeps += 1
        self.spans += len(tiles)
        self.widths[n] += 1
        return _concatenate([
            span(*(None if a is None else a[sl] for a in operands), **fixed)
            for sl in tiles
        ])


class ThreadTiled(Tiled):
    """The tiles a ``n_threads``-worker region would own."""

    n_threads = 1

    def _tiles(self, n: int) -> list[slice]:
        return contiguous_chunks(n, self.n_threads)


def thread_tiled(base: str, n_threads: int) -> type[KernelBackend]:
    return type(
        f"ThreadTiled{n_threads}", (ThreadTiled, get_kernel(base)),
        {"n_threads": n_threads},
    )


def rate_models(m: int) -> dict[str, RateModel]:
    """One representative of each rate-heterogeneity family."""
    return {
        "gamma": RateModel.gamma(0.8, 4),
        "gamma+I": RateModel.gamma(0.8, 4, p_invariant=0.2),
        "cat": RateModel.cat(np.array([0.4, 1.0, 2.1]), np.arange(m) % 3),
    }


def _everything(engine: LikelihoodEngine, tree) -> dict[str, np.ndarray]:
    """Every kind of result the engine gets from its kernel: site
    log-likelihoods, all down and up partials, and per internal edge the
    Newton triples (separate and fused entry points), the edge likelihood
    and insertion scores of a leaf (with its raw site vector) and of a
    clade."""
    nodes = list(tree.postorder())
    down = engine.compute_down_partials(tree)
    up = engine.compute_up_partials(tree, down)
    out = {
        "lnl": engine.loglikelihood(tree),
        "site_lnl": engine.site_loglikelihoods(tree),
    }
    for i, node in enumerate(nodes):
        for side, parts in (("down", down), ("up", up)):
            part = parts.get(id(node))
            if part is not None:
                out[f"{side}{i}.clv"] = full_clv(part)
                out[f"{side}{i}.logscale"] = part.logscale
    leaf = next(n for n in nodes if n.is_leaf)
    clade = next(n for n in nodes if not n.is_leaf)  # a small one, first in postorder
    sub = engine.compute_down_partials(tree, subtree=leaf)[id(leaf)]
    sub_clade = engine.compute_down_partials(tree, subtree=clade)[id(clade)]
    for i, edge in enumerate(tree.internal_edges()):
        d, u = down[id(edge)], up[id(edge)]
        coef, exps, logscale = engine.edge_coefficients(d, u)
        out[f"newton{i}"] = engine.edge_lnl_and_derivatives(coef, exps, logscale, 0.31)
        fused = engine.edge_coefficients_and_derivatives(d, u, 0.31)
        out[f"fused{i}.coef"], out[f"fused{i}"] = fused[0], fused[3]
        out[f"edge{i}"] = engine.edge_loglikelihood(edge, 0.17, d, u)
        out[f"insert{i}"] = engine.insertion_loglikelihood(d, u, sub, edge.length, 0.1)
        out[f"insert_clade{i}"] = engine.insertion_loglikelihood(
            d, u, sub_clade, edge.length, 0.1
        )
        out[f"insert_site{i}"] = engine.kernel.insertion_site(
            d.operand, u.clv, sub.operand,
            engine.kernel.pmatrices(0.05), engine.kernel.pmatrices(0.1),
        )
    return {key: np.ascontiguousarray(value, dtype=np.float64) for key, value in out.items()}


def _whole_and_tiled(rm_name: str, base: str, n_threads: int):
    """``_everything`` from the kernel the name ``base`` resolves to and
    from its ``n_threads``-tiled twin, plus the two engines."""
    rm = rate_models(_PAL.n_patterns)[rm_name]
    tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
    whole = LikelihoodEngine(_PAL, _MODEL, rm, kernel_class=get_kernel(base))
    tiled = LikelihoodEngine(
        _PAL, _MODEL, rm, kernel_class=thread_tiled(base, n_threads)
    )
    want, got = _everything(whole, tree), _everything(tiled, tree)
    assert got.keys() == want.keys()
    assert tiled.ops.snapshot() == whole.ops.snapshot()
    # The axis (or a tip's class rows) really was cut, and a surplus
    # worker's empty slice never reached a span primitive.
    assert tiled.kernel.sweeps > 0 and _PAL.n_patterns in tiled.kernel.widths
    assert tiled.kernel.spans == tiled.kernel.spans_per_width(lambda n: min(n_threads, n))
    return want, got


#: Every kernel name the benchmark harness still passes (both resolve to
#: the one kernel); the axis goes with the names (ROADMAP item 1(e)).
per_kernel_and_rates = pytest.mark.parametrize(
    "rm_name,base",
    [(rm, base) for base in available_kernels() for rm in ("gamma", "cat", "gamma+I")],
)


class TestThreadSizedTilings:
    """Slice per worker, combine, compare: the decomposition the virtual
    pool prices, executed for real."""

    @pytest.mark.parametrize("n_threads", [2, 3, 4, 7])
    @per_kernel_and_rates
    def test_tiled_equals_whole_axis(self, rm_name, base, n_threads):
        want, got = _whole_and_tiled(rm_name, base, n_threads)
        for key in want:
            assert got[key].shape == want[key].shape, key
            assert got[key].tobytes() == want[key].tobytes(), key

    @per_kernel_and_rates
    def test_one_pattern_tiles_agree_to_rounding(self, rm_name, base):
        """More workers than patterns: every tile is one pattern wide, and
        a one-row operand takes BLAS's matrix-*vector* routines, which
        round differently from the matrix-matrix ones every wider tile
        (and the whole axis) gets.  So this leg is not bit for bit, and
        never was: at the parent commit, where such a run really executed
        one-pattern shards, T = 60 threads on these 89 patterns moved 4 of
        the 89 site log-likelihoods by an ulp against serial, T >= 88
        moved 13 (EXPERIMENTS.md, "What executing virtual shards cost").
        The engine cannot get there any more — see ``test_traversal_plan.
        py::TestDegenerateChunks`` — which leaves the tiles to agree to
        rounding, with no call on zero patterns and equal op totals."""
        want, got = _whole_and_tiled(rm_name, base, _PAL.n_patterns + 5)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-11, atol=0.0, err_msg=key)

    def test_the_whole_axis_kernels_make_one_span_call_per_sweep(self):
        """What the tiled kernels are compared with: no cut anywhere —
        every sweep covers the pattern axis, or a Γ tip's 16 mask rows."""
        calls = []

        class Watching(KernelBackend):
            def _sweep(self, span, *operands, **fixed):
                calls.append(len(operands[0]))
                return super()._sweep(span, *operands, **fixed)

        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        engine = LikelihoodEngine(
            _PAL, _MODEL, kernel_class=Watching, pool=VirtualThreadPool(4)
        )
        _everything(engine, tree)
        assert calls and set(calls) == {_PAL.n_patterns, 16}


# -- call counts do not depend on the thread count --------------------------------


#: Every span primitive of the kernel.
SPANS = tuple(name for name in vars(KernelBackend) if name.endswith("_span"))


def _counted_analysis(monkeypatch, n_threads: int):
    """One comprehensive analysis on the 6 x 60 smoke shape of ``bench/``,
    counting the span primitives and ``np.einsum`` by name and collecting
    every :class:`OpCounter` a kernel was given."""
    calls = dict.fromkeys([*SPANS, "einsum"], 0)
    counters = {}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    init = KernelBackend.__init__

    def collecting_init(self, model, rate_model, ops, *shape):
        counters[id(ops)] = ops
        init(self, model, rate_model, ops, *shape)

    with monkeypatch.context() as patch:
        for key in SPANS:
            patch.setattr(KernelBackend, key, counting(getattr(KernelBackend, key), key))
        patch.setattr(np, "einsum", counting(np.einsum, "einsum"))
        patch.setattr(KernelBackend, "__init__", collecting_init)
        pal, _ = _make_dataset(n_taxa=6, n_sites=60, seed=4242)
        result = run_hybrid_analysis(pal, HybridConfig(
            n_processes=1, n_threads=n_threads,
            comprehensive=ComprehensiveConfig(
                n_bootstraps=2, seed_p=12345, seed_x=12345,
                stage_params=StageParams(slow_max_rounds=2, thorough_max_rounds=3),
            ),
        ))
    ops = Counter()
    for counter in counters.values():
        ops.update(counter.snapshot())
    return calls, dict(ops), result


def test_call_counts_do_not_depend_on_the_thread_count(monkeypatch):
    serial_calls, serial_ops, serial = _counted_analysis(monkeypatch, 1)
    threaded_calls, threaded_ops, threaded = _counted_analysis(monkeypatch, 4)
    assert min(serial_calls[k] for k in ("_propagate_span", "_derivatives_span", "einsum")) > 0
    assert threaded_calls == serial_calls  # one sweep per region, not T
    assert threaded_ops == serial_ops and serial_ops["pattern_ops"] > 0
    assert_bit_identical(serial, threaded)
    # ... while the virtual pool did price four workers per region.
    assert threaded.total_seconds != serial.total_seconds


#: The span-primitive and ``np.einsum`` calls of :func:`_counted_analysis`.
#: At 60 sites the analysis is dispatch-bound, so below the fused regime a
#: change may not add a NumPy call unnoticed: a count that grows fails
#: here.  A tip is a compact partial, so each tip contribution the
#: contribution LRU does not hold is one move of the tip's class rows
#: (``_propagate_span``; under CAT an ``einsum``).  ``_edge_site_span``
#: is not reached (the searches score edges through the sumtable).
PINNED_CALLS = {
    "_propagate_span": 3839, "_root_site_span": 714,
    "_edge_site_span": 0, "_insertion_span": 380, "_sumtable_span": 333,
    "_derivatives_span": 1582, "einsum": 1102,
}


@pytest.mark.parametrize("n_threads", [1, 4])
def test_span_and_einsum_calls_are_pinned(monkeypatch, n_threads):
    calls, _, _ = _counted_analysis(monkeypatch, n_threads)
    assert calls == PINNED_CALLS

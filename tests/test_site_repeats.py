"""Site repeats: a down partial computed once per distinct sub-column of
its clade and kept compact — one row per class plus each pattern's
class — must read, in every consumer, as the uncompressed partial, bit
for bit.

Below a clade's root, a pattern's CLV depends only on the clade's tip
states (and, under CAT, on the pattern's category), so patterns that
agree there share one value (Kobert, Stamatakis & Flouri, Syst. Biol.
2017).  The engine computes such a node on one representative row per
class (``KernelBackend.repeat_partial``) when its clade has 2 to m/2
classes, on alignments of ``fuse_min_patterns`` patterns or more.  The
kernel subclasses here lower that threshold to one pattern, as the fused
pipeline's tests do, and are held to the default kernel — which on
these small alignments compresses nothing — on every down and up
partial, log-likelihood, Newton triple and insertion score, and on
whole analyses; the real threshold's cache holds class rows.  The
class table (``SiteClasses``) is held to a brute-force grouping of the
sub-columns, to its sharing and rebuild rules and to its bound.
"""

import numpy as np
import pytest

from repro.datasets import test_dataset as _make_dataset
from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.hybrid import HybridConfig, run_hybrid_analysis
from repro.likelihood import engine as engine_module
from repro.likelihood.engine import LikelihoodEngine, RateModel, SiteClasses
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels.base import SCALE_MIN, KernelBackend
from repro.likelihood.plan import subtree_postorder
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.hillclimb import hill_climb
from repro.search.searches import StageParams
from repro.seq.alignment import Alignment
from repro.seq.encoding import TIP_ROWS
from repro.seq.patterns import compress_alignment
from repro.tree.newick import parse_newick
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom
from tests.conftest import assert_bit_identical, full_clv
from tests.test_kernel_sweeps import _everything, rate_models
from tests.test_traversal_plan import TinyBlocked

MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


class Repeats(KernelBackend):
    """The default kernel with its large-alignment regime (site repeats
    and the fused pipeline) at any pattern count."""

    fuse_min_patterns = 1


class TinyRepeats(TinyBlocked):
    """The same regime, every sweep cut into 7-row tiles — the pattern
    axis, or a repeat node's class rows."""

    fuse_min_patterns = 1


def _ambiguous_pal(n_taxa: int, n_sites: int, seed: int, share: float = 0.06):
    """A simulated alignment with a ``share`` of its cells replaced by
    random masks: IUPAC ambiguity codes, gaps (15) and other bases."""
    aln, _ = simulate_alignment(SimulationParams(n_taxa=n_taxa, n_sites=n_sites, seed=seed))
    rng = np.random.default_rng(seed)
    matrix = aln.matrix.copy()
    hit = rng.random(matrix.shape) < share
    matrix[hit] = rng.integers(1, 16, size=int(hit.sum()))
    return compress_alignment(Alignment(aln.taxa, matrix))


_PALS = {n: _ambiguous_pal(n, sites, 40 + n) for n, sites in ((6, 400), (12, 300), (40, 300))}


@pytest.fixture()
def repeat_calls(monkeypatch):
    """Every ``repeat_partial`` call's class count, in call order."""
    calls = []
    inner = KernelBackend.repeat_partial

    def counting(self, specs, logscales, index, reps):
        calls.append(len(reps))
        return inner(self, specs, logscales, index, reps)

    monkeypatch.setattr(KernelBackend, "repeat_partial", counting)
    return calls


@pytest.fixture()
def compact_reads(monkeypatch):
    """The consumers that were handed a compact site-repeat partial: the
    level batches (down and up), a repeat node, the whole-axis and the
    block readers, and the per-edge kernels with the insertion's
    transport.  Tips are compact everywhere; their class rows are
    read-only, a repeat node's are the kernel's fresh output."""
    seen = set()

    def note(name, *operands):
        repeat = any(isinstance(x, tuple) and x[0].flags.writeable for x in operands)
        return {name} if repeat else set()

    def specs(nodes):
        return [payload for node in nodes for _, _, payload in node[0]]

    tests = {
        "level_partials": lambda nodes: note("level", *specs(nodes)),
        "up_level_partials": lambda nodes: note("up", *specs(nodes)),
        "repeat_partial": lambda sp, *_: note("repeat", *(p for _, _, p in sp)),
        "_contrib": lambda t, payload, p2c: note("whole", payload),
        "_sources": lambda inputs: note("blocks", *(p for _, _, p in inputs)),
        "edge_site": lambda uclv, pmats, dclv: note("edge_site", dclv),
        "insertion_site": lambda dclv, *_: note("insertion", dclv),
        "_insertion_transport": lambda sclv, pmats: note("transport", sclv),
        "sumtable": lambda uclv, dclv: note("sumtable", dclv),
    }
    for name, test in tests.items():
        inner = getattr(KernelBackend, name)

        def noting(self, *args, _inner=inner, _test=test):
            seen.update(_test(*args))
            return _inner(self, *args)

        monkeypatch.setattr(KernelBackend, name, noting)
    return seen


def _brute_force_classes(pal, leaves: list[int], p2c) -> list[tuple]:
    """Each pattern's sub-column over ``leaves`` (and category)."""
    cols = pal.patterns[sorted(leaves)].T
    cats = np.zeros(pal.n_patterns, dtype=int) if p2c is None else p2c
    return [(*col.tolist(), int(cat)) for col, cat in zip(cols, cats)]


def _leaves(node) -> list[int]:
    return [n.leaf_index for n in subtree_postorder(node) if n.is_leaf]


def _leafsets(tree) -> dict[int, int]:
    return {
        id(n): sum(1 << i for i in _leaves(n)) for n in tree.postorder()
    }


class TestBitIdentity:
    def test_the_data_has_ambiguity_codes_and_gaps(self):
        for pal in _PALS.values():
            masks = set(np.unique(pal.patterns).tolist())
            assert 15 in masks and masks - {1, 2, 4, 8, 15}

    @pytest.mark.parametrize("kernel", [Repeats, TinyRepeats])
    @pytest.mark.parametrize("n_taxa", sorted(_PALS))
    @pytest.mark.parametrize("rm_name", ["gamma", "gamma+I", "cat"])
    def test_everything_equals_the_uncompressed(
        self, rm_name, n_taxa, kernel, repeat_calls, compact_reads
    ):
        """Every consumer of a down partial is fed compact ones — in the
        block regime under Γ, the whole-axis one under CAT — and gives
        the uncompressed engine's bits."""
        pal = _PALS[n_taxa]
        rm = rate_models(pal.n_patterns)[rm_name]
        tree = yule_tree(pal.taxa, RAxMLRandom(n_taxa))
        plain = LikelihoodEngine(pal, MODEL, rm)
        squeezed = LikelihoodEngine(pal, MODEL, rm, kernel_class=kernel)
        assert plain._classes is None and squeezed._classes is not None
        want = _everything(plain, tree)
        assert not repeat_calls and not compact_reads
        got = _everything(squeezed, tree)
        assert repeat_calls and min(repeat_calls) >= 2
        assert max(repeat_calls) <= pal.n_patterns // 2
        expected = {
            "level", "up", "repeat", "blocks" if rm_name != "cat" else "whole",
            "edge_site", "insertion", "transport", "sumtable",
        }
        if rm_name == "cat" and n_taxa < 40:
            # Three categories: past a cherry the classes outgrow m/2, so
            # no repeat node has an inner child here.
            expected.discard("repeat")
        assert compact_reads == expected
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key
        assert squeezed.ops.snapshot() == plain.ops.snapshot()

    @pytest.mark.parametrize("rm_name", ["gamma", "cat"])
    def test_class_rows_below_the_threshold_are_read_whole(
        self, rm_name, repeat_calls, monkeypatch
    ):
        """The real threshold's shape: the axis reaches
        ``fuse_min_patterns`` and a repeat node's class rows (at most m/2)
        do not, so under Γ the level nodes read blocks and the repeat
        nodes whole rows — to the uncompressed bits."""
        pal = _PALS[12]
        m = pal.n_patterns
        kernel = type("AtTheAxis", (KernelBackend,), {"fuse_min_patterns": m, "fuse_block": 64})
        rm = rate_models(m)[rm_name]
        tree = yule_tree(pal.taxa, RAxMLRandom(12))
        want = _everything(LikelihoodEngine(pal, MODEL, rm), tree)
        reads = []  # (a node's row count, whether it read blocks)
        rows, sources = KernelBackend._rows, KernelBackend._sources

        def length(inputs):
            payload = inputs[0][2]  # a compact partial's rows: its index's
            return len(payload[1] if isinstance(payload, tuple) else payload)

        def whole(self, inputs, p2c):
            reads.append((length(inputs), False))
            return rows(self, inputs, p2c)

        def blocked(self, inputs):
            reads.append((length(inputs), True))
            return sources(self, inputs)

        monkeypatch.setattr(KernelBackend, "_rows", whole)
        monkeypatch.setattr(KernelBackend, "_sources", blocked)
        got = _everything(LikelihoodEngine(pal, MODEL, rm, kernel_class=kernel), tree)
        assert repeat_calls
        assert {blocks for n, blocks in reads if n < m} == {False}
        assert {blocks for n, blocks in reads if n == m} == {rm_name == "gamma"}
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key

    def test_scaled_rows_and_child_logscales(self):
        """Children near underflow: the node's product scales some rows,
        and the children's non-zero log-scalers are gathered and
        expanded too."""
        pal = _PALS[6]
        m = pal.n_patterns
        kernel = Repeats(MODEL, RateModel.gamma(0.8, 4), engine_module.OpCounter(), m, pal.n_taxa)
        rng = np.random.default_rng(7)
        index = rng.integers(0, 9, size=m)
        index[:9] = np.arange(9)
        reps = np.arange(9)
        base = rng.random((9, 4, 4))
        base[::2] *= 1e-40  # classes whose product falls below SCALE_MIN
        clv = base[index]
        logscale = np.where(index % 3 == 0, np.log(SCALE_MIN), 0.0)
        tip = (np.broadcast_to(TIP_ROWS[:, None], (16, 4, 4)), pal.patterns[0][index])
        specs = [(1, 0.2, clv), (2, 0.3, clv), (3, 0.1, tip)]
        want = kernel.level_partials([(specs, [logscale, logscale, None])])[0]
        got = kernel.repeat_partial(specs, [logscale, logscale, None], index, reps)
        assert (want.logscale < 2 * np.log(SCALE_MIN)).any()
        assert got.clv.shape == (len(reps), 4, 4) and got.index is index
        assert full_clv(got).tobytes() == want.clv.tobytes()
        assert got.logscale.tobytes() == want.logscale.tobytes()

    def test_a_single_class_clade_runs_in_the_level_batch(self, repeat_calls):
        """Two taxa constant over every column: their cherry has one
        class, and one row is never run alone (BLAS's matrix-vector
        routines round differently), so it joins the level batch."""
        aln, _ = simulate_alignment(SimulationParams(n_taxa=6, n_sites=200, seed=3))
        matrix = aln.matrix.copy()
        matrix[0] = matrix[1] = 1
        pal = compress_alignment(Alignment(aln.taxa, matrix))
        names = pal.taxa
        tree = parse_newick(
            f"(({names[0]}:0.1,{names[1]}:0.2):0.1,({names[2]}:0.1,{names[3]}:0.3):0.2,"
            f"({names[4]}:0.2,{names[5]}:0.1):0.1);",
            taxa=names,
        )
        rm = RateModel.gamma(0.8, 4)
        plain = LikelihoodEngine(pal, MODEL, rm)
        squeezed = LikelihoodEngine(pal, MODEL, rm, kernel_class=Repeats)
        want, got = _everything(plain, tree), _everything(squeezed, tree)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key
        cherry = tree.root.children[0]
        index, reps = squeezed._classes.of(cherry, _leafsets(tree))
        assert len(reps) == 1 and not index.any()
        assert repeat_calls and 1 not in repeat_calls

    @pytest.mark.parametrize("n_processes,n_threads", [(1, 1), (2, 2)])
    def test_whole_analysis(self, monkeypatch, n_processes, n_threads, repeat_calls):
        """A comprehensive analysis (CAT searches, Γ final evaluation) with
        the regime forced on equals the default run, virtual seconds and
        op totals included; ranks are forked, so the patch reaches them."""
        pal, _ = _make_dataset(n_taxa=6, n_sites=90, seed=301)
        config = HybridConfig(
            n_processes=n_processes, n_threads=n_threads,
            comprehensive=ComprehensiveConfig(
                n_bootstraps=4, cat_categories=3,
                stage_params=StageParams(
                    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
                    thorough_max_rounds=2, brlen_passes=1,
                ),
            ),
        )
        plain = run_hybrid_analysis(pal, config)
        monkeypatch.setattr(KernelBackend, "fuse_min_patterns", 1)
        squeezed = run_hybrid_analysis(pal, config)
        assert_bit_identical(plain, squeezed, timings=True)
        if n_processes == 1:  # a one-rank world runs in this process
            assert repeat_calls


class TestCompactPartials:
    @pytest.mark.parametrize("rm_name", ["gamma", "cat"])
    def test_one_row_per_class(self, rm_name):
        """A repeat node's partial keeps its clade's class rows and index,
        a tip its own; the log-scaler and every other partial cover all m
        patterns."""
        pal = _PALS[12]
        m = pal.n_patterns
        engine = LikelihoodEngine(pal, MODEL, rate_models(m)[rm_name], kernel_class=Repeats)
        tree = yule_tree(pal.taxa, RAxMLRandom(12))
        down, leafsets = engine.compute_down_partials(tree), _leafsets(tree)
        rows = engine.kernel.clv_shape[1:]
        compact = 0
        for node in tree.postorder():
            part = down[id(node)]
            assert part.logscale.shape == (m,)
            if node.is_leaf:
                assert part is engine._tips[node.leaf_index]
                continue
            if part.index is None:
                assert part.clv.shape == (m, *rows)
                continue
            index, reps = engine._classes.of(node, leafsets)
            assert part.index is index and part.clv.shape == (len(reps), *rows)
            assert part.operand[0] is part.clv and part.operand[1] is index
            compact += 1
        assert compact >= 3

    def test_the_clv_cache_holds_class_rows(self):
        """On ``wide_1x1``'s input (8 taxa, 40,000 sites, 4,610 patterns:
        the real threshold), the CLVs a hill climb leaves in the cache
        take less than half the bytes they would over every pattern."""
        aln, _ = simulate_alignment(SimulationParams(n_taxa=8, n_sites=40_000, seed=4242))
        pal = compress_alignment(aln)
        assert pal.n_patterns >= KernelBackend.fuse_min_patterns
        engine = LikelihoodEngine(pal, MODEL, RateModel.gamma(0.8, 4), clv_cache=True)
        hill_climb(
            engine, yule_tree(pal.taxa, RAxMLRandom(7)), max_rounds=3, brlen_passes=1,
            rng=RAxMLRandom(3),
        )
        parts = list(engine.clv_cache._store.values())
        held = sum(part.clv.nbytes for part in parts)
        expanded = sum(pal.n_patterns * part.clv[0].nbytes for part in parts)
        assert len(parts) == engine.clv_cache.max_entries
        assert held < expanded / 2


class TestClassTable:
    @pytest.mark.parametrize("rm_name", ["gamma", "cat"])
    def test_agrees_with_brute_force_grouping(self, rm_name):
        pal = _PALS[12]
        rm = rate_models(pal.n_patterns)[rm_name]
        engine = LikelihoodEngine(pal, MODEL, rm, kernel_class=Repeats)
        tree = yule_tree(pal.taxa, RAxMLRandom(3))
        leafsets = _leafsets(tree)
        checked = 0
        for node in tree.postorder():
            if node.is_leaf:
                continue
            columns = _brute_force_classes(pal, _leaves(node), rm.pattern_to_cat)
            n_classes = len(set(columns))
            entry = engine._classes.of(node, leafsets)
            if n_classes > pal.n_patterns // 2:
                assert entry is None
                continue
            index, reps = entry
            assert len(reps) == n_classes
            # Same class exactly when the same sub-column (and category).
            pairs = set(zip(index.tolist(), columns))
            assert len(pairs) == n_classes
            # Each representative belongs to its class.
            assert (index[reps] == np.arange(n_classes)).all()
            checked += 1
        assert checked >= 3

    def test_survives_copies_moves_and_siblings(self, monkeypatch):
        pal = _PALS[12]
        engine = LikelihoodEngine(
            pal, MODEL, RateModel.gamma(0.8, 4), kernel_class=Repeats, clv_cache=True
        )
        tree = yule_tree(pal.taxa, RAxMLRandom(11))
        engine.loglikelihood(tree)
        built = []
        inner = SiteClasses._build
        monkeypatch.setattr(
            SiteClasses, "_build",
            lambda self, node, leafsets: built.append(leafsets[id(node)]) or inner(self, node, leafsets),
        )
        # A copy has the same clades; new models and weights keep the table.
        engine.with_model(MODEL.with_rates((1.0, 2.0, 1.0, 1.0, 2.0, 1.0))).loglikelihood(tree.copy())
        engine.with_weights(np.ones(pal.n_patterns)).loglikelihood(tree.copy())
        assert not built
        for sibling in (engine.with_model(MODEL), engine.with_weights(pal.weights),
                        engine.with_rate_model(RateModel.gamma(0.5, 4))):
            assert sibling._classes is engine._classes
        # An SPR move builds only the clades it creates.
        before = _leafsets(tree)
        moved = tree.copy()
        edges = [n for n in moved.postorder() if n.parent is not None]
        moved.spr(edges[3], edges[-2])
        engine.loglikelihood(moved)
        assert built
        assert not set(built) & set(before.values())

    def test_rebuilt_when_the_categories_differ(self):
        pal = _PALS[12]
        m = pal.n_patterns
        cat = RateModel.cat(np.array([0.4, 1.0, 2.1]), np.arange(m) % 3)
        engine = LikelihoodEngine(pal, MODEL, cat, kernel_class=Repeats)
        same = engine.with_rate_model(RateModel.cat(np.array([0.5, 1.0, 2.0]), np.arange(m) % 3))
        assert same._classes is engine._classes
        for other in (RateModel.cat(np.array([0.4, 2.1]), np.arange(m) % 2),
                      RateModel.gamma(0.8, 4)):
            assert engine.with_rate_model(other)._classes is not engine._classes
        tree = yule_tree(pal.taxa, RAxMLRandom(2))
        shifted = engine.with_rate_model(RateModel.cat(np.array([0.4, 2.1]), np.arange(m) % 2))
        node = next(n for n in tree.postorder() if not n.is_leaf)
        leafsets = _leafsets(tree)
        a, b = engine._classes.of(node, leafsets), shifted._classes.of(node, leafsets)
        assert a is not None and b is not None and len(a[1]) != len(b[1])

    def test_the_store_stays_within_its_bound(self):
        pal = _PALS[12]
        engine = LikelihoodEngine(pal, MODEL, RateModel.gamma(0.8, 4), kernel_class=Repeats)
        table = engine._classes
        assert table.capacity == pal.n_taxa + 32
        for seed in range(1, 41):
            engine.loglikelihood(yule_tree(pal.taxa, RAxMLRandom(seed)))
            assert len(table._store) <= table.capacity
        assert len(table._store) == table.capacity
        for entry in table._store.values():
            if entry is not None:
                index, reps = entry
                assert index.dtype == np.min_scalar_type(len(reps) - 1)
                assert reps.dtype == np.min_scalar_type(pal.n_patterns - 1)

    def test_ancestors_of_a_wide_clade_are_never_hashed(self, monkeypatch):
        pal = _PALS[40]
        engine = LikelihoodEngine(pal, MODEL, RateModel.gamma(0.8, 4), kernel_class=Repeats)
        tree = yule_tree(pal.taxa, RAxMLRandom(9))
        folds = []
        inner = engine_module._fold
        monkeypatch.setattr(
            engine_module, "_fold",
            lambda *args: folds.append(args) or inner(*args),
        )
        built = []
        build = SiteClasses._build
        monkeypatch.setattr(
            SiteClasses, "_build",
            lambda self, node, leafsets: built.append(
                (node, len(folds), build(self, node, leafsets), len(folds))
            ) or built[-1][2],
        )
        engine.loglikelihood(tree)
        wide = {id(node) for node, _, entry, _ in built if entry is None}
        parents = [
            (entry, lo, hi) for node, lo, entry, hi in built
            if any(id(ch) in wide for ch in node.children)
        ]
        assert parents  # the root at least
        for entry, lo, hi in parents:
            assert entry is None and hi == lo, "an ancestor of a wide clade was hashed"

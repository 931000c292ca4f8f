"""The kernel-backend interface of the likelihood core.

A :class:`KernelBackend` owns every pattern-axis computation the engine
issues: CLV propagation (tip-specialised and generic), per-edge site
likelihoods, lazy-SPR insertion scores, the Newton sumtable, and the
derivative evaluations.  The engine decides *what* to compute (traversal
plans, reductions, rescaling); backends decide *how* each pattern slice
is computed.

Sharding.  A backend is constructed with a list of pattern *shards* (the
slices the virtual thread pool assigns to its workers).  Every public
kernel runs once per shard — genuinely exercising RAxML's master/worker
decomposition — and writes its slice of a shared full-pattern output
array.  Because every per-pattern value is computed by the same
arithmetic regardless of how the axis is sliced, serial (one shard) and
threaded (many shards) execution produce **bit-identical** arrays; the
engine's reductions then run once over the full pattern axis, so final
log-likelihoods are bit-identical by construction too.  Empty shards are
dropped at construction: a surplus worker (``n_threads > n_patterns``)
never triggers a zero-length kernel call.

Accounting.  Kernels, not the engine, charge the shared
:class:`OpCounter` — exactly once per *logical* invocation with the full
pattern count, so op totals are identical for serial, threaded, and
(cold-)cached runs.  Multi-operand ``einsum`` contractions are avoided in
favour of fixed two-operand steps: ``optimize=True`` picks contraction
paths by operand shape, which would make results depend on shard sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.rates import RateModel
from repro.seq.encoding import state_likelihood_rows


@dataclass
class OpCounter:
    """Counts likelihood-kernel work in *pattern operations*.

    One pattern-op is the computation of one pattern's CLV entry set at one
    node (times the number of rate categories).  The counter feeds both the
    virtual thread pool (fine-grained timing) and cross-checks of the
    analytic cost model.

    ``clv_updates`` counts CLV propagations, ``edge_evals`` across-edge
    likelihood evaluations, ``sumtables`` Newton coefficient-table builds,
    and ``deriv_evals`` (lnL, d1, d2) evaluations on a sumtable.  All four
    feed ``pattern_ops``.

    ``n`` batches a charge: a kernel that executes a whole traversal
    level as one tensor contraction charges ``n`` logical operations in
    one call, so op totals stay *exactly* equal to the per-node reference
    — batching (like sharding) is an execution detail, not less work.
    """

    pattern_ops: int = 0
    clv_updates: int = 0
    edge_evals: int = 0
    sumtables: int = 0
    deriv_evals: int = 0

    def charge_clv(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.clv_updates += n

    def charge_edge(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.edge_evals += n

    def charge_sumtable(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.sumtables += n

    def charge_deriv(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.deriv_evals += n

    def snapshot(self) -> dict[str, int]:
        return {
            "pattern_ops": self.pattern_ops,
            "clv_updates": self.clv_updates,
            "edge_evals": self.edge_evals,
            "sumtables": self.sumtables,
            "deriv_evals": self.deriv_evals,
        }


@dataclass
class Partial:
    """A CLV plus its per-pattern log-scaler."""

    clv: np.ndarray  # gamma: (m, k, 4) (tips: (m, 4)); cat: (m, 4)
    logscale: np.ndarray  # (m,)


class KernelBackend:
    """Base class: shard iteration, op charging, and the reference math.

    Subclasses customise execution by overriding :meth:`_spans` (how each
    shard is further subdivided, e.g. cache blocking) or the ``_*_span``
    primitives.  Registering a subclass makes it selectable by name via
    the engine's ``kernel=`` parameter (see
    :func:`repro.likelihood.kernels.register_kernel`).
    """

    #: Registry name; subclasses must override.
    name = ""
    #: Whether the engine's signature-keyed CLV cache (``clv_cache=True``)
    #: is honoured when this backend computes partials.  Backends that
    #: bypass the engine's partial bookkeeping set this False so the CLI
    #: can reject a ``--clv-cache`` request that would silently do nothing.
    uses_clv_cache = True
    #: Level-batched execution contract.  A backend that sets this True
    #: must additionally provide ``pmatrices(t)`` (memoised transition
    #: matrices), ``level_partials(nodes)`` (down partials for a whole
    #: traversal level, charging one CLV update per child edge),
    #: ``level_contribs(specs)`` (propagate one traversal level's child
    #: contributions in a batch, charging one CLV update per spec),
    #: ``combine(contribs, logscales)`` (product + rescale into a
    #: :class:`Partial`), and ``up_level_partials(nodes)`` (one preorder
    #: level of up partials — per node: transport the parent-side
    #: partial across the node's edge, then one combined partial per
    #: child — charging one CLV update per child edge plus one per
    #: transported partial).  The engine then dispatches
    #: ``compute_down_partials``/``compute_up_partials`` level-wise
    #: instead of op-by-op; results must stay bit-identical.
    supports_levels = False

    def __init__(
        self,
        model: GTRModel,
        rate_model: RateModel,
        shards: list[slice],
        ops: OpCounter,
        n_patterns: int,
    ) -> None:
        self.model = model
        self.rate_model = rate_model
        self.ops = ops
        self.n_patterns = n_patterns
        self.n_categories = rate_model.n_categories
        self.is_cat = rate_model.kind == "cat"
        #: Degenerate-chunk guard: surplus workers own empty slices; they
        #: are dropped here so no kernel ever runs on zero patterns.
        self.shards = [s for s in shards if s.stop > s.start]
        self.tip_rows = state_likelihood_rows()

    # -- shard/block iteration ------------------------------------------------

    def _spans(self) -> Iterator[tuple[slice, np.ndarray | None]]:
        """Yield ``(pattern_slice, pattern_to_cat_slice)`` work spans.

        The reference backend processes each shard whole; a subclass may
        override this to subdivide shards further.  CAT slices are taken lazily so the
        full-axis assignment array is the single source of truth.
        """
        p2c = self.rate_model.pattern_to_cat
        for sl in self.shards:
            yield sl, (p2c[sl] if self.is_cat else None)

    # -- output allocation ----------------------------------------------------

    def _clv_out(self) -> np.ndarray:
        m, k = self.n_patterns, self.n_categories
        shape = (m, 4) if self.is_cat else (m, k, 4)
        return np.empty(shape)

    # -- span primitives (the reference math) --------------------------------

    def _propagate_span(
        self, pmats: np.ndarray, clv: np.ndarray, p2c: np.ndarray | None
    ) -> np.ndarray:
        """Apply per-category transition matrices to one span of a CLV."""
        if self.is_cat:
            return np.einsum("pab,pb->pa", pmats[p2c], clv, optimize=True)
        if clv.ndim == 2:  # tip: broadcast over categories
            return np.einsum("kab,mb->mka", pmats, clv, optimize=True)
        return np.einsum("kab,mkb->mka", pmats, clv, optimize=True)

    def _tip_gather_span(
        self, table: np.ndarray, masks: np.ndarray, p2c: np.ndarray | None
    ) -> np.ndarray:
        """Gather one span of propagated tip CLVs from the 16-mask table."""
        if self.is_cat:
            return table[p2c, masks]
        return np.ascontiguousarray(table[:, masks, :].transpose(1, 0, 2))

    def _root_site_span(self, clv: np.ndarray) -> np.ndarray:
        pi = self.model.pi
        if self.is_cat:
            return clv @ pi
        return np.einsum("mka,a->m", clv, pi) / self.n_categories

    def _edge_site_span(
        self,
        uclv: np.ndarray,
        pmats: np.ndarray,
        dclv: np.ndarray,
        p2c: np.ndarray | None,
    ) -> np.ndarray:
        moved = self._propagate_span(pmats, dclv, p2c)
        pi = self.model.pi
        if self.is_cat:
            return np.einsum("pa,pa->p", uclv * pi, moved, optimize=True)
        site = np.einsum("mka,mka->m", uclv * pi, moved, optimize=True)
        return site / self.n_categories

    def _sumtable_span(
        self, uclv: np.ndarray, dclv: np.ndarray, p2c: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One span of RAxML's sumtable; returns ``(coef, exps_or_None)``
        (the exponent table is pattern-dependent only in CAT mode)."""
        lam, u, u_inv, _ = self.model._spectral
        pi = self.model.pi
        rates = self.rate_model.rates
        if self.is_cat:
            x = (uclv * pi[None, :]) @ u  # (m, 4)
            y = dclv @ u_inv.T  # (m, 4)
            return x * y, np.outer(rates, lam)[p2c]
        x = np.einsum("mka,aj->mkj", uclv * pi, u, optimize=True)
        y = np.einsum("mkb,jb->mkj", dclv, u_inv, optimize=True)
        return x * y / self.n_categories, None

    def _derivatives_span(
        self, coef: np.ndarray, e: np.ndarray, exps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern (site, d1, d2) for one span of the sumtable."""
        if self.is_cat:
            term = coef * e  # (m, 4)
            site = term.sum(axis=1)
            d1 = (term * exps).sum(axis=1)
            d2 = (term * exps * exps).sum(axis=1)
        else:
            term = coef * e[None, :, :]  # (m, k, 4)
            site = term.sum(axis=(1, 2))
            d1 = (term * exps[None]).sum(axis=(1, 2))
            d2 = (term * exps[None] * exps[None]).sum(axis=(1, 2))
        return site, d1, d2

    # -- public kernels (full-pattern arrays; charge once per invocation) ----

    def propagate(self, pmats: np.ndarray, clv: np.ndarray) -> np.ndarray:
        """Parent-side contribution of a child CLV across its edge."""
        out = self._clv_out()
        for sl, p2c in self._spans():
            out[sl] = self._propagate_span(pmats, clv[sl], p2c)
        self.ops.charge_clv(self.n_patterns, self.n_categories)
        return out

    def propagate_tip(self, pmats: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Tip-specialised propagation (RAxML's tip-case kernels).

        A tip CLV takes one of only 16 values (the IUPAC masks), so the
        matrix product is precomputed per mask — ``P @ rows[mask]`` for all
        16 masks and every category — and the per-pattern result is a pure
        gather.  O(16·k) arithmetic instead of O(m·k).
        """
        # (k, 16, 4): for each category, the propagated CLV of each mask.
        table = np.einsum("kab,sb->ksa", pmats, self.tip_rows, optimize=True)
        out = self._clv_out()
        for sl, p2c in self._spans():
            out[sl] = self._tip_gather_span(table, masks[sl], p2c)
        self.ops.charge_clv(self.n_patterns, self.n_categories)
        return out

    def root_site(self, clv: np.ndarray) -> np.ndarray:
        """Per-pattern site likelihoods of a root CLV (uncharged: the
        engine charges the enclosing reduction, as RAxML's evaluate job)."""
        out = np.empty(self.n_patterns)
        for sl, _ in self._spans():
            out[sl] = self._root_site_span(clv[sl])
        return out

    def edge_site(
        self, uclv: np.ndarray, pmats: np.ndarray, dclv: np.ndarray
    ) -> np.ndarray:
        """Per-pattern site likelihoods across one edge."""
        out = np.empty(self.n_patterns)
        for sl, p2c in self._spans():
            out[sl] = self._edge_site_span(uclv[sl], pmats, dclv[sl], p2c)
        self.ops.charge_edge(self.n_patterns, self.n_categories)
        return out

    def insertion_site(
        self,
        dclv: np.ndarray,
        uclv: np.ndarray,
        sclv: np.ndarray,
        pmats_half: np.ndarray,
        pmats_sub: np.ndarray,
    ) -> np.ndarray:
        """Lazy-SPR per-pattern site likelihoods: both edge halves and the
        pruned subtree propagated to the virtual insertion node.

        Charged as two CLV updates plus one edge evaluation (the subtree
        transport rides inside the edge job), matching RAxML's lazy-SPR
        kernel structure.
        """
        out = np.empty(self.n_patterns)
        for sl, p2c in self._spans():
            c1 = self._propagate_span(pmats_half, dclv[sl], p2c)
            c2 = self._propagate_span(pmats_half, uclv[sl], p2c)
            c3 = self._propagate_span(pmats_sub, sclv[sl], p2c)
            out[sl] = self._root_site_span(c1 * c2 * c3)
        self.ops.charge_clv(self.n_patterns, self.n_categories)
        self.ops.charge_clv(self.n_patterns, self.n_categories)
        self.ops.charge_edge(self.n_patterns, self.n_categories)
        return out

    def sumtable(
        self, uclv: np.ndarray, dclv: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eigenbasis coefficient table for one edge (RAxML's sumtable).

        Returns ``(coef, exps)``; see
        :meth:`repro.likelihood.engine.LikelihoodEngine.edge_coefficients`.
        """
        lam = self.model._spectral[0]
        rates = self.rate_model.rates
        if self.is_cat:
            coef = np.empty((self.n_patterns, 4))
            exps = np.empty((self.n_patterns, 4))
            for sl, p2c in self._spans():
                coef[sl], exps[sl] = self._sumtable_span(uclv[sl], dclv[sl], p2c)
        else:
            coef = np.empty((self.n_patterns, self.n_categories, 4))
            for sl, p2c in self._spans():
                coef[sl], _ = self._sumtable_span(uclv[sl], dclv[sl], p2c)
            exps = np.outer(rates, lam)  # (k, 4)
        self.ops.charge_sumtable(self.n_patterns, self.n_categories)
        return coef, exps

    def derivatives(
        self, coef: np.ndarray, exps: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern (site, dsite/dt, d²site/dt²) of the edge function."""
        m = self.n_patterns
        site, d1, d2 = np.empty(m), np.empty(m), np.empty(m)
        e_gamma = None if self.is_cat else np.exp(exps * t)
        for sl, _ in self._spans():
            x = exps[sl] if self.is_cat else exps
            e = np.exp(x * t) if self.is_cat else e_gamma
            site[sl], d1[sl], d2[sl] = self._derivatives_span(coef[sl], e, x)
        self.ops.charge_deriv(self.n_patterns, self.n_categories)
        return site, d1, d2

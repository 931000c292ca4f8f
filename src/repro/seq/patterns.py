"""Pattern compression: collapsing identical alignment columns.

    "Because some character positions may be redundant, the number of
    distinct columns, called patterns, is a more descriptive parameter
    than the number of characters."  — paper, Section 3

RAxML compresses the alignment once at start-up into (pattern, weight)
pairs; every likelihood computation then runs over patterns and multiplies
each per-pattern log-likelihood by its weight.  The fine-grained Pthreads
parallelization slices exactly this pattern axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.seq.alignment import Alignment


@dataclass(frozen=True)
class PatternAlignment:
    """A pattern-compressed alignment.

    Attributes
    ----------
    taxa:
        Taxon labels (same order as the source alignment).
    patterns:
        ``(n_taxa, n_patterns)`` array of distinct columns (state masks).
    weights:
        ``(n_patterns,)`` integer multiplicities; ``weights.sum()`` equals
        the number of sites of the source alignment.
    site_to_pattern:
        ``(n_sites,)`` map from original site index to pattern index, so a
        bootstrap replicate over *sites* can be converted to new pattern
        *weights* without touching the matrix.
    """

    taxa: tuple[str, ...]
    patterns: np.ndarray
    weights: np.ndarray
    site_to_pattern: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.taxa, tuple):
            object.__setattr__(self, "taxa", tuple(self.taxa))
        pats = np.asarray(self.patterns, dtype=np.uint8)
        w = np.asarray(self.weights, dtype=np.int64)
        s2p = np.asarray(self.site_to_pattern, dtype=np.intp)
        if pats.ndim != 2:
            raise ValueError("patterns must be 2-D")
        if pats.size and pats.max() > 15:
            raise ValueError("patterns must hold 4-bit state masks (0...15)")
        if w.shape != (pats.shape[1],):
            raise ValueError("weights length must equal the number of patterns")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if s2p.size and (s2p.min() < 0 or s2p.max() >= pats.shape[1]):
            raise ValueError("site_to_pattern refers to a non-existent pattern")
        for arr, name in ((pats, "patterns"), (w, "weights"), (s2p, "site_to_pattern")):
            arr.setflags(write=False)
        object.__setattr__(self, "patterns", pats)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "site_to_pattern", s2p)

    @property
    def n_taxa(self) -> int:
        return self.patterns.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_sites(self) -> int:
        return int(self.site_to_pattern.shape[0])

    def with_weights(self, weights: np.ndarray) -> "PatternAlignment":
        """Same patterns, different weights (bootstrap replicates)."""
        return PatternAlignment(self.taxa, self.patterns, weights, self.site_to_pattern)

    def taxon_index(self, taxon: str) -> int:
        try:
            return self.taxa.index(taxon)
        except ValueError:
            raise KeyError(f"unknown taxon {taxon!r}") from None

    def expand(self) -> Alignment:
        """Reconstruct a full per-site alignment from the compression map."""
        return Alignment(self.taxa, self.patterns[:, self.site_to_pattern])

    def __repr__(self) -> str:
        return (
            f"PatternAlignment(n_taxa={self.n_taxa}, n_patterns={self.n_patterns}, "
            f"n_sites={self.n_sites})"
        )


def compress_alignment(alignment: Alignment) -> PatternAlignment:
    """Compress identical columns of ``alignment`` into weighted patterns.

    Patterns are ordered by first occurrence in the alignment, matching
    RAxML's site-compression behaviour (stable order keeps downstream
    results reproducible).
    """
    mat = alignment.matrix
    # View columns as void records so np.unique can dedupe them.
    cols = np.ascontiguousarray(mat.T)
    view = cols.view([("", cols.dtype)] * cols.shape[1]).ravel()
    _, first_idx, inverse, counts = np.unique(
        view, return_index=True, return_inverse=True, return_counts=True
    )
    # np.unique sorts lexicographically; reorder by first occurrence.
    order = np.argsort(first_idx, kind="stable")
    rank_of = np.empty_like(order)
    rank_of[order] = np.arange(order.size)
    site_to_pattern = rank_of[inverse]
    patterns = mat[:, first_idx[order]]
    weights = counts[order]
    return PatternAlignment(alignment.taxa, patterns, weights, site_to_pattern)

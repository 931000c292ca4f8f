"""Tests for pattern compression (repro.seq.patterns)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alignment import Alignment
from repro.seq.patterns import PatternAlignment, compress_alignment

BASES = "ACGT-"


def random_alignment(draw_rows):
    return Alignment.from_sequences(
        [(f"t{i}", row) for i, row in enumerate(draw_rows)]
    )


class TestCompress:
    def test_collapses_identical_columns(self):
        aln = Alignment.from_sequences(
            [("a", "AAC"), ("b", "CCG"), ("c", "GGT")]
        )  # cols 0 and 1 identical
        pal = compress_alignment(aln)
        assert pal.n_patterns == 2
        assert pal.weights.tolist() == [2, 1]

    def test_weights_sum_to_sites(self):
        aln = Alignment.from_sequences([("a", "ACGTAC"), ("b", "AAAAAA"), ("c", "ACACAC")])
        pal = compress_alignment(aln)
        assert pal.weights.sum() == aln.n_sites

    def test_patterns_ordered_by_first_occurrence(self):
        aln = Alignment.from_sequences([("a", "TA"), ("b", "TA"), ("c", "TA")])
        pal = compress_alignment(aln)
        # First column (all T) must be pattern 0.
        assert pal.patterns[0, 0] == 8  # T mask
        assert pal.patterns[0, 1] == 1  # A mask

    def test_site_to_pattern_maps_back(self):
        aln = Alignment.from_sequences([("a", "ACA"), ("b", "GTG"), ("c", "CAC")])
        pal = compress_alignment(aln)
        assert pal.site_to_pattern.tolist() == [0, 1, 0]

    def test_expand_roundtrip(self):
        aln = Alignment.from_sequences(
            [("a", "ACGTACGT"), ("b", "ACGAACGA"), ("c", "AGGTAGGT")]
        )
        assert compress_alignment(aln).expand() == aln

    def test_all_distinct_columns(self):
        aln = Alignment.from_sequences([("a", "ACGT"), ("b", "CGTA"), ("c", "GTAC")])
        pal = compress_alignment(aln)
        assert pal.n_patterns == 4
        assert pal.weights.tolist() == [1, 1, 1, 1]

    @settings(max_examples=30)
    @given(
        st.lists(
            st.text(alphabet=BASES, min_size=12, max_size=12),
            min_size=3,
            max_size=6,
        )
    )
    def test_expand_roundtrip_property(self, rows):
        aln = random_alignment(rows)
        pal = compress_alignment(aln)
        assert pal.expand() == aln
        assert pal.weights.sum() == aln.n_sites
        assert pal.n_patterns <= aln.n_sites


class TestPatternAlignment:
    def test_with_weights(self, handmade_pal):
        new_w = np.arange(handmade_pal.n_patterns)
        pal2 = handmade_pal.with_weights(new_w)
        assert pal2.weights.tolist() == new_w.tolist()
        assert pal2.patterns is handmade_pal.patterns

    def test_negative_weights_rejected(self, handmade_pal):
        with pytest.raises(ValueError):
            handmade_pal.with_weights(np.full(handmade_pal.n_patterns, -1))

    def test_wrong_weight_length_rejected(self, handmade_pal):
        with pytest.raises(ValueError):
            handmade_pal.with_weights(np.ones(handmade_pal.n_patterns + 1))

    def test_taxon_index(self, handmade_pal):
        assert handmade_pal.taxon_index("A") == 0
        with pytest.raises(KeyError):
            handmade_pal.taxon_index("nope")

    def test_bad_site_map_rejected(self, handmade_pal):
        with pytest.raises(ValueError):
            PatternAlignment(
                handmade_pal.taxa,
                handmade_pal.patterns,
                handmade_pal.weights,
                np.array([999]),
            )

    def test_masks_beyond_four_bits_rejected(self, handmade_pal):
        """Kernels gather from 16-row tables by mask, some without a
        bounds check: a mask is checked once, here."""
        bad = handmade_pal.patterns.copy()
        bad[0, 0] = 16
        with pytest.raises(ValueError, match="4-bit"):
            PatternAlignment(
                handmade_pal.taxa, bad, handmade_pal.weights,
                handmade_pal.site_to_pattern,
            )

    def test_immutability(self, handmade_pal):
        with pytest.raises((ValueError, RuntimeError)):
            handmade_pal.weights[0] = 42

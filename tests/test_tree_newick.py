"""Tests for Newick parsing and writing (repro.tree.newick)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.newick import NewickError, parse_newick, write_newick
from repro.tree.random_trees import random_topology
from repro.tree.bipartitions import tree_bipartitions
from repro.util.rng import RAxMLRandom


class TestParse:
    def test_basic_unrooted(self):
        t = parse_newick("(A:0.1,B:0.2,(C:0.3,D:0.4):0.5);")
        t.validate()
        assert t.n_leaves == 4
        assert t.taxa == ("A", "B", "C", "D")

    def test_branch_lengths(self):
        t = parse_newick("(A:0.125,B:0.25,C:0.5);")
        lengths = {l.name: l.length for l in t.leaves()}
        assert lengths == {"A": 0.125, "B": 0.25, "C": 0.5}

    def test_missing_lengths_get_default(self):
        t = parse_newick("(A,B,C);")
        assert all(l.length > 0 for l in t.leaves())

    def test_rooted_input_collapsed(self):
        t = parse_newick("((A:0.1,B:0.2):0.3,(C:0.1,D:0.2):0.4);")
        t.validate()  # root must be trifurcating after collapse
        assert len(t.root.children) == 3

    def test_support_values_parsed(self):
        t = parse_newick("((A:0.1,B:0.2)95:0.3,C:0.1,D:0.2);")
        internal = [e for e in t.internal_edges()]
        assert internal[0].support == pytest.approx(0.95)

    def test_explicit_taxa_order(self):
        t = parse_newick("(B:0.1,A:0.1,C:0.1);", taxa=("A", "B", "C"))
        assert t.find_leaf("A").leaf_index == 0
        assert t.find_leaf("B").leaf_index == 1

    def test_unknown_leaf_rejected_with_taxa(self):
        with pytest.raises(NewickError, match="not in"):
            parse_newick("(X:0.1,A:0.1,B:0.1);", taxa=("A", "B", "C"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("(A:0.1,A:0.1,B:0.1);")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("(A:0.1,B:0.1,C:0.1)")

    def test_bad_length_rejected(self):
        with pytest.raises(NewickError, match="length"):
            parse_newick("(A:x,B:0.1,C:0.1);")

    @pytest.mark.parametrize("length", ["nan", "NaN", "inf", "-inf", "1e400"])
    def test_non_finite_length_rejected(self, length):
        """Such a tree used to parse, and ``-f e -t`` then reported a NaN
        likelihood instead of failing."""
        with pytest.raises(NewickError, match="non-finite"):
            parse_newick(f"((a:{length},b:0.1):0.2,c:0.3,d:0.4);")

    def test_non_finite_collapsed_root_edge_rejected(self):
        # Collapsing a bifurcating root adds its two edges into one.
        with pytest.raises(NewickError, match="non-finite"):
            parse_newick("((a,b,c):1e308,d:1e308);")

    def test_empty_leaf_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("(,B:0.1,C:0.1);")

    def test_two_leaf_tree_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("(A:0.1,B:0.1);")


class TestWrite:
    def test_roundtrip_topology_and_lengths(self):
        src = "((A:0.100000,B:0.200000):0.050000,C:0.300000,D:0.400000);"
        t = parse_newick(src)
        assert write_newick(t) == src

    def test_write_without_lengths(self):
        t = parse_newick("(A:0.1,B:0.2,C:0.3);")
        assert write_newick(t, lengths=False) == "(A,B,C);"

    def test_write_support(self):
        t = parse_newick("((A:0.1,B:0.1)80:0.1,C:0.1,D:0.1);")
        out = write_newick(t, support=True)
        assert ")80:" in out

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10**6), st.integers(4, 15))
    def test_roundtrip_random_trees(self, seed, n):
        taxa = tuple(f"t{i}" for i in range(n))
        t = random_topology(taxa, RAxMLRandom(seed))
        t2 = parse_newick(write_newick(t), taxa=taxa)
        t2.validate()
        assert tree_bipartitions(t) == tree_bipartitions(t2)

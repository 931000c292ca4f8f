"""Starting trees: randomised stepwise-addition parsimony (RAxML's default).

Each ML search needs a reasonable starting topology.  RAxML builds one by
adding taxa in random order, each at the parsimony-optimal insertion edge
(computed with Fitch state sets).  Randomising the addition order is what
makes "multiple ML searches from different starting trees" meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.likelihood.parsimony import ParsimonyEngine
from repro.seq.patterns import PatternAlignment
from repro.tree.topology import Node, Tree
from repro.util.rng import RAxMLRandom


def random_starting_tree(
    pal: PatternAlignment, rng: RAxMLRandom, branch_length: float = 0.1
) -> Tree:
    """A uniformly random starting topology (no parsimony guidance)."""
    from repro.tree.random_trees import random_topology

    return random_topology(pal.taxa, rng, branch_length=branch_length)


def parsimony_starting_tree(
    pal: PatternAlignment,
    rng: RAxMLRandom,
    weights: np.ndarray | None = None,
    branch_length: float = 0.1,
) -> Tree:
    """Randomised stepwise-addition parsimony tree.

    Taxa are shuffled; the first three form a star; each further taxon is
    inserted on the edge with the lowest approximate Fitch insertion cost.
    ``weights`` may override pattern weights (bootstrap replicates).
    """
    n = pal.n_taxa
    if n < 3:
        raise ValueError("need at least 3 taxa")
    pe = ParsimonyEngine(pal, weights)
    order = rng.permutation(n)
    tree = Tree.star(tuple(pal.taxa[i] for i in order[:3]), length=branch_length)
    for leaf, global_idx in zip(tree.root.children, order[:3]):
        leaf.leaf_index = global_idx
        leaf.name = pal.taxa[global_idx]
    tree.taxa = pal.taxa

    for global_idx in order[3:]:
        down, _ = pe.down_sets(tree)
        up = pe.up_sets(tree, down)
        costs = pe.insertion_costs(tree, global_idx, down, up)
        best_cost = min(c for _, c in costs)
        # Break ties randomly for search diversity (RAxML's behaviour).
        best_edges = [e for e, c in costs if c <= best_cost + 1e-12]
        target = best_edges[rng.next_int(len(best_edges))]
        leaf = Node(name=pal.taxa[global_idx], leaf_index=global_idx)
        tree.insert_leaf_on_edge(leaf, target, leaf_length=branch_length)
    tree.validate()
    return tree

"""Tree substrate: unrooted binary phylogenies and operations on them.

Trees are stored in the conventional "rooted at a trifurcation" form: the
root is an internal node with three children and every other internal node
has exactly two children, which represents an unrooted, fully resolved
(binary) phylogeny.  Branch lengths live on child nodes (the edge to the
parent).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".topology": ("Node", "Tree"),
    ".newick": ("parse_newick", "write_newick"),
    ".bipartitions": ("Bipartition", "tree_bipartitions", "bipartition_of_edge"),
    ".distances": ("robinson_foulds", "branch_score_distance"),
    ".random_trees": ("random_topology", "yule_tree"),
})

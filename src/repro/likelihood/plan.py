"""Traversal planning: the structure of a likelihood evaluation.

RAxML separates *what* to recompute from *how*: a traversal descriptor
lists the CLV operations a likelihood evaluation needs, and the worker
threads execute each operation over their pattern slice.  This module is
that first half.  :func:`plan_traversal` returns a :class:`TraversalPlan`
— every node of the (sub)tree grouped into dependency levels, with its
subtree signature — and the engine's executor decides, node by node,
whether a :class:`CLVCache` serves it or the kernel computes it.

Dirty-node tracking is structural rather than imperative.  Every node
gets a 64-bit *subtree signature* hashed from its leaf set, topology,
and the branch lengths below it (child order included, since CLV
products are floating-point order-sensitive).  A topology move or branch
change alters the signatures of exactly the nodes on the path from the
edit to the root — everything else keeps its signature and can be served
from a :class:`CLVCache` keyed by signature.  Because signatures are
content hashes, caching survives ``tree.copy()`` (the search code clones
trees constantly) and is immune to node-identity reuse.

The plan never prunes the walk below a cached node: it covers *every*
node so the executed partial map is complete — search code looks up
arbitrary nodes' partials — but nodes below a cache hit are themselves
(almost always) cache hits and cost no kernel work.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator

from repro.likelihood.kernels.base import Partial, length_bits
from repro.tree.topology import Node, Tree

_MASK = (1 << 64) - 1
_LEAF_TAG = 0xA5A5_5A5A_0F0F_F0F0
_INNER_TAG = 0x3C3C_C3C3_6996_9669
_GAMMA, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(h: int, v: int) -> int:
    """``splitmix64(h ^ splitmix64(v))``, where ``splitmix64`` is the
    finalizer of that generator — a strong 64-bit mixer.  Both rounds are
    written out: this runs twice per child edge of every node hashed."""
    v = (v + _GAMMA) & _MASK
    v = ((v ^ (v >> 30)) * _MUL1) & _MASK
    v = ((v ^ (v >> 27)) * _MUL2) & _MASK
    h = ((h ^ v ^ (v >> 31)) + _GAMMA) & _MASK
    h = ((h ^ (h >> 30)) * _MUL1) & _MASK
    h = ((h ^ (h >> 27)) * _MUL2) & _MASK
    return h ^ (h >> 31)


def subtree_postorder(node: Node) -> Iterator[Node]:
    """Postorder over the subtree rooted at ``node`` (iterative)."""
    stack = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded or n.is_leaf:
            yield n
        else:
            stack.append((n, True))
            for ch in reversed(n.children):
                stack.append((ch, False))


def subtree_signatures(nodes: Iterator[Node], memo: dict | None = None) -> dict[int, int]:
    """Signature of every node in a postorder sequence, keyed by ``id``.

    A leaf's signature depends only on its taxon; an inner node's folds in
    each child's signature and the bit pattern of the branch leading to
    that child, in child order.  A node's own parent branch is *not*
    included — the down partial below a node does not depend on it.

    ``memo`` maps what a signature hashes (``(taxon index,)`` or
    ``(child signature, length bits, ...)``) to the signature, so a node
    an edit left alone costs one lookup; its owner bounds it.
    """
    memo = {} if memo is None else memo
    sigs: dict[int, int] = {}
    for node in nodes:
        if node.is_leaf:
            key = (node.leaf_index,)
        else:
            key = ()
            for ch in node.children:
                key += (sigs[id(ch)], length_bits(ch.length))
        s = memo.get(key)
        if s is None:
            s = _LEAF_TAG if node.is_leaf else _INNER_TAG
            for v in key:
                s = _mix(s, v)
            memo[key] = s
        sigs[id(node)] = s
    return sigs


@dataclass(frozen=True)
class TraversalPlan:
    """The structure of one (sub)tree evaluation.

    ``levels`` groups the nodes by height: level 0 holds the tips, and
    every inner node sits one level above its highest child, so each
    level can be executed as one batch once the levels below it are (the
    kernel stacks a level's propagations into one contraction).  Within
    a level the nodes keep their postorder.  No level is empty, and a
    lone leaf gives ``[[leaf]]``.  ``signatures`` maps ``id(node)`` to
    the node's subtree signature.
    """

    root: Node
    levels: list[list[Node]]
    signatures: dict[int, int] = field(repr=False)


class CLVCache:
    """LRU cache of down partials keyed by subtree signature.

    Invalidation is implicit: an edit changes the signatures on the path
    to the root, so stale entries are simply never looked up again and
    age out of the LRU.  ``max_entries`` bounds memory (the engine's is
    ``clv_entries(n_taxa)``): each entry holds one down partial — a
    full-pattern CLV, or a compact site-repeat partial's class rows — and
    its full-length log-scaler.  ``max_entries=0`` disables the cache — every probe
    misses and puts are dropped — so a zero budget degrades to
    from-scratch traversals instead of erroring.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._store: OrderedDict[int, Partial] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def probe(self, signature: int) -> bool:
        """Membership test; counts the hit or miss."""
        if signature in self._store:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def get(self, signature: int) -> Partial | None:
        """The cached partial, refreshed in LRU order, or ``None``."""
        part = self._store.get(signature)
        if part is not None:
            self._store.move_to_end(signature)
        return part

    def put(self, signature: int, partial: Partial) -> None:
        if self.max_entries == 0:
            return
        self._store[signature] = partial
        self._store.move_to_end(signature)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def plan_traversal(
    tree: Tree, subtree: Node | None = None, memo: dict | None = None
) -> TraversalPlan:
    """The levels and signatures of ``tree``, or of the nodes under (and
    including) ``subtree``; ``memo`` is :func:`subtree_signatures`' store.

    The plan covers every node, whatever a cache holds: the executor
    decides which inner nodes it fetches and which it computes.
    """
    root = tree.root if subtree is None else subtree
    order = list(tree.postorder() if subtree is None else subtree_postorder(subtree))
    height: dict[int, int] = {}
    levels: list[list[Node]] = []
    for node in order:
        h = 0 if node.is_leaf else 1 + max(height[id(ch)] for ch in node.children)
        height[id(node)] = h
        if h == len(levels):
            levels.append([])
        levels[h].append(node)
    return TraversalPlan(root, levels, subtree_signatures(iter(order), memo))

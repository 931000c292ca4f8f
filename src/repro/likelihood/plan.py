"""Traversal planning: which CLVs must be recomputed, in which order.

RAxML separates *what* to recompute from *how*: a traversal descriptor
lists the CLV operations a likelihood evaluation needs, and the worker
threads execute each operation over their pattern slice.  This module is
that first half.  :func:`plan_traversal` walks a tree in postorder and
emits a :class:`TraversalPlan` — an ordered list of :class:`CLVOp`
entries (tip gather, inner propagation, or cache fetch) ending at the
virtual root.

Dirty-node tracking is structural rather than imperative.  Every node
gets a 64-bit *subtree signature* hashed from its leaf set, topology,
and the branch lengths below it (child order included, since CLV
products are floating-point order-sensitive).  A topology move or branch
change alters the signatures of exactly the nodes on the path from the
edit to the root — everything else keeps its signature and can be served
from a :class:`CLVCache` keyed by signature.  Because signatures are
content hashes, caching survives ``tree.copy()`` (the search code clones
trees constantly) and is immune to node-identity reuse.

The planner never prunes the walk below a cached node: the plan covers
*every* node so the executed partial map is complete — search code looks
up arbitrary nodes' partials — but ops below a cache hit are themselves
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
class CLVOp:
    """One traversal-descriptor entry.

    ``kind`` is ``"tip"`` (gather a leaf CLV), ``"inner"`` (propagate and
    combine child CLVs — the only kind that costs kernel work), or
    ``"cached"`` (the planner found the node's signature in the cache).
    """

    node: Node
    signature: int
    kind: str


@dataclass
class TraversalPlan:
    """An ordered CLV recipe for one (sub)tree evaluation."""

    ops: list[CLVOp]
    root: Node
    signatures: dict[int, int] = field(repr=False)
    n_tip: int = 0
    n_inner: int = 0
    n_cached: int = 0
    _levels: list[list[CLVOp]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_internal(self) -> int:
        """Internal nodes covered, computed or cached."""
        return self.n_inner + self.n_cached

    def levels(self) -> list[list[CLVOp]]:
        """Dependency levels of the plan: a topological schedule by depth.

        Level ``d`` holds every op whose children all sit in levels
        ``< d`` — level 0 is exactly the tip ops, and an op's children
        always appear in strictly earlier levels, so each level can be
        executed as one batch (the level-batched kernel stacks a level's
        propagations into a single ``(nodes, patterns, rates, states)``
        contraction).  ``cached`` ops keep their structural depth: an
        executor that must recompute one (evicted since planning) still
        finds its children ready.  No level is ever empty — a node at
        depth ``d`` has a child at depth ``d - 1``, and the plan covers
        every node of its (sub)tree — including the single-op plan of a
        lone leaf, which yields ``[[tip]]``.
        """
        if self._levels is None:
            depth: dict[int, int] = {}
            levels: list[list[CLVOp]] = []
            for op in self.ops:
                node = op.node
                if node.is_leaf:
                    d = 0
                else:
                    d = 1 + max(depth[id(ch)] for ch in node.children)
                depth[id(node)] = d
                while len(levels) <= d:
                    levels.append([])
                levels[d].append(op)
            self._levels = levels
        return self._levels


class CLVCache:
    """LRU cache of down partials keyed by subtree signature.

    Invalidation is implicit: an edit changes the signatures on the path
    to the root, so stale entries are simply never looked up again and
    age out of the LRU.  ``max_entries`` bounds memory (the engine's is
    ``clv_entries(n_taxa)``): each entry holds one full-pattern CLV +
    log-scaler.  ``max_entries=0`` disables the cache — every probe
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
        """Planner-side membership test; counts the hit/miss."""
        if signature in self._store:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def get(self, signature: int, planned: bool = False) -> Partial | None:
        """Executor-side fetch (refreshes LRU order).

        May return ``None`` even after a successful probe: entries planned
        as hits can be evicted by inserts earlier in the same execution.
        The executor falls back to recomputing; it passes ``planned=True``
        so that the already-counted probe hit is reclassified as a miss —
        ``stats()`` then reflects what the execution actually got, and
        ``hits + misses`` stays equal to the number of planner probes.
        """
        part = self._store.get(signature)
        if part is not None:
            self._store.move_to_end(signature)
        elif planned:
            self.hits -= 1
            self.misses += 1
        return part

    def put(self, signature: int, partial: Partial) -> None:
        if self.max_entries == 0:
            return
        self._store[signature] = partial
        self._store.move_to_end(signature)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._store.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def plan_traversal(
    tree: Tree,
    cache: CLVCache | None = None,
    subtree: Node | None = None,
    memo: dict | None = None,
) -> TraversalPlan:
    """Diff tree state against the cache and emit the minimal CLV recipe.

    Without a cache every inner node becomes an ``"inner"`` op — the
    from-scratch traversal.  With a cache, inner nodes whose subtree
    signature is cached become ``"cached"`` ops; after a local move
    (SPR/NNI/branch change) only the root path misses, so the executed
    kernel work shrinks from O(n) CLV updates to O(depth).  ``memo`` is
    :func:`subtree_signatures`' store.
    """
    root = tree.root if subtree is None else subtree
    nodes = tree.postorder() if subtree is None else subtree_postorder(subtree)
    order = list(nodes)
    sigs = subtree_signatures(iter(order), memo)
    ops: list[CLVOp] = []
    n_tip = n_inner = n_cached = 0
    for node in order:
        sig = sigs[id(node)]
        if node.is_leaf:
            ops.append(CLVOp(node, sig, "tip"))
            n_tip += 1
        elif cache is not None and cache.probe(sig):
            ops.append(CLVOp(node, sig, "cached"))
            n_cached += 1
        else:
            ops.append(CLVOp(node, sig, "inner"))
            n_inner += 1
    return TraversalPlan(
        ops=ops,
        root=root,
        signatures=sigs,
        n_tip=n_tip,
        n_inner=n_inner,
        n_cached=n_cached,
    )

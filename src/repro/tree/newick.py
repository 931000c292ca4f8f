"""Newick serialisation of trees.

The writer emits the conventional trifurcating-root form used by RAxML
result files; internal node labels, when present, carry bootstrap support
values (as integers, RAxML-style).
"""

from __future__ import annotations

import math

from repro.tree.topology import DEFAULT_BRANCH_LENGTH, Node, Tree


class NewickError(ValueError):
    """Raised on malformed Newick input."""


def write_newick(
    tree: Tree,
    lengths: bool = True,
    support: bool = False,
    digits: int | None = 6,
) -> str:
    """Serialise ``tree`` to a Newick string (terminated with ``;``).

    ``digits=None`` writes branch lengths with ``repr`` (shortest string
    that round-trips the float exactly) — required by checkpoints, which
    must restore trees bit-identically.
    """

    def rec(node: Node) -> str:
        if node.is_leaf:
            label = node.name
        else:
            inner = ",".join(rec(c) for c in node.children)
            sup = ""
            if support and node.support is not None:
                sup = str(int(round(node.support * 100)))
            label = f"({inner}){sup}"
        if lengths and node.parent is not None:
            if digits is None:
                label += f":{float(node.length)!r}"
            else:
                label += f":{node.length:.{digits}f}"
        return label

    return rec(tree.root) + ";"


def _finite(length: float) -> float:
    if not math.isfinite(length):
        raise NewickError(f"non-finite branch length {length!r}")
    return length


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        if self.pos >= len(self.text):
            raise NewickError("unexpected end of Newick string")
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_label(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "(),:;[]":
            self.pos += 1
        return self.text[start : self.pos].strip()

    def parse_length(self) -> float | None:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            token = self.parse_label()
            try:
                length = float(token)
            except ValueError:
                raise NewickError(f"bad branch length {token!r}") from None
            return _finite(length)
        return None

    def parse_subtree(self) -> Node:
        self.skip_ws()
        node = Node()
        if self.peek() == "(":
            self.take()
            while True:
                node.add_child(self.parse_subtree())
                self.skip_ws()
                ch = self.take()
                if ch == ",":
                    continue
                if ch == ")":
                    break
                raise NewickError(f"expected ',' or ')' at position {self.pos - 1}")
            label = self.parse_label()
            if label:
                # Internal labels are interpreted as percent support values.
                try:
                    node.support = float(label) / 100.0
                except ValueError:
                    pass  # a plain name on an internal node: ignored
        else:
            name = self.parse_label()
            if not name:
                raise NewickError(f"empty leaf label at position {self.pos}")
            node.name = name
        length = self.parse_length()
        node.length = length if length is not None else DEFAULT_BRANCH_LENGTH
        return node


def parse_newick(text: str, taxa: tuple[str, ...] | None = None) -> Tree:
    """Parse a Newick string into a :class:`Tree`.

    If ``taxa`` is given, leaf indices are assigned from it (and unknown
    leaf names are an error); otherwise the taxon tuple is derived from the
    leaf names in order of appearance.

    A bifurcating root (rooted input) is automatically collapsed into the
    trifurcating unrooted form.
    """
    parser = _Parser(text)
    root = parser.parse_subtree()
    parser.skip_ws()
    if parser.pos >= len(parser.text) or parser.take() != ";":
        raise NewickError("Newick string must end with ';'")

    # Collapse a bifurcating root into the unrooted trifurcation.
    while len(root.children) == 2:
        c1, c2 = root.children
        internal = c1 if not c1.is_leaf else c2
        if internal.is_leaf:
            raise NewickError("tree has fewer than 3 leaves")
        other = c2 if internal is c1 else c1
        root.children = []
        other.length = _finite(other.length + internal.length)
        internal.add_child(other)
        internal.parent = None
        root = internal
    if len(root.children) < 3:
        raise NewickError("root must have at least 2 children")

    # Assign leaf indices.
    names_in_order: list[str] = []
    stack = [root]
    leaves: list[Node] = []
    while stack:
        n = stack.pop()
        if n.is_leaf:
            leaves.append(n)
            names_in_order.append(n.name)  # type: ignore[arg-type]
        else:
            stack.extend(reversed(n.children))
    if taxa is None:
        taxa = tuple(names_in_order)
        if len(set(taxa)) != len(taxa):
            raise NewickError("duplicate leaf names")
    index = {name: i for i, name in enumerate(taxa)}
    for leaf in leaves:
        if leaf.name not in index:
            raise NewickError(f"leaf {leaf.name!r} not in the given taxon set")
        leaf.leaf_index = index[leaf.name]

    tree = Tree(root, taxa)
    return tree

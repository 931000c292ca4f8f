"""An independent likelihood reference: GTR + rate heterogeneity on any
small tree by brute force, and on deep ones by pruning, in pure Python.

Nothing here imports ``repro.likelihood.gtr`` or
``repro.likelihood.kernels`` — the code under test.  The rate matrix is
built from the six exchangeabilities and the base frequencies, the
transition matrices come from a scaling-and-squaring ``exp(Qt)`` on nested
lists (no eigendecomposition, no NumPy, no BLAS), tip vectors are read off
the 4-bit state masks, the tree is read from its own Newick, and the
likelihood is the explicit sum over every joint assignment of states to
the internal nodes (a quartet: 16; six taxa: 256).  The derivatives in
one branch length come from the same sum with that branch's ``P``
replaced by ``dP/dt = rQP`` and ``d²P/dt² = r²QQP``: the likelihood is
linear in each branch's matrix.  A lazy-SPR insertion score is the same
sum on the tree the insertion forms.  The engine, its kernels and
``GTRModel`` share none of these steps, so agreement is not the code
agreeing with itself.

The sum runs in log space: every joint assignment's product is a sum of
logs, shifted by the pattern's largest before it is exponentiated.  That
is per-site rescaling with no threshold — site likelihoods far below
anything a float's exponent holds come out exact — and it shares nothing
with the kernels' threshold scaling (multiply by 2^256 when a pattern's
entries all fall below 2^-256) either.  "+I" mixes in each
pattern's invariant-site likelihood: ``Σ π_x`` over the states ``x``
that every taxon's mask allows.

Past six taxa the same likelihoods come from Felsenstein pruning, also in
log space: every partial is four logs, and an edge is ``log Σ_j P_ij ·
exp(l_j)`` evaluated about the largest ``l_j``.  It is linear in the
taxa, so it reaches trees of hundreds, whose site likelihoods lie past
anything a float's exponent holds.
"""

from __future__ import annotations

import math

Matrix = list[list[float]]

#: (row, col) of each exchangeability, in the AC, AG, AT, CG, CT, GT order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TAYLOR_TERMS = 20


def rate_matrix(exchangeabilities, freqs) -> Matrix:
    """Reversible Q with ``Q[i][j] = r_ij · π_j``, rows summing to zero,
    scaled to one expected substitution per unit time at stationarity."""
    q = [[0.0] * 4 for _ in range(4)]
    for rate, (i, j) in zip(exchangeabilities, _PAIRS):
        q[i][j] = rate * freqs[j]
        q[j][i] = rate * freqs[i]
    for i in range(4):
        q[i][i] = -math.fsum(q[i])
    mean_rate = -math.fsum(freqs[i] * q[i][i] for i in range(4))
    return [[x / mean_rate for x in row] for row in q]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [
        [math.fsum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]


def expm(a: Matrix) -> Matrix:
    """``exp(a)`` by scaling and squaring: halve until the max row sum is
    at most 1/2, sum the Taylor series there, square back up."""
    norm = max(math.fsum(abs(x) for x in row) for row in a)
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.0 else 0
    scaled = [[x / 2.0**squarings for x in row] for row in a]
    result = [[float(i == j) for j in range(4)] for i in range(4)]
    term = [row[:] for row in result]
    for n in range(1, _TAYLOR_TERMS + 1):
        term = [[x / n for x in row] for row in matmul(term, scaled)]
        result = [[r + t for r, t in zip(rr, tr)] for rr, tr in zip(result, term)]
    for _ in range(squarings):
        result = matmul(result, result)
    return result


def transition_matrix(exchangeabilities, freqs, t: float) -> Matrix:
    """``P(t) = exp(Q t)``; pass ``t · rate`` for a rate multiplier."""
    q = rate_matrix(exchangeabilities, freqs)
    return expm([[x * t for x in row] for row in q])


def transition_matrix_derivative(
    exchangeabilities, freqs, t: float, rate: float = 1.0, h: float = 1e-3
) -> Matrix:
    """``d/dt P(t · rate)`` by the five-point central difference, stepped
    in ``s = t · rate`` so the error does not grow with the multiplier
    (O(h⁴) truncation, ~1e-13 · rate roundoff at the default step)."""
    s = t * rate

    def p(offset: float) -> Matrix:
        return transition_matrix(exchangeabilities, freqs, s + offset)

    far_hi, hi, lo, far_lo = p(2 * h), p(h), p(-h), p(-2 * h)
    return [
        [
            rate * (-far_hi[i][j] + 8.0 * hi[i][j] - 8.0 * lo[i][j] + far_lo[i][j])
            / (12.0 * h)
            for j in range(4)
        ]
        for i in range(4)
    ]


def tip_vector(mask: int) -> list[float]:
    """State likelihoods of a 4-bit mask (bit order A = 1, C = 2, G = 4,
    T = 8): 1.0 for every state the observed character allows."""
    return [float(mask >> state & 1) for state in range(4)]


def transition_matrix_and_derivatives(
    exchangeabilities, freqs, t: float, rate: float = 1.0
) -> tuple[Matrix, Matrix, Matrix]:
    """``(P, dP/dt, d²P/dt²)`` of ``P(t · rate) = exp(Q t rate)``, the
    derivatives as the products ``rate · Q P`` and ``rate² · Q Q P``."""
    q = rate_matrix(exchangeabilities, freqs)
    p = expm([[x * t * rate for x in row] for row in q])
    qp = matmul(q, p)
    return (
        p,
        [[rate * x for x in row] for row in qp],
        [[rate * rate * x for x in row] for row in matmul(q, qp)],
    )


def _across(p: Matrix, tip: list[float]) -> list[float]:
    """A tip vector seen from the far end of its branch: ``P · tip``."""
    return [math.fsum(p[i][s] * tip[s] for s in range(4)) for i in range(4)]


# -- the brute force, in log space ---------------------------------------------------


def parse_newick(text: str) -> tuple[list[tuple], int]:
    """``(edges, n_inner)`` of a Newick string with branch lengths.

    Internal nodes are numbered in preorder from 0 (the root); each edge
    is ``(parent, child, length, clade)`` with ``child`` an internal
    node's number or a taxon name and ``clade`` the frozenset of taxa
    below the edge, which names it independently of any node object."""
    text = "".join(text.split())
    edges: list[tuple] = []
    pos = n_inner = 0

    def node(parent):
        nonlocal pos, n_inner
        if text[pos] == "(":
            child, n_inner = n_inner, n_inner + 1
            clade: frozenset = frozenset()
            while text[pos] in "(,":
                pos += 1
                clade |= node(child)
            pos += 1  # ")"
        else:
            start = pos
            while text[pos] not in ",):;":
                pos += 1
            child = text[start:pos]
            clade = frozenset([child])
        length = 0.0
        if text[pos] == ":":
            start = pos = pos + 1
            while text[pos] not in ",);":
                pos += 1
            length = float(text[start:pos])
        if parent is not None:
            edges.append((parent, child, length, clade))
        return clade

    node(None)
    return edges, n_inner


def _edge_factor(matrix: Matrix, child, tips: dict) -> Matrix:
    """An edge's factor of a joint assignment, ``[parent state][child
    state]``: the matrix itself towards an internal node, ``matrix · tip``
    (whatever the child state index) towards a taxon."""
    if isinstance(child, int):
        return matrix
    return [[x] * 4 for x in _across(matrix, tips[child])]


def _joint_states(n: int) -> list[tuple[int, ...]]:
    states: list[tuple[int, ...]] = [()]
    for _ in range(n):
        states = [head + (s,) for head in states for s in range(4)]
    return states


def _tree_patterns(
    tree, masks, exchangeabilities, freqs, rates, pattern_to_cat, p_invariant,
    clade=None, t=None,
):
    """Per pattern ``(ln site, site' / site, site'' / site)`` on ``tree``
    (:func:`parse_newick`'s pair), the derivatives in the length of the
    edge above ``clade`` (evaluated at ``t``; the first edge at its own
    length when no clade is given).  ``masks`` maps each taxon to its
    per-pattern state masks."""
    edges, n_inner = tree
    pick = 0 if clade is None else [e[3] for e in edges].index(frozenset(clade))
    parent_d, child_d, length_d, _ = edges[pick]
    length_d = length_d if t is None else t
    child_of = [c if isinstance(c, int) else 0 for _, c, _, _ in edges]
    joint = _joint_states(n_inner)
    per_rate = [
        (
            [transition_matrix(exchangeabilities, freqs, e[2] * r) for e in edges],
            transition_matrix_and_derivatives(exchangeabilities, freqs, length_d, r),
        )
        for r in rates
    ]
    log_freqs = [math.log(f) for f in freqs]
    n_patterns = len(next(iter(masks.values())))
    for p in range(n_patterns):
        tips = {name: tip_vector(int(row[p])) for name, row in masks.items()}
        mix = range(len(rates)) if pattern_to_cat is None else [int(pattern_to_cat[p])]
        terms = []  # (log of every factor but the picked edge's, its three factors)
        for cat in mix:
            mats, triple = per_rate[cat]
            logs = [
                [[math.log(x) for x in row] for row in _edge_factor(m, e[1], tips)]
                for m, e in zip(mats, edges)
            ]
            picked = [_edge_factor(m, child_d, tips) for m in triple]
            for states in joint:
                log_rest = log_freqs[states[0]] + math.fsum(
                    logs[j][states[par]][states[child_of[j]]]
                    for j, (par, _, _, _) in enumerate(edges)
                    if j != pick
                )
                x, y = states[parent_d], states[child_of[pick]]
                terms.append((log_rest, [f[x][y] for f in picked]))
        shift = max(log_rest for log_rest, _ in terms)
        site, d1, d2 = (
            math.fsum(math.exp(log_rest - shift) * f[order] for log_rest, f in terms)
            / len(mix)
            for order in range(3)
        )
        if p_invariant:
            invariant = math.fsum(
                freqs[x] * math.prod(tip[x] for tip in tips.values()) for x in range(4)
            )
            mixed = (1.0 - p_invariant) * site + p_invariant * invariant * math.exp(-shift)
            scale = (1.0 - p_invariant) / mixed
        else:
            mixed, scale = site, 1.0 / site
        yield shift + math.log(mixed), d1 * scale, d2 * scale


def tree_site_lnls(
    newick, masks, exchangeabilities, freqs, rates, pattern_to_cat=None,
    p_invariant=0.0,
) -> list[float]:
    """Per-pattern log-likelihoods on any tree: Γ (or a single rate) as
    the uniform mixture over ``rates``, CAT with ``pattern_to_cat``, "+I"
    with ``p_invariant``; ``masks`` maps each taxon to its state masks."""
    return [
        lnl for lnl, _, _ in _tree_patterns(
            parse_newick(newick), masks, exchangeabilities, freqs, rates,
            pattern_to_cat, p_invariant,
        )
    ]


def tree_edge_derivatives(
    newick, masks, weights, clade, t: float, exchangeabilities, freqs, rates,
    pattern_to_cat=None, p_invariant=0.0,
) -> tuple[float, float, float]:
    """``(lnL, dlnL/dt, d²lnL/dt²)`` of the tree with the edge above the
    taxa ``clade`` at length ``t``, in that length."""
    lnl, d1, d2 = [], [], []
    for weight, (site, g, h) in zip(weights, _tree_patterns(
        parse_newick(newick), masks, exchangeabilities, freqs, rates,
        pattern_to_cat, p_invariant, clade, t,
    )):
        lnl.append(weight * site)
        d1.append(weight * g)
        d2.append(weight * (h - g * g))
    return math.fsum(lnl), math.fsum(d1), math.fsum(d2)


def _graft(tree, clade, subtree: str, t_sub: float):
    """``tree`` with the Newick ``subtree`` (a bare taxon name or a rooted
    clade) attached by a branch of length ``t_sub`` to a new node at the
    midpoint of the edge above ``clade`` — the tree a lazy-SPR insertion
    forms.  The new node takes the next internal number, the subtree's
    internal nodes the ones after it."""
    edges, n_inner = tree
    pick = [e[3] for e in edges].index(frozenset(clade))
    parent, child, length, below = edges[pick]
    text = subtree.rstrip(";")
    sub_edges, sub_inner = parse_newick(text + ";")
    if sub_inner:
        top = n_inner + 1
        moved = frozenset().union(*(e[3] for e in sub_edges if e[0] == 0))
    else:
        top, moved = text, frozenset([text])
    edges = list(edges)
    edges[pick : pick + 1] = [
        (parent, n_inner, length / 2, below | moved),
        (n_inner, child, length / 2, below),
        (n_inner, top, t_sub, moved),
    ]
    edges += [
        (p + top, c + top if isinstance(c, int) else c, t, cl)
        for p, c, t, cl in sub_edges
    ]
    return edges, n_inner + 1 + sub_inner


def insertion_lnl(
    newick, masks, weights, clade, taxon: str, t_sub: float, exchangeabilities,
    freqs, rates, pattern_to_cat=None, p_invariant=0.0,
) -> float:
    """The lazy-SPR insertion score: log-likelihood of the tree ``newick``
    with ``taxon`` attached by a branch of length ``t_sub`` to the
    midpoint of the edge above ``clade``."""
    return math.fsum(
        weight * lnl
        for weight, (lnl, _, _) in zip(weights, _tree_patterns(
            _graft(parse_newick(newick), clade, taxon, t_sub), masks,
            exchangeabilities, freqs, rates, pattern_to_cat, p_invariant,
        ))
    )


# -- Felsenstein pruning, in log space -----------------------------------------------


def _postorder(edges: list[tuple]) -> list[tuple]:
    """``edges`` with every edge below a node before the edge above it."""
    below: dict = {}
    for edge in edges:
        below.setdefault(edge[0], []).append(edge)
    order, stack = [], [0]
    while stack:
        for edge in below.get(stack.pop(), ()):
            order.append(edge)
            if isinstance(edge[1], int):
                stack.append(edge[1])
    return order[::-1]


#: :func:`transition_matrix` by ``(exchangeabilities, freqs, t · rate)``:
#: pruning asks for one per edge and rate on every call, and its callers
#: ask again for the same tree under another rate model or insertion.
_TRANSITIONS: dict = {}


def _transition(exchangeabilities, freqs, s: float) -> Matrix:
    key = (tuple(exchangeabilities), tuple(freqs), s)
    if key not in _TRANSITIONS:
        _TRANSITIONS[key] = transition_matrix(exchangeabilities, freqs, s)
    return _TRANSITIONS[key]


def _log_sum_exp(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _pruned_site_lnls(
    tree, masks, exchangeabilities, freqs, rates, pattern_to_cat, p_invariant,
):
    """Per-pattern log-likelihoods on ``tree`` by Felsenstein pruning with
    every partial held as four logs.  Across an edge, ``log Σ_j P_ij ·
    exp(l_j)`` is taken as ``top + log Σ_j P_ij · exp(l_j − top)`` with
    ``top`` the largest ``l_j``; a node adds its children's results.  The
    shifted sum is at least one transition probability, so depth costs
    nothing in range."""
    edges, n_inner = tree
    order = _postorder(edges)
    mats = [
        {t: _transition(exchangeabilities, freqs, t * r) for _, _, t, _ in edges}
        for r in rates
    ]
    log_freqs = [math.log(f) for f in freqs]
    n_patterns = len(next(iter(masks.values())))
    for p in range(n_patterns):
        tips = {name: tip_vector(int(row[p])) for name, row in masks.items()}
        mix = range(len(rates)) if pattern_to_cat is None else [int(pattern_to_cat[p])]
        per_cat = []
        for cat in mix:
            clv = [[0.0] * 4 for _ in range(n_inner)]
            for parent, child, t, _ in order:
                if isinstance(child, int):
                    top = max(clv[child])
                    w0, w1, w2, w3 = (math.exp(x - top) for x in clv[child])
                else:  # a tip vector is its own linear form, with top = log 1
                    top, (w0, w1, w2, w3) = 0.0, tips[child]
                row = clv[parent]
                for i, (a0, a1, a2, a3) in enumerate(mats[cat][t]):
                    row[i] += top + math.log(a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3)
            root = [f + x for f, x in zip(log_freqs, clv[0])]
            per_cat.append(_log_sum_exp(root))
        lnl = _log_sum_exp(per_cat) - math.log(len(per_cat))
        if p_invariant:
            invariant = math.fsum(
                freqs[x] * math.prod(tip[x] for tip in tips.values()) for x in range(4)
            )
            lnl += math.log(1.0 - p_invariant)
            if invariant:
                lnl = _log_sum_exp([lnl, math.log(p_invariant * invariant)])
        yield lnl


def pruning_site_lnls(
    newick, masks, exchangeabilities, freqs, rates, pattern_to_cat=None,
    p_invariant=0.0,
) -> list[float]:
    """:func:`tree_site_lnls` by log-space pruning instead of the sum over
    joint states: linear in the number of taxa, so for trees far past the
    brute force's reach, where a site likelihood lies hundreds of binary
    orders of magnitude below one."""
    return list(_pruned_site_lnls(
        parse_newick(newick), masks, exchangeabilities, freqs, rates,
        pattern_to_cat, p_invariant,
    ))


def pruning_insertion_lnl(
    newick, subtree: str, masks, weights, clade, t_sub: float, exchangeabilities,
    freqs, rates, pattern_to_cat=None, p_invariant=0.0,
) -> float:
    """:func:`insertion_lnl` by log-space pruning, for any ``subtree`` —
    the Newick of a rooted clade, attached by its root — and with "+I"."""
    return math.fsum(
        weight * lnl
        for weight, lnl in zip(weights, _pruned_site_lnls(
            _graft(parse_newick(newick), clade, subtree, t_sub), masks,
            exchangeabilities, freqs, rates, pattern_to_cat, p_invariant,
        ))
    )

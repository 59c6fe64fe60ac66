"""Exact chromatic number via DSATUR-ordered branch and bound."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .graphs import Graph, GraphHom, is_bipartite

DEFAULT_NODE_BUDGET = 10_000_000


def greedy_clique(g: Graph) -> list[int]:
    """Greedy clique from the highest-degree vertex; a lower bound seed."""
    adj = g.adjacency
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def greedy_coloring(g: Graph) -> list[int]:
    """DSATUR greedy coloring; an upper bound for the exact solver."""
    adj = g.adjacency
    colors = [-1] * g.n
    sat: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if colors[u] == -1),
            key=lambda u: (len(sat[u]), len(adj[u]), -u),
        )
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in adj[v]:
            sat[w].add(c)
    return colors


def _ordered_k_coloring(
    g: Graph, k: int, order: Sequence[int], budget: list[int]
) -> Optional[list[int]]:
    """Complete forward-checked search along a fixed vertex order.

    With a structure-aware order (small frontier) this vastly outperforms
    the saturation heuristic on grid-like graphs.
    """
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    nxt: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(order):
        for w in g.adjacency[v]:
            if w != v and pos[w] > i:
                nxt[i].append(pos[w])
    full = (1 << k) - 1
    dom = [full] * n
    assign = [0] * n

    def rec(i: int) -> bool:
        if i == n:
            return True
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("coloring node budget exceeded")
        mask = dom[i]
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            assign[i] = c
            saved = []
            ok = True
            for j in nxt[i]:
                old = dom[j]
                new = old & ~(1 << c)
                if new != old:
                    saved.append((j, old))
                    dom[j] = new
                    if new == 0:
                        ok = False
                        break
            if ok and rec(i + 1):
                return True
            for j, old in saved:
                dom[j] = old
        return False

    if rec(0):
        colors = [0] * n
        for i, v in enumerate(order):
            colors[v] = assign[i]
        return colors
    return None


def _k_coloring(g: Graph, k: int, budget: list[int]) -> Optional[list[int]]:
    """Find a k-coloring by DSATUR backtracking, or None.

    New colors are introduced in index order (symmetry breaking).
    ``budget`` is a single-cell mutable node countdown.
    """
    adj = g.adjacency
    colors = [-1] * g.n
    sat: list[set[int]] = [set() for _ in range(g.n)]

    def pick() -> int:
        return max(
            (u for u in range(g.n) if colors[u] == -1),
            key=lambda u: (len(sat[u]), len(adj[u]), -u),
        )

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        for w in adj[v]:
            if colors[w] == -1 and c not in sat[w]:
                sat[w].add(c)
                touched.append(w)
        return touched

    def unassign(v: int, c: int, touched: list[int]) -> None:
        colors[v] = -1
        for w in touched:
            sat[w].discard(c)

    def backtrack(colored: int, used: int) -> bool:
        if colored == g.n:
            return True
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("coloring node budget exceeded")
        v = pick()
        for c in range(min(used + 1, k)):
            if c in sat[v]:
                continue
            touched = assign(v, c)
            if backtrack(colored + 1, max(used, c + 1)):
                return True
            unassign(v, c, touched)
        return False

    if backtrack(0, 0):
        return colors
    return None


def chromatic_number(
    g: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    order_hint: Optional[Sequence[int]] = None,
):
    """Exact chromatic number; math.inf for graphs with a loop.

    ``order_hint``, a permutation of the vertices, selects a fixed-order
    forward-checked search instead of DSATUR branch and bound; both are
    complete.
    """
    if order_hint is not None and sorted(order_hint) != list(range(g.n)):
        raise InvalidParameterError(
            "order_hint must be a permutation of the vertices"
        )
    if g.has_loop():
        return math.inf
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    if is_bipartite(g):
        return 2
    lower = max(3, len(greedy_clique(g)))
    upper = max(greedy_coloring(g)) + 1
    budget = [node_budget]
    for k in range(lower, upper):
        if order_hint is None:
            colors = _k_coloring(g, k, budget)
        else:
            colors = _ordered_k_coloring(g, k, order_hint, budget)
        if colors is not None:
            return k
    return upper


def coloring_hom(g: Graph, colors: list[int], k: int) -> GraphHom:
    """A proper coloring as a homomorphism into K_k."""
    from .builders import build_named

    return GraphHom(g, build_named("K", k), tuple(colors))

"""Exact chromatic number via DSATUR-ordered branch and bound, or, along
a given vertex order, as the least k with a graph map G -> K_k."""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .builders import complete_graph
from .errors import InvalidParameterError, ResourceLimitError
from .graphs import Graph, is_bipartite
from .homs import _hom_exists

DEFAULT_NODE_BUDGET = 10_000_000


def greedy_clique(g: Graph) -> list[int]:
    """Greedy clique from the highest-degree vertex; a lower bound seed."""
    adj = g.adjacency
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    common = set(range(g.n))  # the vertices adjacent to every member
    for v in order:
        if v in common:
            clique.append(v)
            common.intersection_update(adj[v])
    return clique


def _dsatur_scores(g: Graph) -> tuple[list[int], int]:
    """Each vertex's DSATUR key packed into one integer, and the weight
    one more neighbour color adds to it.

    The key orders vertices by most distinct neighbour colors, then
    highest degree, then least index: ``sat*n*(n+1) + deg*n + (n-1-u)``
    with ``deg <= n``, so distinct vertices never tie and ``u`` is
    ``n - 1 - score % n``.  Scores start at saturation 0.
    """
    n = g.n
    score = [len(a) * n + (n - 1 - u) for u, a in enumerate(g.adjacency)]
    return score, n * (n + 1)


def greedy_coloring(g: Graph) -> list[int]:
    """DSATUR greedy coloring; an upper bound for the exact solver.

    Colors vertices in DSATUR key order, each with its lowest free
    color.  A lazy heap holds negated keys: a vertex gets a new entry
    whenever its saturation rises, so its newest entry comes out first,
    and the entries left of a colored vertex (seen mask -1) are skipped.
    """
    n = g.n
    adj = g.adjacency
    colors = [-1] * n
    seen = [0] * n  # bitmask of the colors on each vertex's neighbours
    score, weight = _dsatur_scores(g)
    heap = [-s for s in score]
    heapify(heap)
    while heap:
        top = -heappop(heap)
        v = n - 1 - top % n
        m = seen[v]
        if m < 0:
            continue
        c = (~m & (m + 1)).bit_length() - 1
        colors[v] = c
        seen[v] = -1
        bit = 1 << c
        for w in adj[v]:
            if not seen[w] & bit:
                seen[w] |= bit
                score[w] += weight
                heappush(heap, -score[w])
    return colors


def _k_coloring(g: Graph, k: int, budget: list[int]) -> Optional[list[int]]:
    """Find a k-coloring by DSATUR backtracking, or None.

    Branches on the uncolored vertex of highest DSATUR key; a colored
    vertex scores -1.  New colors are introduced in index order
    (symmetry breaking).  ``budget`` is a single-cell mutable node
    countdown.
    """
    n = g.n
    adj = g.adjacency
    colors = [-1] * n
    seen = [0] * n  # bitmask of the colors on each vertex's neighbours
    score, weight = _dsatur_scores(g)
    by_score = score.__getitem__
    vertices = range(n)

    def backtrack(colored: int, used: int) -> bool:
        if colored == n:
            return True
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("coloring node budget exceeded")
        v = max(vertices, key=by_score)
        saved = score[v]
        score[v] = -1
        free = ~seen[v] & ((1 << min(used + 1, k)) - 1)
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            colors[v] = c
            touched = []
            for w in adj[v]:
                if colors[w] == -1 and not seen[w] & bit:
                    seen[w] |= bit
                    score[w] += weight
                    touched.append(w)
            if backtrack(colored + 1, max(used, c + 1)):
                return True
            for w in touched:
                seen[w] ^= bit
                score[w] -= weight
        colors[v] = -1
        score[v] = saved
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

    ``order_hint``, a permutation of the vertices, replaces DSATUR branch
    and bound: each k is decided by the forward-checked homomorphism
    search for a map g -> K_k, assigning the vertices in that order.  Both
    are complete and spend the same ``node_budget``.
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
            found = _k_coloring(g, k, budget) is not None
        else:
            found = _hom_exists(g, complete_graph(k), order_hint, budget)
        if found:
            return k
    return upper

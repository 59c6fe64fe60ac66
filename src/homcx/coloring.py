"""Exact chromatic number via DSATUR-ordered branch and bound."""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .graphs import Graph, is_bipartite

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

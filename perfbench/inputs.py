"""Seeded inputs for the benchmark workloads, and exact oracles for them.

Nothing here imports homcx: the program under test only ever sees the
graphs generated here, as ``{"n": ..., "edges": [[u, v], ...]}`` objects,
and the oracles that check its coloring answers share no code with it.
"""

from __future__ import annotations

import random

# -- small graph helpers -------------------------------------------------


def graph_obj(n, edges):
    return {"n": n, "edges": sorted([min(u, v), max(u, v)] for u, v in edges)}


def complete(n):
    return graph_obj(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    return graph_obj(n, [(i, (i + 1) % n) for i in range(n)])


def path(length):
    return graph_obj(length + 1, [(i, i + 1) for i in range(length)])


def relabel(g, perm):
    """The graph g with vertex v renamed perm[v]."""
    return graph_obj(g["n"], [(perm[u], perm[v]) for u, v in g["edges"]])


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def adjacency_masks(g):
    adj = [0] * g["n"]
    for u, v in g["edges"]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def mycielskian(g):
    """Mycielski's construction: chi goes up by one, the clique number
    stays (for a graph with an edge)."""
    n = g["n"]
    edges = [tuple(e) for e in g["edges"]]
    edges += [(u + n, v) for u, v in g["edges"]]
    edges += [(v + n, u) for u, v in g["edges"]]
    edges += [(n + i, 2 * n) for i in range(n)]
    return graph_obj(2 * n + 1, edges)


# -- exact oracles (independent of homcx) --------------------------------


def colorable(adj, k):
    """Whether the graph with neighbour bitmasks ``adj`` has a proper
    k-coloring; plain backtracking with the colour of the first vertex
    fixed."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: -bin(adj[v]).count("1"))
    colour = [-1] * n

    def rec(i, used):
        if i == n:
            return True
        v = order[i]
        banned = 0
        m = adj[v]
        while m:
            low = m & -m
            m ^= low
            c = colour[low.bit_length() - 1]
            if c >= 0:
                banned |= 1 << c
        for c in range(min(used + 1, k)):
            if not (banned >> c) & 1:
                colour[v] = c
                if rec(i + 1, max(used, c + 1)):
                    return True
        colour[v] = -1
        return False

    return rec(0, 0)


def chromatic(g):
    adj = adjacency_masks(g)
    if not g["edges"]:
        return 1 if g["n"] else 0
    k = 2
    while not colorable(adj, k):
        k += 1
    return k


def clique_number(g):
    adj = adjacency_masks(g)
    best = 0

    def expand(size, cand):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + bin(cand).count("1") <= best:
                return
            low = cand & -cand
            cand ^= low
            expand(size + 1, cand & adj[low.bit_length() - 1])

    expand(0, (1 << g["n"]) - 1)
    return best


# -- queries workload ----------------------------------------------------

QUERY_TESTS = (
    ("K2", complete(2)),
    ("L3", path(3)),
    ("C4", cycle(4)),
    ("C5", cycle(5)),
    ("K3", complete(3)),
)
QUERY_SIZES = (5, 6, 7, 8)
QUERIES_PER_TEST = 20


def _has_four_cycle(n, adj):
    return any(
        bin(adj[a] & adj[b]).count("1") >= 2
        for a in range(n)
        for b in range(a + 1, n)
    )


def sparse_query_graph(rng, n):
    """A connected graph on n vertices with n edges (n + 1 from seven
    vertices on), maximum degree 3 and no 4-cycle.  These limits keep
    every Hom complex small enough for the order-complex reference."""
    m = n + (1 if n >= 7 else 0)
    while True:
        deg = [0] * n
        edges = set()
        order = random_perm(rng, n)
        for i in range(1, n):
            choices = [order[j] for j in range(i) if deg[order[j]] < 3]
            u, v = rng.choice(choices), order[i]
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
        spare = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        ]
        rng.shuffle(spare)
        for u, v in spare:
            if len(edges) == m:
                break
            if deg[u] < 3 and deg[v] < 3:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
        g = graph_obj(n, edges)
        if len(edges) == m and not _has_four_cycle(n, adjacency_masks(g)):
            return g


def query_pool():
    """[(test graph name, T, G)]: every test graph paired with
    QUERIES_PER_TEST random graphs, sizes cycling through QUERY_SIZES.
    Drawn from a fixed seed, so every workload seed does the same work."""
    rng = random.Random("queries-pool")
    out = []
    for name, t in QUERY_TESTS:
        for i in range(QUERIES_PER_TEST):
            n = QUERY_SIZES[i % len(QUERY_SIZES)]
            out.append((name, t, sparse_query_graph(rng, n)))
    return out


def query_inputs(seed):
    """The pool with every G relabelled by the seed, in a seeded order."""
    rng = random.Random(f"queries-{seed}")
    out = [
        (name, t, relabel(g, random_perm(rng, g["n"])))
        for name, t, g in query_pool()
    ]
    rng.shuffle(out)
    return out


# -- coloring workload ---------------------------------------------------

PLANTED_COLORINGS = 89
HARD_RANDOM_COLORINGS = 9


def _gnp(rng, n, p):
    return graph_obj(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def _planted(rng, n, k, p):
    """A graph with chi = k by construction: a random k-partite graph
    (edges only between colour classes, so k colours suffice) plus a
    k-clique on one vertex of each class, whose vertices also get extra
    edges so that they are the graph's highest-degree vertices."""
    colour = [i % k for i in range(n)]
    rng.shuffle(colour)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if colour[u] != colour[v] and rng.random() < p
    }
    clique = [colour.index(c) for c in range(k)]
    for a in clique:
        for v in range(n):
            if colour[v] != colour[a] and (v in clique or rng.random() < 0.5):
                edges.add((min(a, v), max(a, v)))
    return graph_obj(n, edges)


def coloring_pool():
    """[(kind, G, chi)] with chi known exactly, drawn from a fixed seed.

    "planted": 100 vertices, chi = 5 by construction with a 5-clique
    among the highest degrees, so the solver's clique bound is tight.
    "hard": G(12, 0.4) conditioned on chi = 4 > clique number (by the
    oracles here), so a colour count must be refuted by search; plus the
    Mycielskians of C5 (the Grotzsch graph) and C7, chi = 4 by
    construction.
    """
    rng = random.Random("coloring-pool")
    out = [("planted", _planted(rng, 100, 5, 0.3), 5) for _ in range(PLANTED_COLORINGS)]
    while len(out) < PLANTED_COLORINGS + HARD_RANDOM_COLORINGS:
        g = _gnp(rng, 12, 0.4)
        if clique_number(g) <= 3 and chromatic(g) == 4:
            out.append(("hard", g, 4))
    for odd in (5, 7):
        out.append(("mycielski", mycielskian(cycle(odd)), 4))
    return out


def coloring_inputs(seed):
    """The pool with every graph relabelled by the seed, in a seeded
    order."""
    rng = random.Random(f"coloring-{seed}")
    out = [
        (kind, relabel(g, random_perm(rng, g["n"])), chi)
        for kind, g, chi in coloring_pool()
    ]
    rng.shuffle(out)
    return out


# -- pipeline workload ---------------------------------------------------

def pipeline_inputs(seed):
    """(family member object, G object) for ``homcx construct``.

    G is K3, the only connected non-bipartite graph on three vertices;
    every other choice makes H and Hom(K2, H) larger, and one construct
    plus one verify of K3 already takes most of a run.  The seed reaches the program as
    ``--seed`` and is recorded in the certificate.
    """
    member = {"name": "K2", "graph": complete(2), "involution": [1, 0]}
    return member, complete(3)


def inputs_for(workload, seed):
    return {
        "pipeline": pipeline_inputs,
        "queries": query_inputs,
        "coloring": coloring_inputs,
    }[workload](seed)

"""Exact chromatic number solver and helpers."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from homcx.builders import (
    chi4_girth5_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    walker_graph_1,
    walker_graph_2,
)
from homcx.coloring import (
    _k_coloring,
    _ordered_k_coloring,
    chromatic_number,
    greedy_clique,
    greedy_coloring,
)
from homcx.errors import InvalidParameterError, ResourceLimitError
from homcx.graphs import Graph, GraphHom
from oracles import mycielskian


def coloring_hom(g: Graph, colors: list[int], k: int) -> GraphHom:
    """A proper coloring as a homomorphism into K_k."""
    return GraphHom(g, complete_graph(k), tuple(colors))


def test_small_exact_values():
    assert chromatic_number(Graph(0, [])) == 0
    assert chromatic_number(Graph(3, [])) == 1
    assert chromatic_number(path_graph(5)) == 2
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(cycle_graph(7)) == 3
    assert chromatic_number(complete_graph(6)) == 6
    assert chromatic_number(petersen_graph()) == 3


def test_loop_means_uncolorable():
    assert chromatic_number(Graph(2, [(0, 0), (0, 1)])) == math.inf


def test_library_graph_is_chi4_girth5():
    g = chi4_girth5_graph()
    assert chromatic_number(g) == 4


def test_walker_pair_chromatic_numbers():
    assert chromatic_number(walker_graph_1()) == 4
    assert chromatic_number(walker_graph_2()) == 3


def test_greedy_coloring_proper():
    g = petersen_graph()
    colors = greedy_coloring(g)
    for u, v in g.edges:
        assert colors[u] != colors[v]


@st.composite
def loopless_graphs(draw, max_n=16):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(loopless_graphs(max_n=20))
def test_greedy_coloring_is_proper_within_degree_bound(g):
    colors = greedy_coloring(g)
    assert all(colors[u] != colors[v] for u, v in g.edges)
    c = max(colors, default=-1) + 1
    assert set(colors) == set(range(c))
    assert c <= max(map(len, g.adjacency), default=0) + 1


def test_greedy_clique_is_clique():
    g = complete_graph(5)
    clique = greedy_clique(g)
    assert len(clique) == 5


def test_coloring_hom_round_trip():
    g = cycle_graph(5)
    k = chromatic_number(g)
    colors = greedy_coloring(g)
    hom = coloring_hom(g, colors, max(colors) + 1)
    assert hom.domain == g
    assert k == 3


def test_order_hint_agrees_with_default():
    g = chi4_girth5_graph()
    hint = list(range(g.n))
    assert chromatic_number(g, order_hint=hint) == 4


def test_node_budget_enforced():
    g = chi4_girth5_graph()
    with pytest.raises(ResourceLimitError):
        chromatic_number(g, 1)


def test_order_hint_must_be_a_permutation():
    g = chi4_girth5_graph()
    for hint in ([0] * g.n, list(range(g.n + 1)), list(range(g.n - 1)), []):
        with pytest.raises(InvalidParameterError):
            chromatic_number(g, order_hint=hint)
    with pytest.raises(InvalidParameterError):
        chromatic_number(path_graph(3), order_hint=[0, 1, 1])


def _partitions(n):
    """Every partition of range(n) as a restricted growth string."""
    if n == 0:
        yield ()
        return
    for head in _partitions(n - 1):
        for c in range(max(head, default=-1) + 2):
            yield head + (c,)


def brute_chromatic_number(g):
    """Fewest blocks over all partitions of the vertices into
    independent sets."""
    return min(
        max(colors, default=-1) + 1
        for colors in _partitions(g.n)
        if all(colors[u] != colors[v] for u, v in g.edges)
    )


@st.composite
def graphs_with_orders(draw, max_n=8):
    g = draw(loopless_graphs(max_n))
    return g, draw(st.permutations(range(g.n)))


@settings(max_examples=300, deadline=None)
@given(graphs_with_orders())
def test_chromatic_number_matches_brute_force(case):
    g, order = case
    expected = brute_chromatic_number(g)
    assert chromatic_number(g) == expected
    assert chromatic_number(g, order_hint=order) == expected
    # each exact search alone decides every k, whatever the greedy bounds
    for search in (
        lambda k: _k_coloring(g, k, [10**6]),
        lambda k: _ordered_k_coloring(g, k, order, [10**6]),
    ):
        colors = search(expected)
        assert colors is not None
        assert all(0 <= c < expected for c in colors)
        assert all(colors[u] != colors[v] for u, v in g.edges)
        if expected > 0:
            assert search(expected - 1) is None


# -- the lambda-scan DSATUR rule, kept as the oracle ---------------------


def reference_greedy_coloring(g):
    adj = g.adjacency
    colors = [-1] * g.n
    sat = [set() for _ in range(g.n)]
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


def reference_k_coloring(g, k, budget):
    adj = g.adjacency
    colors = [-1] * g.n
    sat = [set() for _ in range(g.n)]

    def pick():
        return max(
            (u for u in range(g.n) if colors[u] == -1),
            key=lambda u: (len(sat[u]), len(adj[u]), -u),
        )

    def assign(v, c):
        colors[v] = c
        touched = []
        for w in adj[v]:
            if colors[w] == -1 and c not in sat[w]:
                sat[w].add(c)
                touched.append(w)
        return touched

    def unassign(v, c, touched):
        colors[v] = -1
        for w in touched:
            sat[w].discard(c)

    def backtrack(colored, used):
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


def _run_search(search, g, k, nodes):
    """(coloring or "budget", nodes left) of one bounded search."""
    budget = [nodes]
    try:
        result = search(g, k, budget)
    except ResourceLimitError:
        result = "budget"
    return result, budget[0]


@st.composite
def graphs_with_loops(draw, max_n=16):
    g = draw(loopless_graphs(max_n))
    loops = draw(st.sets(st.integers(0, max(g.n - 1, 0)))) if g.n else set()
    return g, Graph(g.n, list(g.edges) + [(v, v) for v in loops])


@settings(max_examples=300, deadline=None)
@given(graphs_with_loops(), st.integers(0, 400))
def test_dsatur_matches_reference_rule(case, nodes):
    g, looped = case
    assert greedy_coloring(looped) == reference_greedy_coloring(looped)
    assert greedy_coloring(g) == reference_greedy_coloring(g)
    for k in range(1, 7):
        # small budgets end some searches, which must stop at the same node
        assert _run_search(_k_coloring, g, k, nodes) == _run_search(
            reference_k_coloring, g, k, nodes
        )


def _clique_number(g):
    adj = g.adjacency
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) > best and all(
            b in adj[a] for a, b in itertools.combinations(vs, 2)
        ):
            best = len(vs)
    return best


def _gnp_chi_above_clique(index, n=12, p=0.4, seed=7):
    """The index-th G(n, p) drawn from a fixed seed whose chromatic
    number, by the reference rule, exceeds its clique number."""
    rng = random.Random(seed)
    while True:
        g = Graph(
            n,
            [e for e in itertools.combinations(range(n), 2) if rng.random() < p],
        )
        if _reference_chi_and_nodes(g)[0] > _clique_number(g):
            if index == 0:
                return g
            index -= 1


def _reference_chi_and_nodes(g):
    """chromatic_number's bounds and search order, by the reference rule."""
    lower = max(3, len(greedy_clique(g)))
    upper = max(reference_greedy_coloring(g)) + 1
    budget = [10**9]
    for k in range(lower, upper):
        if reference_k_coloring(g, k, budget) is not None:
            return k, 10**9 - budget[0]
    return upper, 10**9 - budget[0]


BUDGET_GRAPHS = {
    "chi4_girth5": chi4_girth5_graph,
    "grotzsch": lambda: mycielskian(cycle_graph(5)),
    "gnp_0": lambda: _gnp_chi_above_clique(0),
    "gnp_1": lambda: _gnp_chi_above_clique(1),
    "gnp_2": lambda: _gnp_chi_above_clique(2),
}


@pytest.mark.parametrize("name", sorted(BUDGET_GRAPHS))
def test_node_budget_boundary_is_unchanged(name):
    g = BUDGET_GRAPHS[name]()
    chi, nodes = _reference_chi_and_nodes(g)
    assert nodes > 0
    assert chromatic_number(g, node_budget=nodes) == chi
    with pytest.raises(ResourceLimitError):
        chromatic_number(g, node_budget=nodes - 1)

"""Exact chromatic number solver and helpers."""

import itertools
import math

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
    coloring_hom,
    greedy_clique,
    greedy_coloring,
)
from homcx.errors import InvalidParameterError, ResourceLimitError
from homcx.graphs import Graph


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
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    return g, draw(st.permutations(range(n)))


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

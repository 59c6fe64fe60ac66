"""Graph container, invariants, and builders."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from homcx.builders import (
    chi4_girth5_graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    walker_graph_1,
    walker_graph_2,
)
from homcx.errors import GraphFormatError, InvalidParameterError
from homcx.graphs import (
    Graph,
    GraphHom,
    diameter,
    girth,
    is_bipartite,
    is_connected,
    odd_girth,
)
from oracles import delete_vertex


def test_graph_normalizes_edges():
    g = Graph(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_graph_rejects_bad_vertices():
    with pytest.raises(InvalidParameterError):
        Graph(2, [(0, 5)])
    with pytest.raises(InvalidParameterError):
        Graph(-1, [])


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_graph_rejects_non_integer_vertex_count(n):
    with pytest.raises(InvalidParameterError):
        Graph(n, [])
    with pytest.raises(InvalidParameterError):
        Graph(n, [(0, 0)])


@pytest.mark.parametrize("edge", [(0.5, 1), (0, 1.0), (True, 1), (0, False), ("0", 1)])
def test_graph_rejects_non_integer_endpoints(edge):
    with pytest.raises(InvalidParameterError):
        Graph(2, [edge])


@pytest.mark.parametrize("vertices", [[0, 99], [-1, 1], [0, 3], [0.0, 1], [True]])
def test_induced_rejects_bad_vertices(vertices):
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidParameterError):
        g.induced(vertices)


@st.composite
def graphs_with_loops(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(graphs_with_loops(), st.booleans())
def test_adjacency_views_agree(g, loops_first):
    if loops_first:
        loops = g.loops()
        adj = g.adjacency
    else:
        adj = g.adjacency
        loops = g.loops()
    assert len(adj) == len(g.adjacency_masks) == g.n
    for v in range(g.n):
        assert len(adj[v]) == len(set(adj[v]))
        assert set(adj[v]) == {w for w in range(g.n) if g.has_edge(v, w)}
        assert sum(1 << w for w in adj[v]) == g.adjacency_masks[v]
    assert loops == {v for v in range(g.n) if v in adj[v]}


def test_loops_and_simple():
    g = Graph(3, [(0, 0), (0, 1)])
    assert g.has_loop()
    assert g.loops() == frozenset({0})
    assert not complete_graph(3).has_loop()


@pytest.mark.parametrize(
    "edges, loops",
    [([(0, 1), (1, 2)], set()), ([(0, 1), (2, 2), (1, 1)], {1, 2})],
)
def test_cached_views_leave_equality_and_hash(edges, loops):
    g = Graph(3, edges)
    for _ in range(2):  # computed, then read from the cache
        assert g.loops() == frozenset(loops)
        assert g.has_loop() == bool(loops)
        assert len(g.adjacency) == len(g.adjacency_masks) == 3
    fresh = Graph(3, reversed(edges))
    assert g == fresh and hash(g) == hash(fresh)
    assert {g: 1}[fresh] == 1
    assert fresh.loops() == frozenset(loops)


def test_json_round_trip():
    g = petersen_graph()
    assert Graph.from_json(g.to_json()) == g
    with pytest.raises(GraphFormatError):
        Graph.from_json("{not json")
    with pytest.raises(GraphFormatError):
        Graph.from_json('{"n": 2}')


def test_induced_and_delete():
    g = cycle_graph(5)
    sub = g.induced([0, 1, 2])
    assert sub.n == 3 and sub.edges == frozenset({(0, 1), (1, 2)})
    assert delete_vertex(g, 0).n == 4


def test_girth_values():
    assert girth(complete_graph(3)) == 3
    assert girth(cycle_graph(7)) == 7
    assert girth(petersen_graph()) == 5
    assert girth(path_graph(4)) == math.inf
    assert girth(chi4_girth5_graph()) == 5


def test_odd_girth_values():
    assert odd_girth(cycle_graph(6)) == math.inf
    assert odd_girth(cycle_graph(9)) == 9
    assert odd_girth(petersen_graph()) == 5
    assert odd_girth(circulant_graph(10, (1, 2))) == 3


def test_bipartite_and_connected():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_connected(cycle_graph(5))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(two_triangles)
    assert not is_bipartite(Graph(1, [(0, 0)]))


def test_diameter():
    assert diameter(complete_graph(4)) == 1
    assert diameter(cycle_graph(7)) == 3
    assert diameter(petersen_graph()) == 2


def test_hom_validates_edges():
    c5 = cycle_graph(5)
    k3 = complete_graph(3)
    GraphHom(c5, k3, [0, 1, 2, 0, 1])
    with pytest.raises(InvalidParameterError):
        GraphHom(c5, k3, [0, 0, 1, 2, 0])


def test_hom_compose_and_identity():
    c5 = cycle_graph(5)
    k3 = complete_graph(3)
    f = GraphHom(c5, k3, [0, 1, 2, 0, 1])
    ident = GraphHom.identity(k3)
    assert ident.compose(f).mapping == f.mapping
    with pytest.raises(InvalidParameterError):
        f.compose(f)


def test_walker_graphs_shape():
    g1 = walker_graph_1()
    g2 = walker_graph_2()
    assert g1.n == 7 and g2.n == 9
    assert g2.edge_count() == g1.edge_count() + 2


@pytest.mark.parametrize("mapping", [[1.0, 0.0], "ab", True, [True, False], [1, None]])
def test_hom_rejects_non_integer_vertices(mapping):
    k2 = complete_graph(2)
    with pytest.raises(InvalidParameterError):
        GraphHom(k2, k2, mapping)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": True, "edges": []},
        {"n": 2, "edges": [[False, 1]]},
        {"n": 2.0, "edges": []},
        {"n": 2, "edges": [[0.5, 1]]},
        {"n": -1, "edges": []},
        {"n": 2, "edges": [[0, 2]]},
        {"n": 2, "edges": [[0, 1, 1]]},
        {"n": 2, "edges": [[0, 1], "01"]},
    ],
)
def test_from_json_rejects_non_integer_vertices(obj):
    with pytest.raises(GraphFormatError):
        Graph.from_json_obj(obj)

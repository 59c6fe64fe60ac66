"""Graph container, invariants, and builders."""

import math

import pytest

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
    disjoint_union,
    dismantlable_witness,
    fold_reduce,
    girth,
    is_bipartite,
    is_connected,
    odd_girth,
    product,
)


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


def test_loops_and_simple():
    g = Graph(3, [(0, 0), (0, 1)])
    assert g.has_loop()
    assert g.loops() == frozenset({0})
    assert not g.is_simple()
    assert complete_graph(3).is_simple()


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
    assert g.delete_vertex(0).n == 4
    assert g.delete_edge(0, 1).edge_count() == 4


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
    assert not is_connected(disjoint_union(cycle_graph(3), cycle_graph(3)))
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


def test_dismantlable_witness():
    # vertex 3 hangs off 0 and is dominated by 1
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert dismantlable_witness(g, 3) is not None
    assert dismantlable_witness(cycle_graph(5), 0) is None


def test_fold_reduce_tree_to_edge():
    red = fold_reduce(path_graph(6))
    assert red.core.n == 2
    red2 = fold_reduce(cycle_graph(5))
    assert red2.core.n == 5


def test_product_projections():
    g = product(complete_graph(3), cycle_graph(4))
    assert g.n == 12
    # categorical product: edges pair up edges on both sides
    assert g.edge_count() == 3 * 2 * 4


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
    "obj", [{"n": True, "edges": []}, {"n": 2, "edges": [[False, 1]]}, {"n": 2.0, "edges": []}]
)
def test_from_json_rejects_non_integer_vertices(obj):
    with pytest.raises(GraphFormatError):
        Graph.from_json_obj(obj)

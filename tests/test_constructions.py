"""Subdivision, path replacement, gluing, and the full pipeline."""

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
)
from homcx.constructions import (
    FamilyMember,
    certificate_json,
    cylinder_sweep_order,
    find_high_girth_high_chromatic,
    glue_cylinder,
    replace_edges_with_paths,
    shortest_odd_cycle,
    theorem51_pipeline,
    uniformly_small_m,
)
from homcx.coloring import chromatic_number
from homcx.errors import (
    BipartiteInputError,
    DisconnectedGraphError,
    InvalidParameterError,
    NotFoundWithinBudgetError,
)
from homcx.graphs import Graph, GraphHom, girth, odd_girth
from homcx.homology import cellular_chain_complex, homology, induced_map_homology
from homcx.homs import enumerate_cells, enumerate_homs
from oracles import (
    covering_split,
    length3_walk,
    subdivide_edge,
    subdivision_fibers_ok,
)


def box_profile(g):
    k = enumerate_cells(complete_graph(2), g)
    return homology(cellular_chain_complex(k))


def test_subdivide_edge_shape_and_retraction():
    g = cycle_graph(5)
    after, retraction = subdivide_edge(g, 0, 1)
    assert after.n == 7
    assert after.edge_count() == g.edge_count() + 2
    assert not after.has_edge(0, 1)
    # the retraction is a graph homomorphism onto g by construction
    assert retraction.codomain == g


def test_subdivide_rejects_missing_edge():
    # the fold of the path onto a non-edge is no graph map
    with pytest.raises(InvalidParameterError):
        subdivide_edge(cycle_graph(5), 0, 2)


def test_prop32_positive_on_girth_five():
    for g in (cycle_graph(5), cycle_graph(7), petersen_graph()):
        for e in sorted(g.edges):
            assert length3_walk(g, *e) is None


def test_prop32_negative_on_c4():
    c4 = cycle_graph(4)
    for e in sorted(c4.edges):
        walk = length3_walk(c4, *e)
        assert walk is not None
        v, x, y, w = walk
        assert (v, w) == e
        stripped = Graph(c4.n, c4.edges - {e})
        assert stripped.has_edge(v, x)
        assert stripped.has_edge(x, y)
        assert stripped.has_edge(y, w)


def test_subdivision_preserves_box_betti():
    g = cycle_graph(5)
    after, _ = subdivide_edge(g, 1, 2)
    assert box_profile(after) == box_profile(g)


def test_fiber_certificate_zigzags():
    # one box cell over each cell but two, and a 5-cell zigzag over each
    # of ({0},{1}) and ({1},{0}); two fibers are disjoint by definition
    assert subdivision_fibers_ok(cycle_graph(5), 0, 1)


@st.composite
def loopless_graphs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.sets(st.sampled_from(pairs))))


@settings(max_examples=60, deadline=None)
@given(loopless_graphs())
def test_subdivision_fibers_and_retraction_on_random_graphs(g):
    # girth 3 and 4 graphs included: only the edges without a length-3
    # walk around them meet Prop. 3.2's hypothesis
    for v, w in sorted(g.edges):
        if length3_walk(g, v, w) is None:
            assert subdivision_fibers_ok(g, v, w)
            _, retraction = subdivide_edge(g, v, w)
            assert induced_map_homology(retraction, complete_graph(2))


def test_replace_edges_with_paths_structure():
    x = cycle_graph(7)
    repl = replace_edges_with_paths(x, 5)
    # 7 edges each replaced by a length-5 path: 4 new vertices per edge
    assert repl.result.n == 7 + 7 * 4
    assert odd_girth(repl.result) == 35
    # collapse is a parity fold back onto x, wrap winds onto C_5
    assert repl.collapse.codomain == x
    assert repl.wrap.codomain.n == 5
    for v in range(x.n):
        assert repl.collapse.mapping[v] == v


def test_replace_length_one_is_identity():
    x = cycle_graph(5)
    repl = replace_edges_with_paths(x, 1)
    assert repl.result == x
    assert repl.collapse.mapping == tuple(range(5))


def test_glue_cylinder_shape():
    x = cycle_graph(7)
    g = cycle_graph(5)
    repl = replace_edges_with_paths(x, 5)
    embed_cycle = GraphHom(cycle_graph(5), g, shortest_odd_cycle(g))
    gmap = embed_cycle.compose(repl.wrap)
    glue = glue_cylinder(x, repl.result, g, repl.collapse, gmap, 7)
    assert glue.h.n == x.n + (7 - 1) * repl.result.n + g.n
    # both ends embed
    for u, v in sorted(x.edges):
        assert glue.h.has_edge(glue.embed_x.mapping[u], glue.embed_x.mapping[v])
    for u, v in sorted(g.edges):
        assert glue.h.has_edge(glue.embed_g.mapping[u], glue.embed_g.mapping[v])
    # the two parts cover all vertices and overlap in the interior
    a = set(glue.a_vertices)
    b = set(glue.b_vertices)
    assert a | b == set(range(glue.h.n))
    assert set(glue.overlap_vertices) == a & b


def test_cylinder_sweep_order_is_permutation():
    x = cycle_graph(7)
    repl = replace_edges_with_paths(x, 5)
    order = cylinder_sweep_order(x.n, repl.result, 5, 7)
    n = x.n + 6 * repl.result.n + 5
    assert sorted(order) == list(range(n))


def test_uniformly_small_m_values():
    assert uniformly_small_m([complete_graph(2)]) == 7
    assert uniformly_small_m([cycle_graph(5)]) == 9
    assert uniformly_small_m([complete_graph(2), cycle_graph(5)]) == 9
    with pytest.raises(DisconnectedGraphError):
        uniformly_small_m([Graph(2, [])])


def test_shortest_odd_cycle_embeds():
    g = petersen_graph()
    cyc = shortest_odd_cycle(g)
    assert len(cyc) == 5
    assert len(set(cyc)) == 5
    for i, v in enumerate(cyc):
        assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


def test_find_high_girth_deterministic():
    a = find_high_girth_high_chromatic(2, 7)
    b = find_high_girth_high_chromatic(2, 7)
    assert a == b == cycle_graph(7)
    assert chromatic_number(a) > 2 and girth(a) >= 7


def test_find_high_girth_n3_verified():
    g = find_high_girth_high_chromatic(3, 5)
    assert g == chi4_girth5_graph()
    assert chromatic_number(g) == 4
    assert girth(g) == 5


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [3, 4, 7, 8])
def test_find_high_girth_odd_cycle_for_small_n(n, m):
    g = find_high_girth_high_chromatic(n, m)
    assert g == cycle_graph(m if m % 2 else m + 1)
    assert chromatic_number(g) == 3
    assert girth(g) == g.n


@pytest.mark.parametrize("n, m", [(3, 7), (4, 5)])
def test_find_high_girth_without_a_verified_graph(n, m):
    with pytest.raises(NotFoundWithinBudgetError) as exc:
        find_high_girth_high_chromatic(n, m)
    assert str(exc.value) == (
        f"no verified graph with chi > {n} and girth >= {m} found"
    )


def test_covering_split_small():
    # split C_6 along two overlapping arcs; box cells all live in arcs
    h = cycle_graph(6)
    a = [0, 1, 2, 3, 4]
    b = [3, 4, 5, 0, 1]
    rep = covering_split(complete_graph(2), h, a, b)
    assert rep.cells_total == 24
    assert rep.union_covers


def test_pipeline_looped_input():
    fam = [FamilyMember("K2", complete_graph(2))]
    loop = Graph(2, [(0, 0), (0, 1)])
    cert = theorem51_pipeline(fam, loop, 2)
    assert cert.verdict == "consistent"
    assert cert.chi_x == math.inf and cert.chi_h == math.inf
    assert cert.h == loop


def test_pipeline_rejects_bipartite():
    fam = [FamilyMember("K2", complete_graph(2))]
    with pytest.raises(BipartiteInputError):
        theorem51_pipeline(fam, cycle_graph(6), 2)


def test_pipeline_rejects_disconnected():
    fam = [FamilyMember("K2", complete_graph(2))]
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(DisconnectedGraphError):
        theorem51_pipeline(fam, g, 2)


def test_certificate_json_deterministic():
    fam = [FamilyMember("K2", complete_graph(2))]
    loop = Graph(2, [(0, 0), (0, 1)])
    c1 = theorem51_pipeline(fam, loop, 2)
    c2 = theorem51_pipeline(fam, loop, 2)
    assert certificate_json(c1) == certificate_json(c2)

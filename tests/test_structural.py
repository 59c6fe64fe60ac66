"""The structural route: fold and excision checks that prove
Hom(T, G) -> Hom(T, H) a homology isomorphism without enumerating
Hom(T, H), checked against the direct route that does enumerate it."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from homcx.builders import complete_graph, cycle_graph, path_graph
from homcx.constructions import (
    CylinderGlue,
    FamilyMember,
    _run_members,
    _verify_member,
    fold_retraction,
    glue_cylinder,
    replace_edges_with_paths,
    shortest_odd_cycle,
    structural_failure,
)
from homcx.errors import ResourceLimitError
from homcx.graphs import Graph, GraphHom, odd_girth
from homcx.homs import _hom_mappings
from oracles import covering_split, mycielskian

K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
C5 = cycle_graph(5)
P3 = path_graph(2)
W5 = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])

# members with a flipping involution where the graph has one (P3 has none)
MEMBERS = {
    "K2": FamilyMember("K2", K2, GraphHom(K2, K2, [1, 0])),
    "P3": FamilyMember("P3", P3),
    "C4": FamilyMember("C4", C4, GraphHom(C4, C4, [1, 0, 3, 2])),
    "K3": FamilyMember("K3", K3, GraphHom(K3, K3, [1, 0, 2])),
    "C5": FamilyMember("C5", C5, GraphHom(C5, C5, [0, 4, 3, 2, 1])),
}
TARGETS = {"K3": K3, "C5": C5, "W5": W5}
CAP = 60_000


def glue_for(x, g, m, subdivide):
    """H as the pipeline glues it (Y = X with every edge replaced by a
    path of length odd_girth(G)), or with Y = X and f the identity."""
    if subdivide:
        length = int(odd_girth(g))
        repl = replace_edges_with_paths(x, length)
        cycle = GraphHom(cycle_graph(length), g, shortest_odd_cycle(g))
        return glue_cylinder(
            x, repl.result, g, repl.collapse, cycle.compose(repl.wrap), m
        )
    gmap = GraphHom(x, g, _hom_mappings(x, g)[0])
    return glue_cylinder(x, x, g, GraphHom.identity(x), gmap, m)


def both_routes(member, g, glue, cap=CAP):
    structural = _verify_member(member, g, glue.h, glue.embed_g, cap, glue)
    direct = _verify_member(member, g, glue.h, glue.embed_g, cap)
    return structural, direct


def answer(report):
    return report.profile_g, report.profile_h, report.z2, report.verified


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    st.sampled_from(sorted(MEMBERS)),
    st.sampled_from(sorted(TARGETS)),
    st.sampled_from([5, 7]),
    st.sampled_from([3, 4]),
    st.booleans(),
)
def test_structural_route_agrees_with_direct_route(name, g_name, x_n, m, subdivide):
    member, g = MEMBERS[name], TARGETS[g_name]
    glue = glue_for(cycle_graph(x_n), g, m, subdivide)
    try:
        structural, direct = both_routes(member, g, glue)
    except ResourceLimitError:
        assume(False)  # Hom(T, H) does not fit under the cap
    assert direct.route == "direct"
    failure = structural_failure(member.graph, g, glue, CAP)
    assert structural.route == ("structural" if failure is None else "direct")
    assert answer(structural) == answer(direct)
    if failure is None:
        # the enumerating oracle of check (a), and of (c) for odd T
        assert covering_split(
            member.graph, glue.h, glue.a_vertices, glue.b_vertices, cap=CAP
        ).ok


def test_pipeline_inputs_take_the_structural_route():
    # the benchmark's H and criterion 7's: Hom(K2, H) has 281,360 cells
    # on the first and is never built
    for g, x_n in ((K3, 7), (C5, 7)):
        glue = glue_for(cycle_graph(x_n), g, 7, subdivide=True)
        assert structural_failure(K2, g, glue) is None


def test_apex_over_g_is_not_folded_and_falls_back():
    # planted failure: a vertex of B adjacent to all of G = K3 is
    # dominated by no other vertex, and it does change the homology
    glue = glue_for(C5, K3, 3, subdivide=False)
    apex = glue.h.n
    h = Graph(apex + 1, list(glue.h.edges) + [(apex, v) for v in glue.embed_g.mapping])
    planted = CylinderGlue(
        h=h,
        m=glue.m,
        embed_x=GraphHom(C5, h, glue.embed_x.mapping),
        embed_g=GraphHom(K3, h, glue.embed_g.mapping),
        a_vertices=glue.a_vertices,
        b_vertices=glue.b_vertices + (apex,),
        overlap_vertices=glue.overlap_vertices,
    )
    assert structural_failure(K2, K3, planted) == "folds"
    structural, direct = both_routes(MEMBERS["K2"], K3, planted)
    assert structural.route == "direct"
    assert answer(structural) == answer(direct)
    assert structural.profile_h.betti == (1, 0, 1) != structural.profile_g.betti


def test_grotzsch_base_fails_the_excision_check():
    # planted failure: X of girth 4, where r|L is no isomorphism for K2;
    # Hom(K2, H) passes 2M cells, so the direct route ends at the cap
    glue = glue_for(mycielskian(C5), K3, 3, subdivide=True)
    assert structural_failure(K2, K3, glue) == "r|L is not a homology isomorphism"
    with pytest.raises(ResourceLimitError):
        _verify_member(MEMBERS["K2"], K3, glue.h, glue.embed_g, 10_000, glue)
    for route in (glue, None):
        members, failed, skipped = _run_members(
            [MEMBERS["K2"]], K3, glue.h, glue.embed_g, 10_000, route
        )
        assert not members[0].verified and skipped and not failed


def test_odd_member_with_a_map_into_x_falls_back():
    # planted failure: T = C5 maps into X = C5, so Hom(T, H[A]) is not empty
    glue = glue_for(C5, K3, 3, subdivide=False)
    assert structural_failure(C5, K3, glue) == "Hom(T, H[A]) is not empty"
    structural, direct = both_routes(MEMBERS["C5"], K3, glue)
    assert structural.route == "direct"
    assert answer(structural) == answer(direct)


def test_cover_fails_when_the_cylinder_is_short():
    # P3's diameter 2 needs X and G at distance 3 or more; m = 2 gives 2
    glue = glue_for(C5, K3, 2, subdivide=False)
    assert structural_failure(P3, K3, glue) == "cover"
    assert not covering_split(P3, glue.h, glue.a_vertices, glue.b_vertices).union_covers


def test_member_without_an_edge_or_connection_takes_the_direct_route():
    glue = glue_for(C5, K3, 3, subdivide=False)
    two_edges = Graph(4, [(0, 1), (2, 3)])
    for t in (Graph(1, []), two_edges):
        assert structural_failure(t, K3, glue) == "T is not connected with an edge"
    # Hom(2K2, H) passes the cap on either route
    for route in (glue, None):
        members, _, skipped = _run_members(
            [FamilyMember("2K2", two_edges)], K3, glue.h, glue.embed_g, 200, route
        )
        assert skipped and members[0].route == "direct"


def test_fold_retraction_is_a_retraction_onto_the_target():
    glue = glue_for(cycle_graph(7), K3, 4, subdivide=True)
    h = glue.h
    for part, target in (
        (glue.a_vertices, glue.embed_x.mapping),
        (glue.b_vertices, glue.embed_g.mapping),
        (glue.overlap_vertices, glue.level(1)),
    ):
        r = fold_retraction(h, part, target)
        assert set(r) == set(part)
        assert all(r[v] == v for v in target)
        for u, v in h.edges:
            if u in r and v in r:
                assert h.has_edge(r[u], r[v])


def test_fold_retraction_small_cases():
    # the path 0-1-2 folds 0 onto 2; a 5-cycle has no fold at all
    assert fold_retraction(P3, [0, 1, 2], [1, 2]) == {0: 2, 1: 1, 2: 2}
    assert fold_retraction(C5, range(5), [0, 1]) is None
    assert fold_retraction(C5, [0, 1], [0, 1, 2]) is None

"""Hom complexes: enumeration, cell maps, the Z_2 action."""

import contextlib
import io
import itertools
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from homcx.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from homcx.cli import main
from homcx.errors import ResourceLimitError
from homcx.graphs import Graph, GraphHom
from homcx.homs import (
    Involution,
    _lex_key,
    _vertices,
    enumerate_cells,
    enumerate_homs,
    pullback,
    pushforward,
    x_homotopy_classes,
    z2_structure,
)


def brute_homs(t, g):
    out = []
    for mapping in itertools.product(range(g.n), repeat=t.n):
        if all(g.has_edge(mapping[u], mapping[v]) for u, v in t.edges):
            out.append(mapping)
    return sorted(out)


@pytest.mark.parametrize(
    "t,g",
    [
        (complete_graph(2), cycle_graph(5)),
        (cycle_graph(4), complete_graph(3)),
        (cycle_graph(5), complete_graph(3)),
        (path_graph(3), cycle_graph(6)),
        (Graph(2, [(0, 0), (0, 1)]), Graph(3, [(0, 0), (0, 1), (1, 2)])),
    ],
)
def test_enumeration_matches_brute_force(t, g):
    homs = enumerate_homs(t, g)
    assert [h.mapping for h in homs] == [tuple(m) for m in brute_homs(t, g)]


def test_no_homs_odd_cycle_to_bipartite():
    assert enumerate_homs(cycle_graph(5), cycle_graph(6)) == []


def test_hom_cap_raises():
    with pytest.raises(ResourceLimitError):
        enumerate_homs(path_graph(4), complete_graph(5), cap=10)


def test_cells_sorted_by_dim_then_assignment():
    k = enumerate_cells(complete_graph(2), cycle_graph(5))
    keys = [(c.dim, c.assignment) for c in k.cells]
    assert keys == sorted(keys)


@st.composite
def graphs(draw, max_n, loops=False, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    if not loops:
        pairs = [(u, v) for u, v in pairs if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def graph_homs(draw, domain, max_n):
    """A random map from ``domain`` onto at most ``max_n`` vertices and
    a random codomain that contains the image of every edge."""
    n = draw(st.integers(1, max_n))
    mapping = draw(st.lists(st.integers(0, n - 1), min_size=domain.n, max_size=domain.n))
    extra = draw(graphs(n, loops=True, min_n=n))
    image = [(mapping[u], mapping[v]) for u, v in domain.edges]
    return GraphHom(domain, Graph(n, set(extra.edges) | set(image)), mapping)


@st.composite
def complexes(draw, cap):
    """Hom(T, G) for a small loopless T and a random G (with loops only
    on at most 3 vertices), drawn again whenever it has over ``cap`` cells."""
    t = draw(st.sampled_from(
        [complete_graph(2), path_graph(3), cycle_graph(4), complete_graph(3)]
    ))
    loops = draw(st.booleans())
    g = draw(graphs(3 if loops else 5, loops=loops))
    try:
        return enumerate_cells(t, g, cap=cap)
    except ResourceLimitError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(k=complexes(3000))
def test_cells_in_canonical_order(k):
    keys = [(c.dim, c.assignment) for c in k.cells]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert [c.dim for c in k.cells] == list(k.dim_of)
    for d in range(k.dimension + 1):
        assert k.cells_of_dim(d) == [i for i, c in enumerate(k.cells) if c.dim == d]


@settings(max_examples=60, deadline=None)
@given(k=complexes(300))
def test_facets_match_brute_force(k):
    cells = k.cells
    for i, cell in enumerate(cells):
        brute = [
            j
            for j, face in enumerate(cells)
            if face.dim == cell.dim - 1 and face.is_face_of(cell)
        ]
        assert sorted(k.facets(i)) == brute


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from([complete_graph(2), path_graph(3)]), data=st.data())
def test_pushforward_is_functorial(t, data):
    f = data.draw(graph_homs(data.draw(graphs(4)), 4))
    g = data.draw(graph_homs(f.codomain, 4))
    ka, kb, kc = (enumerate_cells(t, x) for x in (f.domain, f.codomain, g.codomain))
    pf = pushforward(f, t, source_complex=ka, target_complex=kb)
    pg = pushforward(g, t, source_complex=kb, target_complex=kc)
    pgf = pushforward(g.compose(f), t, source_complex=ka, target_complex=kc)
    assert pgf.images == pg.compose(pf).images
    ident = pushforward(GraphHom.identity(f.domain), t, ka, ka)
    assert ident.images == tuple(range(len(ka)))
    for i, cell in enumerate(ka.cells):
        image = kb.cells[pf.images[i]].assignment
        assert image == tuple(
            tuple(sorted({f.mapping[x] for x in s})) for s in cell.assignment
        )


@settings(max_examples=60, deadline=None)
@given(g=graphs(4, loops=True), data=st.data())
def test_pullback_is_contravariant(g, data):
    u = data.draw(graph_homs(data.draw(graphs(3)), 3))
    v = data.draw(graph_homs(u.codomain, 3))
    ka, kb, kc = (enumerate_cells(x, g) for x in (u.domain, u.codomain, v.codomain))
    pu = pullback(u, g, source_complex=kb, target_complex=ka)
    pv = pullback(v, g, source_complex=kc, target_complex=kb)
    pvu = pullback(v.compose(u), g, source_complex=kc, target_complex=ka)
    assert pvu.images == pu.compose(pv).images
    ident = pullback(GraphHom.identity(u.domain), g, ka, ka)
    assert ident.images == tuple(range(len(ka)))
    for i, cell in enumerate(kb.cells):
        image = ka.cells[pu.images[i]].assignment
        assert image == tuple(cell.assignment[x] for x in u.mapping)


def test_cells_of_box_complex_c5():
    k = enumerate_cells(complete_graph(2), cycle_graph(5))
    # 10 homs and 10 edges between them
    assert k.cell_counts() == (10, 10)


def test_empty_source_graph():
    k = enumerate_cells(Graph(0, []), cycle_graph(5))
    assert len(k) == 1 and k.cells[0].assignment == ()


def test_facets_are_codim_one():
    k = enumerate_cells(cycle_graph(4), complete_graph(3))
    for i, cell in enumerate(k.cells):
        for j in k.facets(i):
            assert k.cells[j].dim == cell.dim - 1
            assert k.cells[j].is_face_of(cell)


def test_multihom_face_relation():
    k = enumerate_cells(complete_graph(2), complete_graph(3))
    tops = [c for c in k.cells if c.dim == k.dimension]
    for top in tops:
        faces = [c for c in k.cells if c.is_face_of(top) and c != top]
        # product of boolean intervals minus the cell itself
        sizes = [len(s) for s in top.assignment]
        expect = 1
        for size in sizes:
            expect *= 2 ** size - 1
        assert len(faces) == expect - 1


def test_pushforward_well_defined():
    c5 = cycle_graph(5)
    k3 = complete_graph(3)
    f = GraphHom(c5, k3, [0, 1, 2, 0, 1])
    pf = pushforward(f, complete_graph(2))
    assert pf.is_order_preserving()
    assert len(pf.images) == len(pf.source)


def test_pullback_along_involution_is_bijection():
    c5 = cycle_graph(5)
    k2 = complete_graph(2)
    swap = GraphHom(k2, k2, [1, 0])
    k = enumerate_cells(k2, c5)
    pb = pullback(swap, c5, source_complex=k, target_complex=k)
    assert sorted(pb.images) == list(range(len(k)))


def test_x_homotopy_petersen_is_rigid():
    classes = x_homotopy_classes(cycle_graph(5), petersen_graph())
    assert len(classes) == 120
    assert all(len(c) == 1 for c in classes)


def test_x_homotopy_collapses_to_one_class():
    # maps K_2 -> K_3 all connected through single-vertex moves
    classes = x_homotopy_classes(complete_graph(2), complete_graph(3))
    assert len(classes) == 1 and len(classes[0]) == 6


def _face_poset_components(k):
    parent = list(range(len(k)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(k)):
        for j in k.facets(i):
            parent[find(j)] = find(i)
    return len({find(i) for i in range(len(k))})


def _printed_class_count(t, g):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, graph in (("t", t), ("g", g)):
            paths.append(os.path.join(tmp, f"{name}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(graph.to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["hom", *paths, "--classes"]) == 0
    prefix = "x-homotopy classes: "
    assert out.getvalue().startswith(prefix)
    return int(out.getvalue()[len(prefix):])


@settings(max_examples=100, deadline=None)
@given(t=graphs(3, loops=True, min_n=0), g=graphs(4, loops=True, min_n=0))
@example(t=Graph(0, []), g=Graph(0, []))
@example(t=Graph(0, []), g=complete_graph(2))
@example(t=complete_graph(2), g=Graph(0, []))
@example(t=complete_graph(3), g=complete_graph(2))  # empty complex
@example(t=Graph(2, [(0, 0), (0, 1)]), g=Graph(3, [(0, 0), (1, 1), (0, 1), (1, 2)]))
@example(t=Graph(3, [(0, 1)]), g=cycle_graph(4))  # isolated source vertex
@example(t=Graph(1, [(0, 0)]), g=Graph(3, [(0, 0), (1, 1), (2, 2), (0, 1)]))
def test_classes_are_components_of_the_one_skeleton(t, g):
    k = enumerate_cells(t, g)
    maps = k.masks[: k.offsets[1]] if len(k) else ()
    assert [tuple(m.bit_length() - 1 for m in ms) for ms in maps] == [
        f.mapping for f in enumerate_homs(t, g)
    ]
    classes = len(x_homotopy_classes(t, g))
    assert _printed_class_count(t, g) == classes == _face_poset_components(k)


def test_involution_flipping_flag():
    k2 = complete_graph(2)
    swap = Involution(k2, GraphHom(k2, k2, [1, 0]))
    assert swap.flipping
    c5 = cycle_graph(5)
    refl = Involution(c5, GraphHom(c5, c5, [0, 4, 3, 2, 1]))
    assert refl.flipping  # 2 maps to its neighbor 3
    ident = Involution(c5, GraphHom.identity(c5))
    assert not ident.flipping


def _assert_free_z2_action(rep):
    action = rep.action
    k = action.source
    assert action.target is k
    assert sorted(action.images) == list(range(len(k)))
    assert action.is_order_preserving()
    assert all(k.dim_of[i] == k.dim_of[j] for i, j in enumerate(action.images))
    assert all(i != j for i, j in enumerate(action.images))
    assert rep.free


def test_z2_action_free_on_box_complex():
    k2 = complete_graph(2)
    swap = Involution(k2, GraphHom(k2, k2, [1, 0]))
    rep = z2_structure(k2, swap, cycle_graph(5))
    assert rep.flipping
    _assert_free_z2_action(rep)


# (T, flipping involution of T, largest G); Hom(C5, K5) has 45,540 cells
flipping_involutions = [
    (complete_graph(2), [1, 0], 6),
    (cycle_graph(5), [0, 4, 3, 2, 1], 4),
]


@pytest.mark.parametrize("t,mapping,max_n", flipping_involutions)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flipping_pullback_is_a_free_z2_action(t, mapping, max_n, data):
    g = data.draw(graphs(max_n))
    alpha = Involution(t, GraphHom(t, t, mapping))
    assert alpha.flipping
    _assert_free_z2_action(z2_structure(t, alpha, g))


def test_z2_action_not_free_without_flip():
    c4 = cycle_graph(4)
    rot = Involution(c4, GraphHom(c4, c4, [2, 3, 0, 1]))
    rep = z2_structure(c4, rot, complete_graph(3))
    # the antipodal rotation of C_4 is not flipping and fixes cells
    assert not rep.flipping
    assert not rep.free


def test_empty_precomputed_complex_is_used(monkeypatch):
    # Hom(K3, K2) is empty; passing it in must not trigger enumeration
    k3, k2 = complete_graph(3), complete_graph(2)
    empty = enumerate_cells(k3, k2)
    assert len(empty) == 0

    def no_enumeration(*args, **kwargs):
        raise AssertionError("precomputed complex was re-enumerated")

    monkeypatch.setattr("homcx.homs.enumerate_cells", no_enumeration)
    ident = GraphHom.identity(k2)
    pf = pushforward(ident, k3, source_complex=empty, target_complex=empty)
    assert pf.source is empty and pf.target is empty
    pb = pullback(
        GraphHom.identity(k3), k2, source_complex=empty, target_complex=empty
    )
    assert pb.source is empty and pb.target is empty
    rot = Involution(k3, GraphHom(k3, k3, [1, 0, 2]))
    rep = z2_structure(k3, rot, k2, complex=empty)
    assert rep.action.source is empty and rep.free


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 70), min_size=1), min_size=2, max_size=30))
def test_lex_key_sorts_masks_as_vertex_tuples(sets):
    masks = [sum(1 << x for x in s) for s in sets]
    assert [_vertices(m) for m in masks] == [tuple(sorted(s)) for s in sets]
    by_key = sorted(masks, key=lambda m: _lex_key(m, 9))
    assert [_vertices(m) for m in by_key] == sorted(tuple(sorted(s)) for s in sets)

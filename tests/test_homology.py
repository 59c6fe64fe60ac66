"""Integer homology: chain complexes, SNF, reduction, induced maps."""

import importlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from homcx.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    walker_graph_1,
    walker_graph_2,
)
from homcx.errors import ResourceLimitError
from homcx.graphs import Graph, GraphHom
from homcx.homology import (
    ChainComplex,
    HomologyProfile,
    cellular_chain_complex,
    homology,
    OrderComplex,
    induced_map_homology,
    order_complex_homology,
)
from homcx.homs import enumerate_cells, pushforward
from oracles import order_complex_cone_isomorphism


def profile(t, g):
    return homology(cellular_chain_complex(enumerate_cells(t, g)))


def test_sphere_profiles_box_of_complete_graphs():
    # Hom(K_2, K_n) carries the homology of S^{n-2}
    assert profile(complete_graph(2), complete_graph(2)).betti == (2,)
    assert profile(complete_graph(2), complete_graph(3)).betti == (1, 1)
    assert profile(complete_graph(2), complete_graph(4)).betti == (1, 0, 1)
    assert profile(complete_graph(2), complete_graph(5)).betti == (1, 0, 0, 1)


def test_no_torsion_in_sphere_profiles():
    for n in (2, 3, 4, 5):
        p = profile(complete_graph(2), complete_graph(n))
        assert all(t == () for t in p.torsion)


def test_box_complex_of_cycles():
    assert profile(complete_graph(2), cycle_graph(5)).betti == (1, 1)
    assert profile(complete_graph(2), cycle_graph(4)).betti == (2,)
    assert profile(complete_graph(2), cycle_graph(6)).betti == (2, 2)


def test_torsion_detected():
    # Hom(C_5, K_4) has the integral homology of RP^3
    p = profile(cycle_graph(5), complete_graph(4))
    assert p.betti == (1, 0, 0, 1)
    assert p.torsion == ((), (2,), (), ())


def test_walker_pair_equal_betti():
    p1 = profile(complete_graph(2), walker_graph_1())
    p2 = profile(complete_graph(2), walker_graph_2())
    assert p1 == p2
    assert p1.betti == (1, 5)


def test_profile_json_round_trip():
    p = profile(cycle_graph(5), complete_graph(4))
    assert HomologyProfile.from_json_obj(p.to_json_obj()) == p


def test_dd_zero_enforced():
    with pytest.raises(AssertionError):
        ChainComplex([1, 1, 1], [[{}], [{0: 1}], [{0: 1}]])


def test_dd_zero_sums_non_unit_columns_exactly():
    # the check sums each column's boundary, so non-unit coefficients count
    ChainComplex([1, 1, 1], [[{}], [{}], [{0: 2}]])
    with pytest.raises(AssertionError):
        ChainComplex([2, 1, 1], [[{}, {}], [{0: 1, 1: -1}], [{0: 2}]])
    # and a unit column over a non-unit lower column
    ChainComplex([1, 2, 1], [[{}], [{0: 2}, {0: 2}], [{0: 1, 1: -1}]])
    with pytest.raises(AssertionError):
        ChainComplex([1, 2, 1], [[{}], [{0: 2}, {0: 2}], [{0: 1, 1: 1}]])


@st.composite
def graphs(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def _order_chain_complex(k):
    return OrderComplex(k).chain_complex()


@pytest.mark.parametrize("build", [cellular_chain_complex, _order_chain_complex])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dd_zero_catches_one_wrong_coefficient(build, data):
    # vertex 0 of G has degree >= 3, so Hom(K2, G) has a 2-cell
    g = data.draw(graphs(5, min_n=4))
    g = Graph(g.n, set(g.edges) | {(0, 1), (0, 2), (0, 3)})
    c = build(enumerate_cells(complete_graph(2), g))
    assert c.dimension >= 2
    d = data.draw(st.integers(2, c.dimension))
    j = data.draw(st.integers(0, c.ranks[d] - 1))
    i = data.draw(st.sampled_from(sorted(c.boundaries[d][j])))
    for wrong in (-c.boundaries[d][j][i], 2 * c.boundaries[d][j][i]):
        cols = [[dict(col) for col in level] for level in c.boundaries]
        cols[d][j][i] = wrong
        with pytest.raises(AssertionError):
            ChainComplex(c.ranks, cols)
    # the untouched columns pass the same check
    ChainComplex(c.ranks, c.boundaries)


@settings(max_examples=60, deadline=None)
@given(
    t=st.sampled_from([complete_graph(2), path_graph(3), cycle_graph(4)]),
    g=graphs(6),
)
def test_cellular_homology_matches_order_complex(t, g):
    try:
        k = enumerate_cells(t, g, cap=1500)
        oracle = order_complex_homology(k, budget=300_000)
    except ResourceLimitError:
        assume(False)
    assume(len(k) > 0)
    assert homology(cellular_chain_complex(k)) == oracle


def test_chain_complex_euler_characteristic():
    k = enumerate_cells(complete_graph(2), cycle_graph(5))
    c = cellular_chain_complex(k)
    assert c.euler_characteristic() == 0


def random_graph(rng, n, p):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def test_cellular_matches_order_complex_on_random_instances():
    rng = random.Random(11)
    sources = [complete_graph(2), path_graph(3), cycle_graph(4)]
    done = 0
    while done < 12:
        g = random_graph(rng, rng.randrange(3, 7), 0.5)
        t = sources[done % len(sources)]
        k = enumerate_cells(t, g)
        if len(k) == 0 or len(k) > 2000:
            continue
        try:
            po = order_complex_homology(k)
        except ResourceLimitError:
            # barycentric subdivision too large for this instance
            continue
        pc = homology(cellular_chain_complex(k))
        assert pc == po
        done += 1


def test_reduction_preserves_homology_on_random_complexes():
    # compare full SNF on the raw complex against the reduced route
    from homcx._kernels import snf_diagonal

    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(3, 7), 0.6)
        k = enumerate_cells(complete_graph(2), g)
        if len(k) == 0:
            continue
        c = cellular_chain_complex(k)
        # raw Betti numbers and torsion from the Smith diagonal, unreduced
        dims = len(c.ranks)
        factors = [snf_diagonal(c.boundaries[d], c.ranks[d - 1]) for d in range(1, dims)]
        factors = [[]] + factors + [[]]
        raw = HomologyProfile.make(
            [c.ranks[d] - len(factors[d]) - len(factors[d + 1]) for d in range(dims)],
            [[f for f in factors[d + 1] if f > 1] for d in range(dims)],
        )
        assert homology(c) == raw


def test_induced_map_identity_is_isomorphism():
    c5 = cycle_graph(5)
    assert induced_map_homology(GraphHom.identity(c5), complete_graph(2))


def test_induced_map_to_point_kills_top_class():
    # collapse C_6 onto one edge: H_1 of the box complex must die
    c6 = cycle_graph(6)
    k2 = complete_graph(2)
    fold = GraphHom(c6, k2, [0, 1, 0, 1, 0, 1])
    assert not induced_map_homology(fold, k2)
    assert not order_complex_cone_isomorphism(pushforward(fold, k2))


def test_induced_map_of_triple_wrap_is_not_isomorphism():
    # i -> i mod 5 wraps C_15 three times around C_5: both box complexes
    # are circles, but H_1 is multiplied by 3, so equal Betti numbers
    # must not decide
    c5 = cycle_graph(5)
    k2 = complete_graph(2)
    wrap = GraphHom(cycle_graph(15), c5, [i % 5 for i in range(15)])
    assert profile(k2, wrap.domain).betti == profile(k2, c5).betti == (1, 1)
    assert not induced_map_homology(wrap, k2)
    assert not order_complex_cone_isomorphism(pushforward(wrap, k2))


def _reflection(n):
    c = cycle_graph(n)
    return GraphHom(c, c, [-i % n for i in range(n)])


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("t", [complete_graph(2), path_graph(3)], ids=["K2", "P3"])
def test_induced_map_of_reflection_is_isomorphism(n, t):
    # a reflection of C_n reverses the orientation of cells, so some
    # signs are -1, and it is still an isomorphism
    assert induced_map_homology(_reflection(n), t)
    assert order_complex_cone_isomorphism(pushforward(_reflection(n), t))


def test_dropped_sign_fails_dd_zero(monkeypatch):
    # the package's ``homology`` attribute is the function, not the module
    module = importlib.import_module("homcx.homology")

    def unsigned(images):
        return 1 if len(set(images)) == len(images) else 0

    monkeypatch.setattr(module, "_parity", unsigned)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        induced_map_homology(_reflection(5), complete_graph(2))


@st.composite
def graph_maps(draw, max_n):
    """A graph G and a map onto the graph of its edges' images."""
    g = draw(graphs(max_n))
    n = draw(st.integers(1, g.n))
    mapping = draw(st.lists(st.integers(0, n - 1), min_size=g.n, max_size=g.n))
    # the image of every edge, loops included, so the map is a graph map
    target = Graph(n, {(mapping[u], mapping[v]) for u, v in g.edges})
    return GraphHom(g, target, mapping)


@settings(max_examples=60, deadline=None)
@given(
    t=st.sampled_from(
        [complete_graph(2), complete_graph(3), cycle_graph(4), path_graph(3)]
    ),
    f=graph_maps(6),
)
def test_cellular_cone_matches_order_complex_cone(t, f):
    try:
        oracle = order_complex_cone_isomorphism(
            pushforward(f, t, cap=400), budget=20_000
        )
    except ResourceLimitError:
        assume(False)
    assert induced_map_homology(f, t) == oracle


@settings(max_examples=40, deadline=None)
@given(f=graph_maps(6))
def test_induced_map_isomorphism_implies_equal_profiles(f):
    k2 = complete_graph(2)
    try:
        ident = induced_map_homology(GraphHom.identity(f.domain), k2, cap=500)
        isomorphism = induced_map_homology(f, k2, cap=500)
    except ResourceLimitError:
        assume(False)
    assert ident
    if isomorphism:
        assert profile(k2, f.domain) == profile(k2, f.codomain)

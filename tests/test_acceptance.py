"""The ten acceptance criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Heavy pipeline runs are shared between criteria
through module-scoped fixtures.
"""

import hashlib
import json
import math
import random
import sys
from contextlib import contextmanager

import pytest

from homcx.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    walker_graph_1,
    walker_graph_2,
)
from homcx.certs import load_certificate, verify_certificate
from homcx.cli import main as cli_main
from homcx.coloring import chromatic_number
from homcx.constructions import (
    FamilyMember,
    certificate_json,
    theorem51_pipeline,
)
from homcx.errors import ResourceLimitError
from homcx.graphs import Graph, GraphHom, girth
from homcx.homology import (
    cellular_chain_complex,
    homology,
    induced_map_homology,
    order_complex_homology,
)
from homcx.homs import (
    Involution,
    enumerate_cells,
    enumerate_homs,
    pushforward,
    x_homotopy_classes,
    z2_structure,
)
from oracles import (
    covering_split,
    delete_vertex,
    length3_walk,
    subdivide_edge,
    subdivision_fibers_ok,
)

K2 = complete_graph(2)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({label}): PASS", flush=True)


def profile(t, g, cap=10_000_000):
    return homology(cellular_chain_complex(enumerate_cells(t, g, cap=cap)))


@pytest.fixture(scope="module")
def cert7_runs():
    fam = [FamilyMember("K2", K2)]
    first = theorem51_pipeline(fam, cycle_graph(5), 2, seed=0)
    second = theorem51_pipeline(fam, cycle_graph(5), 2, seed=0)
    return first, second


@pytest.fixture(scope="module")
def cert8_runs():
    c5 = cycle_graph(5)
    refl = GraphHom(c5, c5, [0, 4, 3, 2, 1])
    fam = [FamilyMember("C5", c5, refl)]
    first = theorem51_pipeline(fam, c5, 2, seed=0)
    second = theorem51_pipeline(fam, c5, 2, seed=0)
    return first, second


def test_criterion_1_sphere_family():
    with criterion(1, "sphere family"):
        expected = {2: (2,), 3: (1, 1), 4: (1, 0, 1), 5: (1, 0, 0, 1)}
        for n, betti in expected.items():
            p = profile(K2, complete_graph(n))
            assert p.betti == betti
            assert all(t == () for t in p.torsion)


def test_criterion_2_walker_example():
    with criterion(2, "walker example"):
        g1 = walker_graph_1()
        g2 = walker_graph_2()
        assert chromatic_number(g1) == 4
        assert chromatic_number(g2) == 3
        p1 = profile(K2, g1)
        p2 = profile(K2, g2)
        assert p1.betti == p2.betti
        swap = Involution(K2, GraphHom(K2, K2, [1, 0]))
        assert z2_structure(K2, swap, g1).free
        assert z2_structure(K2, swap, g2).free
        # subdividing the bottom edge of g1 produces g2 exactly
        after, _ = subdivide_edge(g1, 0, 6)
        assert after == g2
        assert length3_walk(g1, 0, 6) is None
        # singleton fibers but two, which are 5-cell zigzags
        assert subdivision_fibers_ok(g1, 0, 6)


def _delete_edge(g, u, v):
    return Graph(g.n, g.edges - {(u, v)})


def _girth5_random_graph(rng, n):
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 2.4 / n
        ]
        g = Graph(n, edges)
        while girth(g) < 5:
            # delete one edge of some shortest cycle
            for u, v in sorted(g.edges):
                if girth(_delete_edge(g, u, v)) > girth(g):
                    g = _delete_edge(g, u, v)
                    break
            else:
                u, v = sorted(g.edges)[0]
                g = _delete_edge(g, u, v)
        if g.edge_count() >= 3:
            return g


def test_criterion_3_prop32_positive_suite():
    with criterion(3, "edge subdivision suite"):
        rng = random.Random(1729)
        graphs = [cycle_graph(5), cycle_graph(7), petersen_graph()]
        graphs += [_girth5_random_graph(rng, rng.randrange(8, 15)) for _ in range(10)]
        for g in graphs:
            base = profile(K2, g)
            for e in sorted(g.edges):
                assert length3_walk(g, *e) is None
                after, retraction = subdivide_edge(g, *e)
                assert profile(K2, after).betti == base.betti
                assert induced_map_homology(retraction, K2)


def test_criterion_4_negative_control():
    with criterion(4, "negative control"):
        c4 = cycle_graph(4)
        for e in sorted(c4.edges):
            assert length3_walk(c4, *e) is not None
        assert profile(K2, cycle_graph(6)).betti != profile(K2, c4).betti


def _random_tree(rng, n):
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return Graph(n, edges)


def test_criterion_5_tree_suite():
    with criterion(5, "tree suite"):
        star3 = Graph(4, [(0, 1), (0, 2), (0, 3)])
        tests = [K2, path_graph(3), star3, cycle_graph(6)]
        rng = random.Random(41)
        for _ in range(20):
            x = _random_tree(rng, rng.randrange(3, 11))
            assert profile(K2, x).betti == (2,)
            for t in tests:
                assert profile(t, x).betti == (2,)


def _graph_with_dismantlable_vertex(rng, n):
    # random base containing a triangle, plus a dominated extra vertex
    edges = {(0, 1), (1, 2), (0, 2)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    w = rng.randrange(n)
    nbrs = [u for u in range(n) if (min(u, w), max(u, w)) in edges]
    sub = [u for u in nbrs if rng.random() < 0.8] or nbrs[:1]
    g = Graph(n + 1, list(edges) + [(n, u) for u in sub])
    return g, n


def test_criterion_6_fold_suite():
    with criterion(6, "fold suite"):
        rng = random.Random(97)
        for _ in range(20):
            g, v = _graph_with_dismantlable_vertex(rng, rng.randrange(5, 9))
            reduced = delete_vertex(g, v)
            for t in (K2, complete_graph(3)):
                assert profile(t, reduced).betti == profile(t, g).betti


def test_criterion_7_theorem_pipeline(cert7_runs):
    with criterion(7, "chromatic pipeline"):
        cert, _ = cert7_runs
        assert cert.verdict == "consistent"
        assert cert.m == 7
        assert cert.x.n == 7
        assert cert.h.n == 222
        assert cert.n == 2
        assert cert.chi_h == 3 > 2
        member = cert.members[0]
        assert member.profile_g.betti == (1, 1)
        assert member.profile_h.betti == (1, 1)
        assert member.profile_g == member.profile_h
        assert member.route == "structural"
        # the structural route leaves the certificate's bytes as they were
        # when Hom(K_2, H) was enumerated
        digest = hashlib.sha256(certificate_json(cert).encode()).hexdigest()
        assert digest == (
            "45b7ff6daeb76c20eda42bc8f8499f4efcb71938c0c921d54eab3941ba6912cc"
        )
        # check (a) of the structural route, by enumeration
        split = covering_split(K2, cert.h, cert.a_vertices, cert.b_vertices)
        assert split.ok
        assert split.union_covers and split.intersection_matches


def test_criterion_8_non_bipartite_branch(cert8_runs):
    with criterion(8, "non-bipartite branch"):
        cert, _ = cert8_runs
        assert cert.m == 9
        assert cert.x.n == 9
        assert cert.chi_x == 3 > 2
        assert cert.chi_h == 3
        c5 = cycle_graph(5)
        # the emptiness witness: no image of C_5 inside the A part, whose
        # odd girth exceeds 5
        a_graph = cert.h.induced(sorted(cert.a_vertices))
        assert enumerate_homs(c5, a_graph) == []
        # so the structural route verifies the member that enumerating
        # Hom(C_5, H) could not (it passes the 10M-cell cap)
        member = cert.members[0]
        assert member.verified and member.route == "structural"
        assert member.profile_g == member.profile_h
        assert member.z2 == (True, True, True)
        assert cert.verdict == "consistent"


def test_box_complex_downgrade_of_criterion_8():
    # the checks criterion 8 fell back to while Hom(C_5, H) was out of
    # reach: T = K_2 on G = C_5 and X = C_9
    c5, x = cycle_graph(5), cycle_graph(9)
    assert profile(K2, c5) == profile(K2, x)
    swap = Involution(K2, GraphHom(K2, K2, [1, 0]))
    kg = enumerate_cells(K2, c5)
    kx = enumerate_cells(K2, x)
    rep_g = z2_structure(K2, swap, c5, complex=kg)
    rep_x = z2_structure(K2, swap, x, complex=kx)
    assert rep_g.free and rep_x.free
    # equivariance of a pushforward between the two box complexes
    wind = GraphHom(x, c5, [0, 1, 2, 3, 4, 0, 1, 0, 1])
    pf = pushforward(wind, K2)
    lhs = pf.compose(rep_x.action).images
    rhs = rep_g.action.compose(pf).images
    assert lhs == rhs


def _poset_component_partition(t, g):
    k = enumerate_cells(t, g)
    parent = list(range(len(k)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(k)):
        for j in k.facets(i):
            parent[find(i)] = find(j)
    groups = {}
    for i in k.cells_of_dim(0):
        vertices = tuple(m.bit_length() - 1 for m in k.masks[i])
        groups.setdefault(find(i), set()).add(vertices)
    return {frozenset(s) for s in groups.values()}


def test_criterion_9_oracle_equivalences():
    with criterion(9, "oracle equivalences"):
        rng = random.Random(271828)
        sources = [K2, path_graph(3), cycle_graph(4), cycle_graph(5)]
        done = 0
        while done < 50:
            n = rng.randrange(3, 8)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            t = sources[done % len(sources)]
            k = enumerate_cells(t, g)
            if len(k) == 0 or len(k) > 2000:
                continue
            c = cellular_chain_complex(k)
            c._check_dd_zero()
            try:
                po = order_complex_homology(k)
            except ResourceLimitError:
                continue
            assert homology(c) == po
            classes = {
                frozenset(h.mapping for h in cls)
                for cls in x_homotopy_classes(t, g)
            }
            assert classes == _poset_component_partition(t, g)
            done += 1


def test_criterion_10_determinism_and_verification(
    cert7_runs, cert8_runs, tmp_path
):
    with criterion(10, "determinism and verification"):
        for first, second in (cert7_runs, cert8_runs):
            assert certificate_json(first) == certificate_json(second)
        for name, (cert, _) in (("c7", cert7_runs), ("c8", cert8_runs)):
            path = tmp_path / f"{name}.json"
            path.write_text(certificate_json(cert))
            loaded = load_certificate(path.read_text())
            assert verify_certificate(loaded) == []
            assert cli_main(["verify", str(path)]) == 0


def test_verify_checks_pipeline_parts(cert7_runs, cert8_runs):
    # a cap of 10 cells skips the members' homology, which parts do not need
    for cert, _ in (cert7_runs, cert8_runs):
        obj = json.loads(certificate_json(cert))
        assert "parts" not in verify_certificate(
            load_certificate(json.dumps(obj)), cell_cap=10
        )
        obj["parts"] = {"A": [0], "B": [1]}
        assert "parts" in verify_certificate(
            load_certificate(json.dumps(obj)), cell_cap=10
        )
        obj["maps"]["f"] = None
        assert "maps.f/maps.g missing" in verify_certificate(
            load_certificate(json.dumps(obj)), cell_cap=10
        )

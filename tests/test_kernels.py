"""The hot kernels: the homomorphism search cap, the Smith diagonal and
the Morse reduction of chain complexes."""

import copy
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import homcx
from homcx._kernels import reduce_chain_complex, search_homs, snf_diagonal
from homcx.builders import complete_graph, cycle_graph, path_graph
from homcx.errors import ResourceLimitError
from homcx.graphs import Graph
from homcx.homology import (
    ChainComplex,
    HomologyProfile,
    OrderComplex,
    cellular_chain_complex,
    homology,
)
from homcx.homs import _hom_mappings, enumerate_cells
from oracles import reference_search_homs

non_units = st.integers(-9, 9).filter(lambda v: v not in (1, -1))
# lists of rows, at most 5 x 5
matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(non_units, min_size=n, max_size=n), min_size=1, max_size=5
    )
)


def _det(mat):
    """Exact integer determinant (fraction-free elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return det.numerator


def test_search_homs_returns_none_past_cap():
    # three isolated source vertices into K3 with loops: 27 maps
    args = ([[], [], []], [False] * 3, [7, 7, 7], 7, 3)
    assert len(search_homs(*args, 27)) == 27
    assert search_homs(*args, 26) is None
    assert search_homs(*args, 5) is None
    # a source with no vertices has one map, the empty one
    args = ([], [], [2, 1], 0, 2)
    assert search_homs(*args, 1) == [()]
    assert search_homs(*args, 0) is None
    with pytest.raises(ResourceLimitError):
        _hom_mappings(Graph(0, []), complete_graph(2), cap=0)


@st.composite
def search_instances(draw):
    """Kernel arguments of a homomorphism search, less the cap and the
    budget: a source of at most 6 positions and a target of at most 6
    vertices, both with loops allowed."""
    n_t = draw(st.integers(0, 6))
    next_adj = [
        draw(st.lists(st.integers(i + 1, n_t - 1), unique=True)) if i + 1 < n_t else []
        for i in range(n_t)
    ]
    t_loop = draw(st.lists(st.booleans(), min_size=n_t, max_size=n_t))
    n_g = draw(st.integers(0, 6))
    g_adj = [0] * n_g
    for x, y in itertools.combinations_with_replacement(range(n_g), 2):
        if draw(st.booleans()):
            g_adj[x] |= 1 << y
            g_adj[y] |= 1 << x
    g_loop_mask = sum(1 << x for x in range(n_g) if g_adj[x] >> x & 1)
    return next_adj, t_loop, g_adj, g_loop_mask, n_g


@settings(max_examples=400, deadline=None)
@given(
    search_instances(),
    st.sampled_from([0, 1, 3, 10**7]),
    st.none() | st.integers(0, 60) | st.integers(0, 10**6),
)
def test_search_homs_matches_recursive_reference(args, cap, nodes):
    def run(search):
        budget = None if nodes is None else [nodes]
        try:
            result = search(*args, cap, budget)
        except ResourceLimitError:
            result = "budget"
        return result, budget

    assert run(search_homs) == run(reference_search_homs)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_snf_diagonal_matches_determinantal_divisors(rows):
    m, n = len(rows), len(rows[0])
    columns = [{i: rows[i][j] for i in range(m) if rows[i][j]} for j in range(n)]
    diag = snf_diagonal(columns, m)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    for k in range(1, min(m, n) + 1):
        divisor = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in ci] for i in ri]
                divisor = math.gcd(divisor, _det(minor))
        if k <= len(diag):
            assert math.prod(diag[:k]) == divisor
        else:
            assert divisor == 0


def test_backend_reported():
    assert homcx.BACKEND == "pure"


# -- Morse reduction -------------------------------------------------------


def reference_reduce_chain_complex(ranks, cols):
    """The dict-of-dicts Morse reduction that the live-count reduction
    replaced, kept as its oracle: it copies every column, builds the
    transposed rows and deletes entries from both.

    ``cols[d][j]`` is the sparse boundary {face: coef} of the j-th d-cell
    (``cols[0]`` columns are empty).  Repeatedly removes coreduction
    pairs (a cell whose boundary is a single unit entry, with that face)
    and collapse pairs (a free face with its unique unit coface); when
    stuck, retires one 0-cell per connected component as an H_0
    generator.  All removed pairs are unit-pivot eliminations, so Betti
    numbers and torsion are unchanged.

    Returns (new_ranks, new_cols, extra_b0) where new_cols index the
    surviving cells densely per dimension and extra_b0 counts the
    retired 0-cells.
    """
    from collections import deque

    dims = len(ranks)
    col = [[dict(c) for c in cols[d]] for d in range(dims)]
    row = [None] * dims  # row[d][i]: cofaces in dim d of (d-1)-cell i
    for d in range(1, dims):
        r = [dict() for _ in range(ranks[d - 1])]
        for j, c in enumerate(col[d]):
            for i, v in c.items():
                r[i][j] = v
        row[d] = r
    live = [[True] * r for r in ranks]
    queue = deque()
    for d in range(1, dims):
        for j, c in enumerate(col[d]):
            if len(c) == 1:
                queue.append(("cor", d, j))
        for i, r in enumerate(row[d]):
            if len(r) == 1:
                queue.append(("col", d, i))

    def drop_upper_row(d, j):
        # cell (d, j) disappears: clear its entries in dim d+1 columns
        if d + 1 < dims:
            for e in list(row[d + 1][j]):
                c = col[d + 1][e]
                del c[j]
                if len(c) == 1:
                    queue.append(("cor", d + 1, e))
            row[d + 1][j] = {}

    def drop_own_column(d, i):
        # cell (d, i) disappears: detach it from its faces' coface rows
        if d >= 1:
            for i2 in col[d][i]:
                r = row[d][i2]
                if i in r:
                    del r[i]
                    if len(r) == 1:
                        queue.append(("col", d, i2))
            col[d][i] = {}

    extra_b0 = 0
    seed_at = 0
    while True:
        if not queue:
            n0 = ranks[0] if ranks else 0
            while seed_at < n0 and not live[0][seed_at]:
                seed_at += 1
            if seed_at >= n0:
                break
            live[0][seed_at] = False
            extra_b0 += 1
            drop_upper_row(0, seed_at)
            continue
        kind, d, x = queue.popleft()
        if kind == "cor":
            j = x
            if not live[d][j] or len(col[d][j]) != 1:
                continue
            (i, coef), = col[d][j].items()
            if coef not in (1, -1) or not live[d - 1][i]:
                continue
            live[d][j] = False
            live[d - 1][i] = False
            # clearing row i needs no arithmetic: every other column's
            # i-entry is a multiple of the unit pivot's full column {i}
            for j2 in list(row[d][i]):
                if j2 == j:
                    continue
                c = col[d][j2]
                del c[i]
                if len(c) == 1:
                    queue.append(("cor", d, j2))
            row[d][i] = {}
            col[d][j] = {}
            drop_upper_row(d, j)
            drop_own_column(d - 1, i)
        else:
            i = x
            if d >= dims or not live[d - 1][i] or len(row[d][i]) != 1:
                continue
            (j, coef), = row[d][i].items()
            if coef not in (1, -1) or not live[d][j]:
                continue
            live[d - 1][i] = False
            live[d][j] = False
            row[d][i] = {}
            for i3 in list(col[d][j]):
                if i3 == i:
                    continue
                r = row[d][i3]
                del r[j]
                if len(r) == 1:
                    queue.append(("col", d, i3))
            col[d][j] = {}
            drop_upper_row(d, j)
            drop_own_column(d - 1, i)

    remap = []
    new_ranks = []
    for d in range(dims):
        m = {}
        for idx in range(ranks[d]):
            if live[d][idx]:
                m[idx] = len(m)
        remap.append(m)
        new_ranks.append(len(m))
    new_cols = []
    for d in range(dims):
        out = []
        lower = remap[d - 1] if d else {}
        for idx in range(ranks[d]):
            if live[d][idx]:
                out.append({lower[i]: v for i, v in col[d][idx].items()})
        new_cols.append(out)
    while new_ranks and new_ranks[-1] == 0:
        new_ranks.pop()
        new_cols.pop()
    return new_ranks, new_cols, extra_b0


def reduced_homology(reduce, ranks, cols):
    """The homology profile from a reduction and the Smith diagonals of
    what survives it."""
    ranks, cols, extra_b0 = reduce(ranks, cols)
    dims = len(ranks)
    factors = [snf_diagonal(cols[d], ranks[d - 1]) for d in range(1, dims)]
    factors = [[]] + factors + [[]]
    betti = [ranks[d] - len(factors[d]) - len(factors[d + 1]) for d in range(dims)] or [0]
    betti[0] += extra_b0
    torsion = [[f for f in factors[d + 1] if f > 1] for d in range(dims)]
    return HomologyProfile.make(betti, torsion)


def assert_reductions_agree(c):
    """Both reductions give the same Betti numbers and torsion, and
    neither the reduction nor ``homology`` writes the input columns."""
    before = copy.deepcopy(c.boundaries)
    new = reduced_homology(reduce_chain_complex, c.ranks, c.boundaries)
    assert c.boundaries == before
    assert new == reduced_homology(reference_reduce_chain_complex, c.ranks, before)
    assert homology(c) == new
    assert c.boundaries == before


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def targets(draw):
    """A small graph, or two side by side, so that Hom(T, G) often has
    several components and the reduction retires several 0-cells."""
    g = draw(small_graphs(5))
    if draw(st.booleans()):
        h = draw(small_graphs(4))
        shifted = [(u + g.n, v + g.n) for u, v in h.edges]
        g = Graph(g.n + h.n, list(g.edges) + shifted)
    return g


SOURCES = [
    complete_graph(2),
    path_graph(3),
    cycle_graph(4),
    complete_graph(3),
    cycle_graph(5),
]


@settings(max_examples=80, deadline=None)
@given(t=st.sampled_from(SOURCES), g=targets(), order=st.booleans())
def test_reduction_matches_reference_on_hom_complexes(t, g, order):
    try:
        k = enumerate_cells(t, g, cap=600)
        assume(len(k) > 0)
        if order:
            c = OrderComplex(k, budget=20_000).chain_complex()
        else:
            c = cellular_chain_complex(k)
    except ResourceLimitError:
        assume(False)
    assert_reductions_agree(c)


def rp2():
    # one cell per dimension: de1 = 0, de2 = 2 e1
    return ChainComplex([1, 1, 1], [[{}], [{}], [{0: 2}]])


def test_reduction_keeps_non_unit_pivots():
    assert homology(rp2()).torsion == ((), (2,))
    assert_reductions_agree(rp2())
    # two loops and a 2-cell {0: 2, 1: 1} beside unit columns:
    # H_1 = Z^3 / <2a + b, a - b, c> = Z/3
    c = ChainComplex(
        [1, 3, 3], [[{}], [{}, {}, {}], [{0: 2, 1: 1}, {0: 1, 1: -1}, {2: 1}]]
    )
    assert homology(c).torsion == ((), (3,))
    assert_reductions_agree(c)


@st.composite
def integer_complexes(draw):
    """A graph with some loops added as 1-cells, and 2-cells attached along
    integer combinations of its triangles and loops: dd = 0 holds while
    the 2-cell columns carry any coefficients."""
    g = draw(small_graphs(5))
    loops = draw(st.integers(0, 2))
    edges = sorted(g.edges)
    at = {e: j for j, e in enumerate(edges)}
    cycles = [{len(edges) + j: 1} for j in range(loops)]
    for a, b, c in itertools.combinations(range(g.n), 3):
        if {(a, b), (b, c), (a, c)} <= g.edges:
            cycles.append({at[a, b]: 1, at[b, c]: 1, at[a, c]: -1})
    coefs = st.sampled_from([0, 0, 1, -1, 2, -2, 3])
    cells = []
    for _ in range(draw(st.integers(0, 4))):
        col = {}
        for cycle in cycles:
            f = draw(coefs)
            for e, v in cycle.items():
                col[e] = col.get(e, 0) + f * v
        cells.append({e: v for e, v in col.items() if v})
    d1 = [{u: -1, w: 1} for u, w in edges] + [{}] * loops
    return ChainComplex([g.n, len(d1), len(cells)], [[{}] * g.n, d1, cells])


@settings(max_examples=150, deadline=None)
@given(integer_complexes())
def test_reduction_matches_reference_on_integer_complexes(c):
    assert_reductions_agree(c)


def test_reduction_peak_memory_stays_below_the_complex():
    # the reduction reads its columns in place: its working state (coface
    # lists, counts, sums, queue) is about 0.8 of the complex it reduces;
    # a reduction that copies the columns and builds dict rows takes 2x
    rng = random.Random(3)
    pairs = itertools.combinations(range(14), 2)
    g = Graph(14, [e for e in pairs if rng.random() < 0.45])
    k = enumerate_cells(complete_graph(2), g)
    cellular_chain_complex(k)  # one-off allocations stay out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = cellular_chain_complex(k)
        size = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        reduce_chain_complex(c.ranks, c.boundaries)
        extra = tracemalloc.get_traced_memory()[1] - current
    finally:
        tracemalloc.stop()
    assert len(k) > 1000
    assert extra < size

"""The hot kernels: the homomorphism search cap and the Smith diagonal."""

import itertools
import math

from hypothesis import given, settings, strategies as st

import homcx
from homcx._kernels import search_homs, smith_form, snf_diagonal
from homcx.homology import _det

non_units = st.integers(-9, 9).filter(lambda v: v not in (1, -1))
# lists of rows, at most 5 x 5
matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(non_units, min_size=n, max_size=n), min_size=1, max_size=5
    )
)


def test_search_homs_returns_none_past_cap():
    # three isolated source vertices into K3 with loops: 27 maps
    args = ([[], [], []], [False] * 3, [7, 7, 7], 7, 3)
    assert len(search_homs(*args, 27)) == 27
    assert search_homs(*args, 26) is None
    assert search_homs(*args, 5) is None


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


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_smith_form_transforms_diagonalize(rows):
    m, n = len(rows), len(rows[0])
    diag, U, Uinv, V, Vinv = smith_form(
        [r[:] for r in rows], n, track_rows=True, track_cols=True
    )

    def mul(x, y):
        return [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in x]

    d = mul(mul(U, rows), V)
    assert all(
        d[i][j] == (diag[i] if i == j and i < len(diag) else 0)
        for i in range(m)
        for j in range(n)
    )
    assert mul(U, Uinv) == [[int(i == j) for j in range(m)] for i in range(m)]
    assert mul(V, Vinv) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_backend_reported():
    assert homcx.BACKEND == "pure"

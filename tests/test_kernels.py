"""The hot kernels: the homomorphism search cap and the Smith diagonal."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import homcx
from homcx._kernels import search_homs, snf_diagonal

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

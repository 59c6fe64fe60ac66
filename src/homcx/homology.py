"""Exact integer homology of Hom complexes.

Cellular chains use the product-of-simplices sign convention on the
regular cell structure; the order complex (barycentric subdivision)
provides an independent simplicial route and carries induced maps.
All reductions are integer-exact (Smith normal form, arbitrary
precision); homology equality between complexes is evidence consistent
with homotopy equivalence, never a proof of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _kernels
from .errors import InvalidParameterError, ResourceLimitError
from .homs import CellMap, HomComplex, _one_smaller

DEFAULT_CHAIN_BUDGET = 2_000_000


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion per dimension, trailing zeros trimmed."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(betti: Sequence[int], torsion: Sequence[Sequence[int]]) -> "HomologyProfile":
        betti = list(betti)
        torsion = [tuple(sorted(t)) for t in torsion]
        while len(torsion) < len(betti):
            torsion.append(())
        top = len(betti)
        while top > 0 and betti[top - 1] == 0 and not torsion[top - 1]:
            top -= 1
        return HomologyProfile(tuple(betti[:top]), tuple(torsion[:top]))

    def to_json_obj(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "HomologyProfile":
        return HomologyProfile.make(obj["betti"], obj["torsion"])


class ChainComplex:
    """Graded free integer chain groups with boundary matrices.

    ``boundaries[d][j]`` is the boundary of the j-th d-cell as a sparse
    {face index: coefficient} column; ``boundaries[0]`` columns are empty.
    """

    def __init__(self, ranks: Sequence[int], boundaries):
        self.ranks = tuple(ranks)
        self.boundaries = [list(cols) for cols in boundaries]
        if len(self.boundaries) != len(self.ranks):
            raise InvalidParameterError("boundary count != rank count")
        for d, cols in enumerate(self.boundaries):
            if len(cols) != self.ranks[d]:
                raise InvalidParameterError(f"dimension {d} size mismatch")
        self._check_dd_zero()

    @property
    def dimension(self) -> int:
        return len(self.ranks) - 1

    def _check_dd_zero(self) -> None:
        """Exact check that every boundary of a boundary is zero.

        With unit coefficients throughout, the boundary of column j's
        boundary is zero iff the rows it reaches with +1 and with -1 form
        the same multiset; other columns are summed in a dict.
        """
        for d in range(2, len(self.ranks)):
            lower = self.boundaries[d - 1]
            plus: list = []  # per lower column: its +1 rows, or None
            minus: list = []  # its -1 rows
            for col in lower:
                p = [i for i, c in col.items() if c == 1]
                m = [i for i, c in col.items() if c == -1]
                unit = len(p) + len(m) == len(col)
                plus.append(p if unit else None)
                minus.append(m if unit else None)
            for col in self.boundaries[d]:
                pos: list[int] = []
                neg: list[int] = []
                for i, c in col.items():
                    if c == 1:
                        p, m = plus[i], minus[i]
                    elif c == -1:
                        p, m = minus[i], plus[i]
                    else:
                        break
                    if p is None:
                        break
                    pos += p
                    neg += m
                else:
                    pos.sort()
                    neg.sort()
                    if pos != neg:
                        raise AssertionError("boundary of boundary is nonzero")
                    continue
                acc: dict[int, int] = {}
                for i, c in col.items():
                    for i2, c2 in lower[i].items():
                        acc[i2] = acc.get(i2, 0) + c * c2
                if any(acc.values()):
                    raise AssertionError("boundary of boundary is nonzero")

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * r for d, r in enumerate(self.ranks))


def cellular_chain_complex(k: HomComplex) -> ChainComplex:
    """Cellular chains on a fully enumerated Hom complex.

    The face that drops the t-th smallest vertex from the set of source
    vertex v has sign (-1)^(shift + t), where shift counts the vertices
    beyond the first in the sets of the source vertices before v.
    """
    top = k.dimension
    if top < 0:
        return ChainComplex((), ())
    index, offsets = k.index, k.offsets
    drops: dict[int, list[int]] = {}  # mask -> its masks one vertex smaller
    boundaries = [[{} for _ in range(offsets[1])]]
    for d in range(1, top + 1):
        base = offsets[d - 1]
        cols = []
        for masks in k.masks[offsets[d]:offsets[d + 1]]:
            cell = list(masks)
            col: dict[int, int] = {}
            shift = 0
            for v, m in enumerate(masks):
                if not m & (m - 1):
                    continue
                smaller = drops.get(m)
                if smaller is None:
                    smaller = drops[m] = _one_smaller(m)
                sign = -1 if shift & 1 else 1
                for face in smaller:
                    cell[v] = face
                    col[index[tuple(cell)] - base] = sign
                    sign = -sign
                cell[v] = m
                shift += len(smaller) - 1
            cols.append(col)
        boundaries.append(cols)
    return ChainComplex(k.cell_counts(), boundaries)


def homology(c: ChainComplex) -> HomologyProfile:
    """Betti numbers and torsion via Morse reduction plus integer SNF."""
    if len(c.ranks) == 0:
        return HomologyProfile.make([], [])
    ranks, boundaries, extra_b0 = _kernels.reduce_chain_complex(
        c.ranks, c.boundaries
    )
    dims = len(ranks)
    factors = [[]]  # invariant factors of boundary d
    for d in range(1, dims):
        factors.append(_kernels.snf_diagonal(boundaries[d], ranks[d - 1]))
    factors.append([])
    betti = [0] * max(dims, 1)
    torsion = [[] for _ in range(max(dims, 1))]
    for d in range(dims):
        rank_d = len(factors[d])
        rank_up = len(factors[d + 1])
        betti[d] = ranks[d] - rank_d - rank_up
        torsion[d] = [f for f in factors[d + 1] if f > 1]
    betti[0] += extra_b0
    assert sum((-1) ** d * b for d, b in enumerate(betti)) == c.euler_characteristic()
    return HomologyProfile.make(betti, torsion)


# -- order complex (barycentric) route ----------------------------------


class OrderComplex:
    """Simplicial complex of strict chains in the face poset of a
    fully enumerated Hom complex.  Vertices are cell indices; the
    canonical cell order is a linear extension, so chains are stored as
    increasing index tuples."""

    def __init__(self, k: HomComplex, budget: int = DEFAULT_CHAIN_BUDGET):
        self.complex = k
        masks = k.masks
        n = len(k)
        successors: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            mi = masks[i]
            # cells are sorted by dimension: the candidates start at the next one
            for j in range(k.offsets[k.dim_of[i] + 1], n):
                if not any(a & ~b for a, b in zip(mi, masks[j])):
                    successors[i].append(j)
        simplices: list[list[tuple[int, ...]]] = [[(i,) for i in range(n)]]
        count = n
        frontier = simplices[0]
        while frontier:
            nxt = []
            for chain in frontier:
                for j in successors[chain[-1]]:
                    nxt.append(chain + (j,))
            count += len(nxt)
            if count > budget:
                raise ResourceLimitError("order-complex chain budget exceeded")
            if nxt:
                simplices.append(nxt)
            frontier = nxt
        self.simplices = simplices
        self.index = [
            {s: j for j, s in enumerate(level)} for level in simplices
        ]

    def chain_complex(self) -> ChainComplex:
        if len(self.complex) == 0:
            return ChainComplex((), ())
        boundaries = [[{} for _ in self.simplices[0]]]
        for d in range(1, len(self.simplices)):
            cols = []
            lower = self.index[d - 1]
            for s in self.simplices[d]:
                col: dict[int, int] = {}
                for t in range(len(s)):
                    face = s[:t] + s[t + 1:]
                    idx = lower[face]
                    col[idx] = col.get(idx, 0) + (-1 if t % 2 else 1)
                cols.append(col)
            boundaries.append(cols)
        return ChainComplex([len(level) for level in self.simplices], boundaries)


def order_complex_homology(
    k: HomComplex, budget: int = DEFAULT_CHAIN_BUDGET
) -> HomologyProfile:
    """Simplicial homology of the barycentric subdivision; must agree
    with the cellular route on every instance."""
    return homology(OrderComplex(k, budget).chain_complex())


# -- homology with explicit generators and induced maps ------------------


def _matvec(mat: list[list[int]], x: Sequence[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x) if v) for row in mat]


def _det(mat: list[list[int]]):
    """Exact integer determinant (fraction-free elimination)."""
    from fractions import Fraction

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


class _DimHomologyBasis:
    """Homology of one dimension of a chain complex with explicit
    generator cycles and a coordinate map for arbitrary cycles."""

    def __init__(self, c: ChainComplex, d: int):
        n_d = c.ranks[d] if d < len(c.ranks) else 0
        self.n_d = n_d
        if n_d == 0:
            self.kernel_rank = 0
            self.orders = []
            self.betti = 0
            self.tor_orders = []
            return
        lower = c.ranks[d - 1] if d >= 1 else 0
        bnd = [[0] * n_d for _ in range(lower)]
        for j, col in enumerate(c.boundaries[d]):
            for i, v in col.items():
                bnd[i][j] = v
        diag, _, _, V, Vinv = _kernels.smith_form(bnd, n_d, track_cols=True)
        r = len(diag)
        self.rank_bnd = r
        self.kernel_rank = n_d - r
        self.V = V
        self.Vinv = Vinv
        # image of the (d+1)-boundary in kernel coordinates
        upper = c.ranks[d + 1] if d + 1 < len(c.ranks) else 0
        A = [[0] * upper for _ in range(self.kernel_rank)]
        for j in range(upper):
            colvec = [0] * n_d
            for i, v in c.boundaries[d + 1][j].items():
                colvec[i] = v
            y = _matvec(Vinv, colvec)
            assert all(y[i] == 0 for i in range(r)), "image not in kernel"
            for i in range(self.kernel_rank):
                A[i][j] = y[r + i]
        diag2, U2, U2inv, _, _ = _kernels.smith_form(A, upper, track_rows=True)
        self.r2 = len(diag2)
        self.orders = diag2
        self.U2 = U2
        self.U2inv = U2inv
        self.tor_orders = [x for x in diag2 if x > 1]
        self.tor_rows = [i for i, x in enumerate(diag2) if x > 1]
        self.betti = self.kernel_rank - self.r2

    def coords(self, x: Sequence[int]) -> tuple[list[int], list[int]]:
        """(free, torsion) homology coordinates of a cycle."""
        if self.n_d == 0:
            if any(x):
                raise InvalidParameterError("nonzero chain in empty dimension")
            return [], []
        y = _matvec(self.Vinv, list(x))
        if any(y[i] for i in range(self.rank_bnd)):
            raise InvalidParameterError("chain is not a cycle")
        a = y[self.rank_bnd:]
        h = _matvec(self.U2, a)
        free = h[self.r2:]
        tor = [h[i] % self.orders[i] for i in self.tor_rows]
        return free, tor

    def generators(self) -> list[list[int]]:
        """Cycles generating H_d: free generators then torsion generators."""
        gens = []
        rows = list(range(self.r2, self.kernel_rank)) + self.tor_rows
        for j in rows:
            a = [self.U2inv[i][j] for i in range(self.kernel_rank)]
            cyc = [0] * self.n_d
            for i in range(self.kernel_rank):
                if a[i]:
                    for t in range(self.n_d):
                        cyc[t] += self.V[t][self.rank_bnd + i] * a[i]
            gens.append(cyc)
        return gens


@dataclass(frozen=True)
class InducedMapReport:
    """Induced map on homology of order complexes."""

    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    iso_per_dim: tuple[bool, ...]
    isomorphism: bool
    source_profile: HomologyProfile
    target_profile: HomologyProfile


def induced_map_homology(
    cmap: CellMap, budget: int = DEFAULT_CHAIN_BUDGET
) -> InducedMapReport:
    """Chain map on order complexes, then the map on SNF homology bases.

    The cell map must be order-preserving; simplices whose images
    degenerate are sent to zero.
    """
    if not cmap.is_order_preserving():
        raise InvalidParameterError("cell map is not order-preserving")
    oc1 = OrderComplex(cmap.source, budget)
    oc2 = OrderComplex(cmap.target, budget)
    c1 = oc1.chain_complex()
    c2 = oc2.chain_complex()
    p1 = homology(c1)
    p2 = homology(c2)
    top = max(len(c1.ranks), len(c2.ranks))
    matrices = []
    iso_dims = []
    for d in range(top):
        h1 = _DimHomologyBasis(c1, d) if d < len(c1.ranks) else None
        h2 = _DimHomologyBasis(c2, d) if d < len(c2.ranks) else None
        b1 = h1.betti if h1 else 0
        t1 = h1.tor_orders if h1 else []
        b2 = h2.betti if h2 else 0
        t2 = h2.tor_orders if h2 else []
        cols = []
        if h1:
            for gen in h1.generators():
                image = _push_chain(oc1, oc2, d, gen, cmap.images)
                if h2:
                    free, tor = h2.coords(image)
                else:
                    if any(image):
                        raise AssertionError("image chain outside target")
                    free, tor = [], []
                cols.append(free + tor)
        rows = b2 + len(t2)
        mat = tuple(
            tuple(cols[j][i] for j in range(len(cols))) for i in range(rows)
        )
        matrices.append(mat)
        iso_dims.append(
            _is_iso_block(mat, b1, t1, b2, t2)
        )
    return InducedMapReport(
        matrices=tuple(matrices),
        iso_per_dim=tuple(iso_dims),
        isomorphism=all(iso_dims),
        source_profile=p1,
        target_profile=p2,
    )


def _push_chain(oc1, oc2, d, chain, images):
    """Apply the simplicial map induced by an order-preserving cell map."""
    n2 = len(oc2.simplices[d]) if d < len(oc2.simplices) else 0
    out = [0] * n2
    if d >= len(oc1.simplices):
        return out
    for j, coef in enumerate(chain):
        if not coef:
            continue
        simplex = oc1.simplices[d][j]
        image = tuple(images[v] for v in simplex)
        if len(set(image)) < len(image):
            continue  # degenerate
        out[oc2.index[d][image]] += coef
    return out


def _is_iso_block(mat, b1, t1, b2, t2) -> bool:
    """Isomorphism test for a map between f.g. abelian groups given by
    a matrix on (free gens, torsion gens) coordinates."""
    if b1 != b2 or list(t1) != list(t2):
        return False
    rows = b2 + len(t2)
    cols = b1 + len(t1)
    if rows != cols:
        return False
    if rows == 0:
        return True
    free_block = [[mat[i][j] for j in range(b1)] for i in range(b2)]
    if abs(_det(free_block)) != 1:
        return False
    # torsion generators must land in the torsion subgroup
    for j in range(b1, cols):
        for i in range(b2):
            if mat[i][j] != 0:
                return False
    if t2:
        # surjectivity onto the torsion part: [T | diag(orders)] has
        # trivial cokernel iff all invariant factors are 1
        tor = [
            [mat[b2 + i][b1 + j] for j in range(len(t1))]
            for i in range(len(t2))
        ]
        aug_cols = []
        for j in range(len(t1)):
            aug_cols.append({i: tor[i][j] for i in range(len(t2)) if tor[i][j]})
        for i, order in enumerate(t2):
            aug_cols.append({i: order})
        diag = _kernels.snf_diagonal(aug_cols, len(t2))
        if len(diag) != len(t2) or any(x != 1 for x in diag):
            return False
    return True

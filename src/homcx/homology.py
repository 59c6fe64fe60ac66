"""Exact integer homology of Hom complexes.

Cellular chains use the product-of-simplices sign convention on the
regular cell structure.  A pushforward along a graph map is cellular,
so the same chains carry induced maps: the map induces isomorphisms on
homology iff the mapping cone of its cellular chain map is acyclic,
which the same homology routine decides.  The order complex
(barycentric subdivision) is an independent simplicial route that
checks cellular homology.  All reductions are integer-exact (Smith
normal form, arbitrary precision); homology equality between complexes
is evidence consistent with homotopy equivalence, never a proof of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _kernels
from .errors import GraphFormatError, InvalidParameterError, ResourceLimitError
from .graphs import Graph, GraphHom
from .homs import DEFAULT_CELL_CAP, HomComplex, _one_smaller, _vertices, pushforward

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
    def from_json_obj(obj: object) -> "HomologyProfile":
        """Inverse of ``to_json_obj``; raises GraphFormatError unless the
        object holds a list of integer Betti numbers and, per Betti
        number, a list of integer torsion coefficients."""
        if not isinstance(obj, dict):
            raise GraphFormatError("profile must be an object")
        betti, torsion = obj.get("betti"), obj.get("torsion")
        if not (
            _is_int_list(betti)
            and isinstance(torsion, list)
            and len(torsion) == len(betti)
            and all(_is_int_list(t) for t in torsion)
        ):
            raise GraphFormatError("profile needs integer lists 'betti' and 'torsion'")
        return HomologyProfile.make(betti, torsion)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


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
        """Exact check that every boundary of a boundary is zero."""
        for d in range(2, len(self.ranks)):
            lower = self.boundaries[d - 1]
            for col in self.boundaries[d]:
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
        base = offsets[d - 1]  # faces are numbered within dimension d - 1
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
        n = len(k)
        # each cell's masks side by side in one int, target.n bits per
        # source vertex, so that face inclusion is one bitwise test
        width = k.target.n
        packed = []
        for masks in k.masks:
            p = 0
            for m in reversed(masks):
                p = p << width | m
            packed.append(p)
        successors: list[list[int]] = []
        for p, d in zip(packed, k.dim_of):
            # cells are sorted by dimension: the candidates start at the next one
            start = k.offsets[d + 1]
            successors.append([j for j in range(start, n) if not p & ~packed[j]])
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


# -- induced maps ---------------------------------------------------------


def _parity(images: Sequence[int]) -> int:
    """The sign of the permutation that sorts ``images``, or 0 when two
    of them coincide."""
    sign = 1
    for i, a in enumerate(images):
        for b in images[i + 1:]:
            if a == b:
                return 0
            if a > b:
                sign = -sign
    return sign


def induced_map_homology(f: GraphHom, t: Graph, cap: int = DEFAULT_CELL_CAP) -> bool:
    """Whether the pushforward along ``f`` induces isomorphisms
    Hom(t, f.domain) -> Hom(t, f.codomain) on homology.

    The pushforward is cellular.  It sends a cell to its image cell when
    no set shrinks, with the sign the product over source vertices of
    the parity of the permutation f induces on that vertex's set, and to
    0 when a set shrinks.  A chain map of free Z-complexes is a
    quasi-isomorphism iff its mapping cone is acyclic (Weibel, An
    Introduction to Homological Algebra, Cor. 1.5.4).  The cone's
    degree-d group is C1_{d-1} + C2_d, in that order, with boundary
    (a, b) -> (-da, f(a) + db); as a ChainComplex it is checked for
    dd = 0, which holds iff the signed cell map is a chain map.
    """
    cmap = pushforward(f, t, cap=cap)
    k1, k2 = cmap.source, cmap.target
    c1 = cellular_chain_complex(k1)
    c2 = cellular_chain_complex(k2)
    mapping = f.mapping
    parity: dict[int, int] = {}  # mask -> the parity of f on its set, 0 if it shrinks
    boundaries = []
    for d in range(max(len(c1.ranks) + 1, len(c2.ranks))):
        # the C2 block of degree d - 1 starts after C1_{d-2}
        shift = c1.ranks[d - 2] if 2 <= d <= len(c1.ranks) + 1 else 0
        cols = []
        if 1 <= d <= len(c1.ranks):
            for i, col in enumerate(c1.boundaries[d - 1], k1.offsets[d - 1]):
                out = {r: -c for r, c in col.items()}
                sign = 1
                for m in k1.masks[i]:
                    p = parity.get(m)
                    if p is None:
                        p = parity[m] = _parity([mapping[x] for x in _vertices(m)])
                    sign *= p
                if sign:
                    out[shift + cmap.images[i] - k2.offsets[d - 1]] = sign
                cols.append(out)
        if d < len(c2.ranks):
            for col in c2.boundaries[d]:
                cols.append({shift + i: c for i, c in col.items()})
        boundaries.append(cols)
    cone = homology(ChainComplex([len(cols) for cols in boundaries], boundaries))
    return not cone.betti and not cone.torsion

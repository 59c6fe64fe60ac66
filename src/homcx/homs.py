"""Hom complexes of graphs: multi-homomorphism cells, induced cell maps,
x-homotopy classes, and the Z_2 structure coming from flipping involutions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .errors import (
    InvalidParameterError,
    NotAnInvolutionError,
    ResourceLimitError,
)
from .graphs import Graph, GraphHom

DEFAULT_HOM_CAP = 10_000_000
DEFAULT_CELL_CAP = 10_000_000


@dataclass(frozen=True)
class MultiHom:
    """A cell of Hom(source, target): a nonempty vertex set per source
    vertex such that every source edge maps to a complete bipartite set
    of target edges."""

    source: Graph
    target: Graph
    assignment: tuple[tuple[int, ...], ...]

    def __init__(self, source: Graph, target: Graph, assignment):
        assignment = tuple(tuple(sorted(set(s))) for s in assignment)
        if len(assignment) != source.n:
            raise InvalidParameterError("assignment length != source size")
        for s in assignment:
            if not s:
                raise InvalidParameterError("assigned sets must be nonempty")
            if s[0] < 0 or s[-1] >= target.n:
                raise InvalidParameterError("assigned vertex out of range")
        for u, v in source.edges:
            for a in assignment[u]:
                for b in assignment[v]:
                    if not target.has_edge(a, b):
                        raise InvalidParameterError(
                            f"product edge ({a},{b}) missing for "
                            f"source edge ({u},{v})"
                        )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)

    @property
    def dim(self) -> int:
        return sum(len(s) - 1 for s in self.assignment)

    def is_face_of(self, other: "MultiHom") -> bool:
        return all(
            set(a) <= set(b)
            for a, b in zip(self.assignment, other.assignment)
        )

    def to_hom(self) -> GraphHom:
        if self.dim != 0:
            raise InvalidParameterError("only dimension-0 cells are maps")
        return GraphHom(self.source, self.target, tuple(s[0] for s in self.assignment))


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def _one_smaller(mask: int) -> list[int]:
    """The masks with one vertex of ``mask`` dropped, least vertex first."""
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        out.append(mask ^ low)
    return out


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _lex_key(mask: int, width: int) -> int:
    """A key that sorts nonempty masks of at most ``width`` bytes as
    their increasing vertex tuples sort.

    With r the mask bit-reversed over 8 * width bits (the least vertex
    becomes the highest bit), the rank of the vertex tuple among all
    nonempty sets in lexicographic order is 2^(8 * width) - 1 + (number
    of vertices) - r - (lowest bit of r), so this key is that rank less
    a constant.
    """
    r = int.from_bytes(mask.to_bytes(width, "big").translate(_REVERSED_BYTES), "little")
    return mask.bit_count() - r - (r & -r)


class HomComplex:
    """Hom(source, target) as a fully enumerated poset of multi-homs.

    A cell is keyed by its masks: one bitmask of target vertices per
    source vertex.  Cells are canonically sorted by (dimension,
    assignment), the assignment listing each mask's vertices in
    increasing order, so cell indices are deterministic and compatible
    with the face order.  ``offsets[d]`` is the index of the first
    d-cell, and ``offsets[-1] == len(self)``.
    """

    def __init__(self, source: Graph, target: Graph, masks):
        self.source = source
        self.target = target
        masks = list(masks)
        width = (target.n + 7) // 8
        key_of = {m: _lex_key(m, width) for m in {m for ms in masks for m in ms}}
        dims = [sum(map(int.bit_count, ms)) - source.n for ms in masks]
        # (dimension, key of mask 0, key of mask 1, ...) per cell
        keys = list(zip(dims, *(map(key_of.__getitem__, col) for col in zip(*masks))))
        order = sorted(range(len(masks)), key=keys.__getitem__)
        self.masks: tuple[tuple[int, ...], ...] = tuple(masks[i] for i in order)
        self.index: dict[tuple[int, ...], int] = {
            ms: i for i, ms in enumerate(self.masks)
        }
        self.dim_of: tuple[int, ...] = tuple(dims[i] for i in order)
        self.offsets: tuple[int, ...] = tuple(
            bisect_left(self.dim_of, d) for d in range(self.dimension + 2)
        )
        self._cells: Optional[tuple[MultiHom, ...]] = None

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def cells(self) -> tuple[MultiHom, ...]:
        """The cells as validated ``MultiHom`` objects, built on first use."""
        if self._cells is None:
            self._cells = tuple(
                MultiHom(self.source, self.target, map(_vertices, ms))
                for ms in self.masks
            )
        return self._cells

    @property
    def dimension(self) -> int:
        return self.dim_of[-1] if self.dim_of else -1

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.offsets, self.offsets[1:]))

    def cells_of_dim(self, d: int) -> list[int]:
        if not 0 <= d <= self.dimension:
            return []
        return list(range(self.offsets[d], self.offsets[d + 1]))

    def facets(self, i: int) -> list[int]:
        """Indices of the codimension-1 faces of cell i: one vertex
        dropped from one mask, by source vertex, then target vertex."""
        cell = list(self.masks[i])
        out = []
        for v, m in enumerate(self.masks[i]):
            if m & (m - 1):
                for face in _one_smaller(m):
                    cell[v] = face
                    out.append(self.index[tuple(cell)])
                cell[v] = m
        return out


def _bfs_order(g: Graph) -> list[int]:
    seen = [False] * g.n
    order = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(g.adjacency[v]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def _hom_mappings(
    t: Graph, g: Graph, cap: int = DEFAULT_HOM_CAP
) -> list[tuple[int, ...]]:
    """The mapping tuples of all graph homomorphisms t -> g, sorted."""
    order = _bfs_order(t)
    pos = {v: i for i, v in enumerate(order)}
    next_adj: list[list[int]] = [[] for _ in order]
    t_loop = [False] * len(order)
    for u, v in t.edges:
        if u == v:
            t_loop[pos[u]] = True
        else:
            i, j = pos[u], pos[v]
            if i < j:
                next_adj[i].append(j)
            else:
                next_adj[j].append(i)
    g_adj = list(g.adjacency_masks)
    g_loop_mask = 0
    for v in g.loops():
        g_loop_mask |= 1 << v
    raw = _kernels.search_homs(next_adj, t_loop, g_adj, g_loop_mask, g.n, cap)
    if raw is None:
        raise ResourceLimitError(f"more than {cap} homomorphisms")
    return sorted(
        tuple(assignment[pos[v]] for v in range(t.n)) for assignment in raw
    )


def enumerate_homs(
    t: Graph, g: Graph, cap: int = DEFAULT_HOM_CAP
) -> list[GraphHom]:
    """All graph homomorphisms t -> g, in lexicographic map order."""
    return [GraphHom(t, g, m) for m in _hom_mappings(t, g, cap=cap)]


def enumerate_cells(
    t: Graph, g: Graph, cap: int = DEFAULT_CELL_CAP
) -> HomComplex:
    """The full Hom complex.  Each cell is grown exactly once from the
    homomorphism of its least vertices, adding vertices to its sets in
    increasing order: source vertex by source vertex, and within one set
    by target vertex."""
    homs = _hom_mappings(t, g, cap=cap)
    adj = g.adjacency_masks
    t_adj = [sorted(t.adjacency[v]) for v in range(t.n)]
    full = (1 << g.n) - 1
    loop_at = [v in t.adjacency[v] for v in range(t.n)]
    looped = 0
    for x in g.loops():
        looped |= 1 << x

    common: dict[int, int] = {}  # mask -> target vertices adjacent to all of it

    def common_of(mask: int) -> int:
        out = full
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            out &= adj[low.bit_length() - 1]
        common[mask] = out
        return out

    cells: list[tuple[int, ...]] = []
    stack = [(tuple(1 << x for x in f), 0) for f in homs]
    while stack:
        masks, first = stack.pop()
        cells.append(masks)
        if len(cells) > cap:
            raise ResourceLimitError(f"more than {cap} cells")
        for v in range(first, t.n):
            # only vertices above the largest one already in the set
            candidates = full ^ ((1 << masks[v].bit_length()) - 1)
            if loop_at[v]:
                candidates &= looped
            for u in t_adj[v]:
                if not candidates:
                    break
                c = common.get(masks[u])
                candidates &= common_of(masks[u]) if c is None else c
            head, m, tail = masks[:v], masks[v], masks[v + 1:]
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                stack.append((head + (m | low,) + tail, v))
    return HomComplex(t, g, cells)


@dataclass(frozen=True)
class CellMap:
    """A map of cells between two fully enumerated Hom complexes,
    recorded as target indices per source cell index."""

    source: HomComplex
    target: HomComplex
    images: tuple[int, ...]

    def is_order_preserving(self) -> bool:
        masks = self.target.masks
        for i in range(len(self.source)):
            top = masks[self.images[i]]
            for j in self.source.facets(i):
                if any(a & ~b for a, b in zip(masks[self.images[j]], top)):
                    return False
        return True

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {j: [] for j in range(len(self.target))}
        for i, j in enumerate(self.images):
            out[j].append(i)
        return out

    def compose(self, inner: "CellMap") -> "CellMap":
        if inner.target is not self.source and inner.target.index != self.source.index:
            raise InvalidParameterError("cell maps not composable")
        return CellMap(
            inner.source,
            self.target,
            tuple(self.images[k] for k in inner.images),
        )


def pushforward(
    f: GraphHom,
    t: Graph,
    source_complex: Optional[HomComplex] = None,
    target_complex: Optional[HomComplex] = None,
    cap: int = DEFAULT_CELL_CAP,
) -> CellMap:
    """The cell map Hom(t, f.domain) -> Hom(t, f.codomain) sending
    eta to x |-> f(eta(x)).  May decrease dimension."""
    k1 = source_complex
    if k1 is None:
        k1 = enumerate_cells(t, f.domain, cap=cap)
    k2 = target_complex
    if k2 is None:
        k2 = enumerate_cells(t, f.codomain, cap=cap)
    table = [1 << x for x in f.mapping]
    image_of: dict[int, int] = {}  # mask -> its image mask
    images = []
    for masks in k1.masks:
        image = []
        for m in masks:
            out = image_of.get(m)
            if out is None:
                out = 0
                for x in _vertices(m):
                    out |= table[x]
                image_of[m] = out
            image.append(out)
        images.append(k2.index[tuple(image)])
    return CellMap(k1, k2, tuple(images))


def pullback(
    u: GraphHom,
    g: Graph,
    source_complex: Optional[HomComplex] = None,
    target_complex: Optional[HomComplex] = None,
    cap: int = DEFAULT_CELL_CAP,
) -> CellMap:
    """The cell map Hom(u.codomain, g) -> Hom(u.domain, g) sending
    eta to eta o u."""
    k1 = source_complex
    if k1 is None:
        k1 = enumerate_cells(u.codomain, g, cap=cap)
    k2 = target_complex
    if k2 is None:
        k2 = enumerate_cells(u.domain, g, cap=cap)
    index = k2.index
    perm = u.mapping
    images = tuple(
        index[tuple(map(masks.__getitem__, perm))] for masks in k1.masks
    )
    return CellMap(k1, k2, images)


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def x_homotopy_classes(
    g: Graph, h: Graph, cap: int = DEFAULT_HOM_CAP
) -> list[list[GraphHom]]:
    """Partition of the homomorphisms g -> h into x-homotopy classes.

    Two maps are adjacent in the move graph when they differ at exactly
    one vertex v and doubling up at v still gives a multi-homomorphism;
    classes are the connected components of that graph.
    """
    homs = enumerate_homs(g, h, cap=cap)
    dsu = _DSU(len(homs))
    loops = g.loops()
    for v in range(g.n):
        buckets: dict[tuple, list[int]] = {}
        for i, f in enumerate(homs):
            key = f.mapping[:v] + f.mapping[v + 1:]
            buckets.setdefault(key, []).append(i)
        for group in buckets.values():
            if v in loops:
                # the doubled set must itself span edges of h
                for a in range(len(group)):
                    for b in range(a + 1, len(group)):
                        i, j = group[a], group[b]
                        if h.has_edge(homs[i].mapping[v], homs[j].mapping[v]):
                            dsu.union(i, j)
            else:
                # moves at a loopless vertex are always valid
                for other in group[1:]:
                    dsu.union(group[0], other)
    classes: dict[int, list[GraphHom]] = {}
    for i, f in enumerate(homs):
        classes.setdefault(dsu.find(i), []).append(f)
    return [classes[r] for r in sorted(classes)]


@dataclass(frozen=True)
class Involution:
    """An order-2 self-homomorphism of a graph."""

    graph: Graph
    map: GraphHom

    def __init__(self, graph: Graph, map: GraphHom):
        if map.domain != graph or map.codomain != graph:
            raise NotAnInvolutionError("map is not a self-map of the graph")
        if not map.is_involution():
            raise NotAnInvolutionError("map squared is not the identity")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "map", map)

    @property
    def flipping(self) -> bool:
        return any(
            self.graph.has_edge(x, self.map.mapping[x])
            for x in range(self.graph.n)
        )


@dataclass(frozen=True)
class Z2Report:
    """The Z_2 action eta |-> eta o alpha on Hom(T, G).

    A pullback along a graph map is an order- and dimension-preserving
    cell map by construction, so only freeness is recorded.
    """

    flipping: bool
    free: bool
    action: CellMap


def z2_structure(
    t: Graph,
    alpha: Involution,
    g: Graph,
    complex: Optional[HomComplex] = None,
    cap: int = DEFAULT_CELL_CAP,
) -> Z2Report:
    if alpha.graph != t:
        raise NotAnInvolutionError("involution is not on the source graph")
    k = complex
    if k is None:
        k = enumerate_cells(t, g, cap=cap)
    action = pullback(alpha.map, g, source_complex=k, target_complex=k)
    return Z2Report(
        flipping=alpha.flipping,
        free=all(i != j for i, j in enumerate(action.images)),
        action=action,
    )

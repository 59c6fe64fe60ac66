"""Hom complexes of graphs: multi-homomorphism cells, induced cell maps,
x-homotopy classes, and the Z_2 structure coming from flipping involutions.
"""

from __future__ import annotations

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


def _cell_key(assignment: tuple[tuple[int, ...], ...]) -> tuple:
    return (sum(len(s) - 1 for s in assignment), assignment)


class HomComplex:
    """Hom(source, target) as a fully enumerated poset of multi-homs.

    Cells are canonically sorted by (dimension, assignment), so cell
    indices are deterministic and compatible with the face order.
    """

    def __init__(self, source: Graph, target: Graph, assignments):
        self.source = source
        self.target = target
        cells = sorted(assignments, key=_cell_key)
        self.cells: tuple[MultiHom, ...] = tuple(
            MultiHom(source, target, a) for a in cells
        )
        self.index: dict[tuple, int] = {
            c.assignment: i for i, c in enumerate(self.cells)
        }
        self.dim_of: tuple[int, ...] = tuple(c.dim for c in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def dimension(self) -> int:
        return max(self.dim_of, default=-1)

    def cell_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.dimension + 1)
        for d in self.dim_of:
            counts[d] += 1
        return tuple(counts)

    def cells_of_dim(self, d: int) -> list[int]:
        return [i for i, dd in enumerate(self.dim_of) if dd == d]

    def facets(self, i: int):
        """Indices of the codimension-1 faces of cell i."""
        assignment = self.cells[i].assignment
        out = []
        for v, s in enumerate(assignment):
            if len(s) < 2:
                continue
            for t in range(len(s)):
                face = assignment[:v] + (s[:t] + s[t + 1:],) + assignment[v + 1:]
                out.append(self.index[face])
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


def enumerate_homs(
    t: Graph, g: Graph, cap: int = DEFAULT_HOM_CAP
) -> list[GraphHom]:
    """All graph homomorphisms t -> g, in lexicographic map order."""
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
    maps = sorted(
        tuple(assignment[pos[v]] for v in range(t.n)) for assignment in raw
    )
    return [GraphHom(t, g, m) for m in maps]


def enumerate_cells(
    t: Graph, g: Graph, cap: int = DEFAULT_CELL_CAP
) -> HomComplex:
    """The full Hom complex, grown from the dimension-0 cells by
    extending one assigned set at a time."""
    homs = enumerate_homs(t, g, cap=cap)
    adj = g.adjacency_masks
    t_adj = [sorted(t.adjacency[v]) for v in range(t.n)]

    full = (1 << g.n) - 1
    loop_at = [v in t.adjacency[v] for v in range(t.n)]

    seen: set[tuple[int, ...]] = set()
    frontier: deque[tuple[int, ...]] = deque()
    for f in homs:
        masks = tuple(1 << x for x in f.mapping)
        if masks not in seen:
            seen.add(masks)
            frontier.append(masks)
    while frontier:
        masks = frontier.popleft()
        for v in range(t.n):
            candidates = full & ~masks[v]
            for u in t_adj[v]:
                m = masks[u]
                while m and candidates:
                    low = m & -m
                    m ^= low
                    candidates &= adj[low.bit_length() - 1]
                if not candidates:
                    break
            m = candidates
            while m:
                low = m & -m
                m ^= low
                x = low.bit_length() - 1
                if loop_at[v] and not (adj[x] >> x) & 1:
                    continue
                grown = masks[:v] + (masks[v] | low,) + masks[v + 1:]
                if grown not in seen:
                    seen.add(grown)
                    if len(seen) > cap:
                        raise ResourceLimitError(f"more than {cap} cells")
                    frontier.append(grown)

    def unmask(masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        out = []
        for m in masks:
            s = []
            while m:
                low = m & -m
                m ^= low
                s.append(low.bit_length() - 1)
            out.append(tuple(s))
        return tuple(out)

    return HomComplex(t, g, [unmask(m) for m in seen])


@dataclass(frozen=True)
class CellMap:
    """A map of cells between two fully enumerated Hom complexes,
    recorded as target indices per source cell index."""

    source: HomComplex
    target: HomComplex
    images: tuple[int, ...]

    def image_cell(self, i: int) -> MultiHom:
        return self.target.cells[self.images[i]]

    def is_order_preserving(self) -> bool:
        for i in range(len(self.source)):
            for j in self.source.facets(i):
                if not self.image_cell(j).is_face_of(self.image_cell(i)):
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
    images = []
    for cell in k1.cells:
        image = tuple(
            tuple(sorted({f.mapping[x] for x in s})) for s in cell.assignment
        )
        images.append(k2.index[image])
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
    images = []
    for cell in k1.cells:
        image = tuple(cell.assignment[u.mapping[x]] for x in range(u.domain.n))
        images.append(k2.index[image])
    return CellMap(k1, k2, tuple(images))


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

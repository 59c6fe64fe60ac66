"""Enumerating oracles for claims that homcx proves structurally or on
cellular chains, the coloring search that the homomorphism search
replaced, the recursive form of that homomorphism search, and graph
surgery that only the tests use, with the fiber check of Prop. 3.2 for
subdividing an edge."""

from dataclasses import dataclass
from typing import Optional, Sequence

from homcx.builders import complete_graph
from homcx.errors import InvalidParameterError, ResourceLimitError
from homcx.graphs import Graph, GraphHom, is_bipartite
from homcx.homology import (
    DEFAULT_CHAIN_BUDGET,
    ChainComplex,
    OrderComplex,
    homology,
)
from homcx.homs import (
    CellMap,
    DEFAULT_CELL_CAP,
    _hom_mappings,
    enumerate_cells,
    pushforward,
)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Induced subgraph on V \\ {v}, relabeled densely."""
    return g.induced([u for u in range(g.n) if u != v])


def subdivide_edge(g: Graph, v: int, w: int) -> tuple[Graph, GraphHom]:
    """g with the edge vw replaced by the path v, n, n + 1, w through two
    new vertices, and the retraction that folds the path back onto vw
    (which is no graph map when vw is not an edge)."""
    edges = [e for e in g.edges if e != (min(v, w), max(v, w))]
    edges += [(g.n, g.n + 1), (g.n, v), (g.n + 1, w)]
    after = Graph(g.n + 2, edges)
    return after, GraphHom(after, g, list(range(g.n)) + [w, v])


def length3_walk(g: Graph, v: int, w: int) -> Optional[tuple[int, ...]]:
    """The least walk v, x, y, w in g minus the edge vw, or None; Prop.
    3.2's hypothesis for subdividing vw is that there is none."""
    def adjacent(a: int, b: int) -> bool:
        return {a, b} != {v, w} and g.has_edge(a, b)

    for x in sorted(g.adjacency[v]):
        for y in sorted(g.adjacency[x]):
            if adjacent(v, x) and adjacent(x, y) and adjacent(y, w):
                return (v, x, y, w)
    return None


def subdivision_fibers_ok(g: Graph, v: int, w: int) -> bool:
    """Whether the retraction of ``subdivide_edge(g, v, w)`` pushes the
    box complex Hom(K_2, after) onto Hom(K_2, g) with one cell over each
    cell except ({v},{w}) and ({w},{v}), and over each of those two a
    5-cell zigzag: three vertices joined into a path by two edges."""
    pf = pushforward(subdivide_edge(g, v, w)[1], complete_graph(2))
    fibers: list[list[tuple[int, ...]]] = [[] for _ in range(len(pf.target))]
    for masks, j in zip(pf.source.masks, pf.images):
        fibers[j].append(masks)
    index = pf.target.index
    ends = (index[(1 << v, 1 << w)], index[(1 << w, 1 << v)])
    return all(
        _is_zigzag(fiber) if j in ends else len(fiber) == 1
        for j, fiber in enumerate(fibers)
    )


def _is_zigzag(cells: list[tuple[int, ...]]) -> bool:
    lows = [c for c in cells if sum(map(int.bit_count, c)) == 2]
    highs = [c for c in cells if sum(map(int.bit_count, c)) == 3]
    faces = [
        [i for i, c in enumerate(lows) if not any(a & ~b for a, b in zip(c, h))]
        for h in highs
    ]
    degrees = sorted(sum(i in f for f in faces) for i in range(len(lows)))
    return (
        len(cells) == 5
        and len(highs) == 2
        and all(len(f) == 2 for f in faces)
        and degrees == [1, 1, 2]
    )


def mycielskian(g: Graph) -> Graph:
    """The Mycielski graph of g: chi one higher, same clique number."""
    n = g.n
    edges = list(g.edges)
    for u, v in g.edges:
        edges += [(u, n + v), (v, n + u)]
    edges += [(n + v, 2 * n) for v in range(n)]
    return Graph(2 * n + 1, edges)


def reference_ordered_k_coloring(
    g: Graph, k: int, order: Sequence[int], budget: list[int]
) -> Optional[list[int]]:
    """The fixed-order forward-checked coloring search that deciding
    Hom(g, K_k) != {} replaced, kept as its oracle: a k-coloring, or None.

    Spends one node of ``budget``, a one-element countdown, per call with
    a vertex left to color, and raises ResourceLimitError once it is spent.
    """
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    nxt: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(order):
        for w in g.adjacency[v]:
            if w != v and pos[w] > i:
                nxt[i].append(pos[w])
    full = (1 << k) - 1
    dom = [full] * n
    assign = [0] * n

    def rec(i: int) -> bool:
        if i == n:
            return True
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("coloring node budget exceeded")
        mask = dom[i]
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            assign[i] = c
            saved = []
            ok = True
            for j in nxt[i]:
                old = dom[j]
                new = old & ~(1 << c)
                if new != old:
                    saved.append((j, old))
                    dom[j] = new
                    if new == 0:
                        ok = False
                        break
            if ok and rec(i + 1):
                return True
            for j, old in saved:
                dom[j] = old
        return False

    if rec(0):
        colors = [0] * n
        for i, v in enumerate(order):
            colors[v] = assign[i]
        return colors
    return None


def reference_search_homs(
    next_adj, t_loop, g_adj, g_loop_mask, n_g, cap, budget=None
):
    """The recursive forward-checked homomorphism search that the
    kernel's explicit-stack search replaced, kept as its oracle: the same
    arguments, result, visit order, cap rule and node budget rule (one
    node per call that still has a position to assign)."""
    n_t = len(t_loop)
    full = (1 << n_g) - 1
    domains = [g_loop_mask if t_loop[i] else full for i in range(n_t)]
    assignment = [0] * n_t
    results = []

    def rec(i):
        if i == n_t:
            results.append(tuple(assignment))
            return len(results) <= cap
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceLimitError("coloring node budget exceeded")
        mask = domains[i]
        while mask:
            low = mask & -mask
            mask ^= low
            x = low.bit_length() - 1
            assignment[i] = x
            saved = []
            ok = True
            for j in next_adj[i]:
                old = domains[j]
                new = old & g_adj[x]
                if new != old:
                    saved.append((j, old))
                    domains[j] = new
                    if new == 0:
                        ok = False
                        break
            if ok and not rec(i + 1):
                return False
            for j, old in saved:
                domains[j] = old
        return True

    if not rec(0):
        return None
    return results


@dataclass(frozen=True)
class SplitReport:
    union_covers: bool
    intersection_matches: bool
    a_empty: Optional[bool]  # None when T is bipartite
    cells_total: int
    cells_in_a: int
    cells_in_b: int

    @property
    def ok(self) -> bool:
        covered = self.union_covers and self.intersection_matches
        if self.a_empty is None:
            return covered
        return covered and self.a_empty


def covering_split(
    t: Graph,
    h: Graph,
    a_vertices: Sequence[int],
    b_vertices: Sequence[int],
    cap: int = DEFAULT_CELL_CAP,
) -> SplitReport:
    """Check, by enumerating Hom(t, h), that every cell factors through
    the A part or the B part, and that the overlap cells are exactly
    Hom(t, A&B).  For non-bipartite t, additionally checks that
    Hom(t, A) is empty."""
    a_set = frozenset(a_vertices)
    b_set = frozenset(b_vertices)
    overlap = sorted(a_set & b_set)
    outside_a = outside_b = 0  # masks of the vertices outside A and B
    for x in range(h.n):
        if x not in a_set:
            outside_a |= 1 << x
        if x not in b_set:
            outside_b |= 1 << x
    k = enumerate_cells(t, h, cap=cap)
    in_a = in_b = in_both = 0
    union_ok = True
    for masks in k.masks:
        support = 0
        for m in masks:
            support |= m
        inside_a = not support & outside_a
        inside_b = not support & outside_b
        in_a += inside_a
        in_b += inside_b
        in_both += inside_a and inside_b
        if not (inside_a or inside_b):
            union_ok = False
    overlap_graph = h.induced(overlap)
    overlap_cells = len(enumerate_cells(t, overlap_graph, cap=cap))
    a_empty: Optional[bool] = None
    if not is_bipartite(t):
        a_graph = h.induced(sorted(a_set))
        a_empty = not _hom_mappings(t, a_graph, cap=cap)
    return SplitReport(
        union_covers=union_ok,
        intersection_matches=(overlap_cells == in_both),
        a_empty=a_empty,
        cells_total=len(k),
        cells_in_a=in_a,
        cells_in_b=in_b,
    )


def is_order_preserving(cmap: CellMap) -> bool:
    """Whether the image of every face of a cell is a face of its image."""
    masks = cmap.target.masks
    for i in range(len(cmap.source)):
        top = masks[cmap.images[i]]
        for j in cmap.source.facets(i):
            if any(a & ~b for a, b in zip(masks[cmap.images[j]], top)):
                return False
    return True


def order_complex_cone_isomorphism(
    cmap: CellMap, budget: int = DEFAULT_CHAIN_BUDGET
) -> bool:
    """Decide whether an order-preserving cell map induces isomorphisms
    on the homology of the order complexes; the simplicial oracle for
    ``homcx.homology.induced_map_homology``.

    The cell map induces a simplicial chain map f that sends a simplex
    whose image degenerates to zero.  f is a quasi-isomorphism iff its
    mapping cone is acyclic.  The cone's degree-d group is
    C1_{d-1} + C2_d, in that order, with boundary
    (a, b) -> (-da, f(a) + db); as a ChainComplex it is checked for
    dd = 0, which holds iff f is a chain map.
    """
    if not is_order_preserving(cmap):
        raise InvalidParameterError("cell map is not order-preserving")
    oc1 = OrderComplex(cmap.source, budget)
    oc2 = OrderComplex(cmap.target, budget)
    c1 = oc1.chain_complex()
    c2 = oc2.chain_complex()
    images = cmap.images
    boundaries = []
    for d in range(max(len(c1.ranks) + 1, len(c2.ranks))):
        # the C2 block of degree d - 1 starts after C1_{d-2}
        shift = c1.ranks[d - 2] if 2 <= d <= len(c1.ranks) + 1 else 0
        cols = []
        if 1 <= d <= len(c1.ranks):
            for s, col in zip(oc1.simplices[d - 1], c1.boundaries[d - 1]):
                out = {i: -c for i, c in col.items()}
                image = tuple(images[v] for v in s)
                if len(set(image)) == len(image):  # degenerate images are 0
                    out[shift + oc2.index[d - 1][image]] = 1
                cols.append(out)
        if d < len(c2.ranks):
            for col in c2.boundaries[d]:
                cols.append({shift + i: c for i, c in col.items()})
        boundaries.append(cols)
    cone = homology(ChainComplex([len(cols) for cols in boundaries], boundaries))
    return not cone.betti and not cone.torsion

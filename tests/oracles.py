"""Enumerating oracles for claims that homcx proves structurally, and
graph surgery that only the tests use."""

from dataclasses import dataclass
from typing import Optional, Sequence

from homcx.graphs import Graph, is_bipartite
from homcx.homs import DEFAULT_CELL_CAP, _hom_mappings, enumerate_cells


def delete_vertex(g: Graph, v: int) -> Graph:
    """Induced subgraph on V \\ {v}, relabeled densely."""
    return g.induced([u for u in range(g.n) if u != v])


def mycielskian(g: Graph) -> Graph:
    """The Mycielski graph of g: chi one higher, same clique number."""
    n = g.n
    edges = list(g.edges)
    for u, v in g.edges:
        edges += [(u, n + v), (v, n + u)]
    edges += [(n + v, 2 * n) for v in range(n)]
    return Graph(2 * n + 1, edges)


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

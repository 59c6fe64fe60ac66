"""Graph builders and the curated graph library."""

from __future__ import annotations

from .errors import InvalidParameterError
from .graphs import Graph


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise InvalidParameterError("K_n needs n >= 0")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("C_n needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """L_n: vertices 0..n, edges between consecutive integers."""
    if n < 1:
        raise InvalidParameterError("L_n needs n >= 1")
    return Graph(n + 1, [(i, i + 1) for i in range(n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


# Walker's 7-vertex example: triangles 0-1-2, 1-2-3, 3-4-5, 4-5-6 chained
# left to right, closed up by the bottom edge (0,6).
_WALKER1_EDGES = [
    (0, 1), (0, 2), (1, 2),
    (1, 3), (2, 3),
    (3, 4), (3, 5), (4, 5),
    (4, 6), (5, 6),
    (0, 6),
]


def walker_graph_1() -> Graph:
    return Graph(7, _WALKER1_EDGES)


def walker_graph_2() -> Graph:
    """Walker's first graph with the bottom edge subdivided into a
    length-3 path through two new vertices 7 and 8."""
    edges = [e for e in _WALKER1_EDGES if e != (0, 6)]
    edges.extend([(7, 8), (0, 7), (6, 8)])
    return Graph(9, edges)


def circulant_graph(n: int, offsets: tuple[int, ...]) -> Graph:
    if n < 3 or any(not 1 <= d <= n // 2 for d in offsets):
        raise InvalidParameterError("bad circulant parameters")
    edges = [(i, (i + d) % n) for i in range(n) for d in offsets]
    return Graph(n, edges)


# 21 vertices, 4-regular, girth 5, chromatic number 4 (both values
# re-verified by tests with the exact solver and a brute-force oracle).
_CHI4_GIRTH5_ADJ = {
    0: [2, 5, 7, 13], 1: [3, 6, 7, 8], 2: [4, 8, 9], 3: [5, 9, 10],
    4: [6, 10, 11], 5: [11, 12], 6: [12, 13], 7: [15, 20], 8: [14, 16],
    9: [15, 17], 10: [16, 18], 11: [17, 19], 12: [18, 20], 13: [14, 19],
    14: [17, 18], 15: [18, 19], 16: [19, 20], 17: [20],
}


def chi4_girth5_graph() -> Graph:
    """The 21-vertex entry: quartic, girth 5, chromatic number 4."""
    edges = [(u, v) for u, vs in _CHI4_GIRTH5_ADJ.items() for v in vs]
    return Graph(21, edges)


def high_girth_library() -> list[Graph]:
    """Curated graphs of girth 5, smallest first: the Petersen graph
    (chi 3) and the 21-vertex quartic graph (chi 4).  Their girth and
    chi are verified by the exact routines wherever an entry is used in
    a construction."""
    return [petersen_graph(), chi4_girth5_graph()]

"""Finite undirected graphs with loops, builders, and basic invariants.

Vertices are dense integer labels ``0..n-1``.  Edges are unordered pairs
stored as sorted tuples; a loop is the pair ``(v, v)``.  The neighborhood
``N(v)`` contains ``v`` itself exactly when ``(v, v)`` is an edge.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    InvalidParameterError,
)

INFINITY = math.inf


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable finite graph, loops allowed, no multiple edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if type(n) is not int:  # bool is an int subclass
            raise InvalidParameterError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise InvalidParameterError("vertex count must be nonnegative")
        normed = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # bool is an int subclass
                raise InvalidParameterError(
                    f"edge ({u!r},{v!r}) has a non-integer endpoint"
                )
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise InvalidParameterError(
                    f"edge ({u},{v}) out of range for {n} vertices"
                )
            normed.append((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normed))

    # -- basic queries ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """N(v) for each v, each neighbour once, in edge-set order (not
        sorted); includes v itself iff (v,v) is an edge.  The same pass
        over the edges fills the cache of ``loops()``."""
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            loops = []
            for u, v in self.edges:
                nbrs[u].append(v)
                if u != v:
                    nbrs[v].append(u)
                else:
                    loops.append(u)
            cached = tuple(map(tuple, nbrs))
            self.__dict__["_adjacency"] = cached
            self.__dict__["_loops"] = frozenset(loops)
        return cached

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """N(v) for each v as integer bitmasks."""
        cached = self.__dict__.get("_adjacency_masks")
        if cached is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            cached = tuple(masks)
            self.__dict__["_adjacency_masks"] = cached
        return cached

    def has_loop(self) -> bool:
        return bool(self.loops())

    def loops(self) -> frozenset[int]:
        """The vertices that carry a loop."""
        cached = self.__dict__.get("_loops")
        if cached is None:
            self.adjacency  # fills the loop cache in the same pass
            cached = self.__dict__["_loops"]
        return cached

    def edge_count(self) -> int:
        return len(self.edges)

    # -- derived graphs -----------------------------------------------

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is ``vertices[i]``."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise InvalidParameterError("duplicate vertices")
        for v in index:
            if type(v) is not int or not 0 <= v < self.n:
                raise InvalidParameterError(
                    f"vertex {v!r} out of range for {self.n} vertices"
                )
        return Graph(
            len(vertices),
            [
                (index[a], index[b])
                for a, b in self.edges
                if a in index and b in index
            ],
        )

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: object) -> "Graph":
        if not isinstance(obj, dict):
            raise GraphFormatError("graph JSON must be an object")
        try:
            n = obj["n"]
            edges = obj["edges"]
        except KeyError as exc:
            raise GraphFormatError(f"missing key {exc}") from exc
        if not isinstance(edges, list):
            raise GraphFormatError("'edges' must be a list")
        for item in edges:
            if not isinstance(item, list) or len(item) != 2:
                raise GraphFormatError(f"bad edge entry {item!r}")
        try:
            return Graph(n, edges)
        except InvalidParameterError as exc:
            raise GraphFormatError(str(exc)) from exc

    @staticmethod
    def from_json(text: str) -> "Graph":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
        return Graph.from_json_obj(obj)


@dataclass(frozen=True)
class GraphHom:
    """Adjacency-preserving vertex map between two graphs."""

    domain: Graph
    codomain: Graph
    mapping: tuple[int, ...]

    def __init__(self, domain: Graph, codomain: Graph, mapping: Sequence[int]):
        try:
            mapping = tuple(mapping)
        except TypeError:
            raise InvalidParameterError("mapping must be a sequence of vertices")
        if len(mapping) != domain.n:
            raise InvalidParameterError("mapping length != domain size")
        for x in mapping:
            if type(x) is not int:  # bool is an int subclass
                raise InvalidParameterError(f"image vertex {x!r} is not an integer")
            if not 0 <= x < codomain.n:
                raise InvalidParameterError(f"image vertex {x} out of range")
        for u, v in domain.edges:
            if not codomain.has_edge(mapping[u], mapping[v]):
                raise InvalidParameterError(
                    f"edge ({u},{v}) maps to non-edge "
                    f"({mapping[u]},{mapping[v]})"
                )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "mapping", mapping)

    def compose(self, inner: "GraphHom") -> "GraphHom":
        """self o inner."""
        if inner.codomain != self.domain:
            raise InvalidParameterError("homomorphisms not composable")
        return GraphHom(
            inner.domain,
            self.codomain,
            tuple(self.mapping[x] for x in inner.mapping),
        )

    def is_involution(self) -> bool:
        return self.domain == self.codomain and all(
            self.mapping[self.mapping[v]] == v for v in range(self.domain.n)
        )

    @staticmethod
    def identity(g: Graph) -> "GraphHom":
        return GraphHom(g, g, tuple(range(g.n)))


# -- invariants ---------------------------------------------------------


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    adj = g.adjacency
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def is_bipartite(g: Graph) -> bool:
    """True iff g admits a 2-coloring; a loop makes it non-bipartite."""
    if g.has_loop():
        return False
    color = [-1] * g.n
    adj = g.adjacency
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def girth(g: Graph):
    """Length of the shortest embedded cycle; inf for forests.

    A loop counts as a cycle of length 1 (convention for total-ness;
    loopless graphs always report >= 3 or inf).
    """
    if g.has_loop():
        return 1
    best = INFINITY
    adj = g.adjacency
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            if 2 * dist[v] >= best:
                # any cycle detected from here on has length >= 2*dist[v]
                continue
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w and parent[w] != v:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def odd_girth(g: Graph):
    """Length of the shortest odd embedded cycle; inf iff bipartite."""
    if g.has_loop():
        return 1
    best = INFINITY
    adj = g.adjacency
    for s in range(g.n):
        # BFS on (vertex, parity); shortest odd closed walk at s is a cycle.
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            v, p = queue.popleft()
            d = dist[(v, p)]
            if d >= best:
                continue
            for w in adj[v]:
                key = (w, 1 - p)
                if key not in dist:
                    dist[key] = d + 1
                    queue.append(key)
        if (s, 1) in dist and dist[(s, 1)] < best:
            best = dist[(s, 1)]
    return best


def diameter(g: Graph) -> int:
    """Max over vertex pairs of shortest-path distance; connected input."""
    if g.n == 0 or not is_connected(g):
        raise DisconnectedGraphError("diameter needs a nonempty connected graph")
    adj = g.adjacency
    best = 0
    for s in range(g.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best

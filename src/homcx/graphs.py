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
from typing import Iterable, Optional, Sequence

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
        if n < 0:
            raise InvalidParameterError("vertex count must be nonnegative")
        normed = frozenset(_norm_edge(u, v) for u, v in edges)
        for u, v in normed:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(
                    f"edge ({u},{v}) out of range for {n} vertices"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", normed)

    # -- basic queries ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """N(v) for each v; includes v itself iff (v,v) is an edge."""
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            cached = tuple(frozenset(s) for s in nbrs)
            self.__dict__["_adjacency"] = cached
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
            cached = frozenset(u for u, v in self.edges if u == v)
            self.__dict__["_loops"] = cached
        return cached

    def is_simple(self) -> bool:
        return not self.has_loop()

    def edge_count(self) -> int:
        return len(self.edges)

    # -- derived graphs -----------------------------------------------

    def delete_vertex(self, v: int) -> "Graph":
        """Induced subgraph on V \\ {v}, relabeled densely."""
        if not 0 <= v < self.n:
            raise InvalidParameterError(f"no vertex {v}")
        relabel = {u: (u if u < v else u - 1) for u in range(self.n) if u != v}
        return Graph(
            self.n - 1,
            [
                (relabel[a], relabel[b])
                for a, b in self.edges
                if a != v and b != v
            ],
        )

    def delete_edge(self, u: int, v: int) -> "Graph":
        e = _norm_edge(u, v)
        if e not in self.edges:
            raise InvalidParameterError(f"no edge {e}")
        return Graph(self.n, self.edges - {e})

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is ``vertices[i]``."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise InvalidParameterError("duplicate vertices")
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
        if type(n) is not int or n < 0:  # bool is an int subclass
            raise GraphFormatError("'n' must be a nonnegative integer")
        if not isinstance(edges, list):
            raise GraphFormatError("'edges' must be a list")
        pairs = []
        for item in edges:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(type(x) is int for x in item)
            ):
                raise GraphFormatError(f"bad edge entry {item!r}")
            u, v = item
            if u >= n or v >= n or u < 0 or v < 0:
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            pairs.append((u, v))
        return Graph(n, pairs)

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

    def __call__(self, v: int) -> int:
        return self.mapping[v]

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


# -- folds ---------------------------------------------------------------


def dismantlable_witness(g: Graph, v: int) -> Optional[int]:
    """Some w != v with N(v) subseteq N(w), or None.

    Neighborhoods are loop-inclusive: N(v) contains v iff v is looped.
    Lowest-index witness is returned for determinism.
    """
    if not 0 <= v < g.n:
        raise InvalidParameterError(f"no vertex {v}")
    adj = g.adjacency
    nv = adj[v]
    for w in range(g.n):
        if w != v and nv <= adj[w]:
            return w
    return None


@dataclass(frozen=True)
class FoldReduction:
    """Result of greedy fold reduction."""

    core: Graph
    # (removed original label, witness original label) in removal order
    removals: tuple[tuple[int, int], ...]
    # kept[i] = original label of core vertex i
    kept: tuple[int, ...]


def fold_reduce(g: Graph) -> FoldReduction:
    """Remove dismantlable vertices (lowest index first) until none remain."""
    current = g
    labels = list(range(g.n))
    removals: list[tuple[int, int]] = []
    while True:
        found = None
        for v in range(current.n):
            w = dismantlable_witness(current, v)
            if w is not None:
                found = (v, w)
                break
        if found is None:
            break
        v, w = found
        removals.append((labels[v], labels[w]))
        del labels[v]
        current = current.delete_vertex(v)
    return FoldReduction(current, tuple(removals), tuple(labels))


# -- binary constructions -------------------------------------------------


def product(g: Graph, h: Graph) -> Graph:
    """Categorical product; vertex (a,b) is labeled a*h.n + b."""
    edges = []
    for a, a2 in g.edges:
        for b, b2 in h.edges:
            edges.append((a * h.n + b, a2 * h.n + b2))
            edges.append((a * h.n + b2, a2 * h.n + b))
            edges.append((a2 * h.n + b, a * h.n + b2))
            edges.append((a2 * h.n + b2, a * h.n + b))
    return Graph(g.n * h.n, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Side-by-side union; g2's vertices are shifted by g1.n."""
    edges = list(g1.edges)
    edges.extend((u + g1.n, v + g1.n) for u, v in g2.edges)
    return Graph(g1.n + g2.n, edges)

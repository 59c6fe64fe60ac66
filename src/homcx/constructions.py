"""Graph surgeries and the chromatic-number-vs-Hom-homology pipeline.

The central construction: given a small family of test graphs and a
non-bipartite graph G, build H with arbitrarily large chromatic number
whose Hom complexes (per test graph) have the same homology as G's.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .builders import complete_graph, cycle_graph, high_girth_library
from .coloring import DEFAULT_NODE_BUDGET, chromatic_number
from .errors import (
    BipartiteInputError,
    DisconnectedGraphError,
    GraphFormatError,
    HypothesisViolatedError,
    InvalidParameterError,
    NotFoundWithinBudgetError,
    ResourceLimitError,
)
from .graphs import (
    Graph,
    GraphHom,
    INFINITY,
    diameter,
    girth,
    is_bipartite,
    is_connected,
    odd_girth,
)
from .homs import (
    DEFAULT_CELL_CAP,
    HomComplex,
    _hom_mappings,
    enumerate_cells,
    pushforward,
)


# -- edge subdivision ----------------------------------------------------


@dataclass(frozen=True)
class SubdivisionStep:
    """One length-3 replacement of an edge <v,w> with the retraction back."""

    before: Graph
    edge: tuple[int, int]
    after: Graph
    retraction: GraphHom
    new_vertices: tuple[int, int]  # (0-end adjacent to v, 1-end adjacent to w)


def subdivide_edge(g: Graph, e: Sequence[int]) -> SubdivisionStep:
    """Replace the edge e = <v,w> by a length-3 path through two new
    vertices; the retraction folds the path back onto the edge."""
    v, w = e
    if v == w:
        raise InvalidParameterError("cannot subdivide a loop")
    if not g.has_edge(v, w):
        raise InvalidParameterError(f"no edge ({v},{w})")
    zero_end, one_end = g.n, g.n + 1
    edges = [pair for pair in g.edges if pair != (min(v, w), max(v, w))]
    edges.extend([(zero_end, one_end), (zero_end, v), (one_end, w)])
    after = Graph(g.n + 2, edges)
    mapping = list(range(g.n)) + [w, v]
    return SubdivisionStep(
        before=g,
        edge=(v, w),
        after=after,
        retraction=GraphHom(after, g, mapping),
        new_vertices=(zero_end, one_end),
    )


@dataclass(frozen=True)
class Prop32Result:
    holds: bool
    witness: Optional[tuple[int, int, int, int]]  # a length-3 walk v..w


def prop32_hypothesis(g: Graph, e: Sequence[int]) -> Prop32Result:
    """True iff g minus the edge <v,w> has no walk of length exactly 3
    from v to w; otherwise the lexicographically first witness walk."""
    v, w = e
    if not g.has_edge(v, w):
        raise InvalidParameterError(f"no edge ({v},{w})")
    stripped = g.delete_edge(v, w)
    adj = stripped.adjacency
    for x in sorted(adj[v]):
        for y in sorted(adj[x]):
            if w in adj[y]:
                return Prop32Result(False, (v, x, y, w))
    return Prop32Result(True, None)


@dataclass(frozen=True)
class FiberReport:
    """Fibers of the retraction's pushforward on box complexes."""

    step: SubdivisionStep
    singleton_fibers: int
    fiber_i: tuple
    fiber_j: tuple
    zigzags_ok: bool
    disjoint: bool
    surjective: bool

    @property
    def ok(self) -> bool:
        return self.zigzags_ok and self.disjoint and self.surjective


def _is_zigzag(cells) -> bool:
    """Five cells: three minimal, two one-dimensional, comparabilities
    forming a path (the Hasse diagram of an interval)."""
    if len(cells) != 5:
        return False
    dims = sorted(c.dim for c in cells)
    if dims != [0, 0, 0, 1, 1]:
        return False
    lows = [c for c in cells if c.dim == 0]
    highs = [c for c in cells if c.dim == 1]
    degree = {id(c): 0 for c in lows}
    for h in highs:
        faces = [c for c in lows if c.is_face_of(h)]
        if len(faces) != 2:
            return False
        for c in faces:
            degree[id(c)] += 1
    # a path: middle vertex covered twice, ends once
    return sorted(degree.values()) == [1, 1, 2]


def fiber_certificate(
    step: SubdivisionStep, cap: int = DEFAULT_CELL_CAP
) -> FiberReport:
    """Check that the box-complex pushforward of the retraction has
    singleton fibers except for two disjoint 5-cell intervals over
    ({v},{w}) and ({w},{v})."""
    if not prop32_hypothesis(step.before, step.edge).holds:
        raise HypothesisViolatedError(
            f"length-3 walk exists around edge {step.edge}"
        )
    pf = pushforward(step.retraction, complete_graph(2), cap=cap)
    target = pf.target
    v, w = step.edge
    i_vw = target.index[(1 << v, 1 << w)]
    i_wv = target.index[(1 << w, 1 << v)]
    fibers = pf.fibers()
    singleton = 0
    ok = True
    for j, srcs in fibers.items():
        if j in (i_vw, i_wv):
            continue
        if len(srcs) == 1:
            singleton += 1
        else:
            ok = False
    surjective = all(len(srcs) >= 1 for srcs in fibers.values())
    fiber_i = tuple(pf.source.cells[s] for s in fibers[i_vw])
    fiber_j = tuple(pf.source.cells[s] for s in fibers[i_wv])
    zig = ok and _is_zigzag(fiber_i) and _is_zigzag(fiber_j)
    disjoint = not (
        {c.assignment for c in fiber_i} & {c.assignment for c in fiber_j}
    )
    return FiberReport(
        step=step,
        singleton_fibers=singleton,
        fiber_i=fiber_i,
        fiber_j=fiber_j,
        zigzags_ok=zig,
        disjoint=disjoint,
        surjective=surjective,
    )


# -- path replacement and the cylinder -----------------------------------


@dataclass(frozen=True)
class PathReplacement:
    """Each edge of the base graph replaced by an odd-length path."""

    base: Graph
    length: int
    result: Graph
    collapse: GraphHom  # result -> base, parity fold of every path
    wrap: Optional[GraphHom]  # result -> C_length, winds each path once


def _balanced_signs(x: Graph) -> list[int]:
    """A winding direction (+1 or -1) per sorted edge of x.

    Per-level colorings of the glued cylinder conserve a winding number
    around every cycle of x, so the wrap must wind as close to +-1 as
    possible around each cycle or chi(H) inflates.  Greedy sign flips
    pull the net winding of every fundamental cycle toward +-1.
    """
    edges = sorted(x.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    parent: dict[int, Optional[int]] = {}
    seen: set[int] = set()
    for root in range(x.n):
        if root in seen:
            continue
        seen.add(root)
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(x.adjacency[u]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    queue.append(w)
    tree = {
        (min(v, p), max(v, p)) for v, p in parent.items() if p is not None
    }

    def path_to_root(v: int) -> list[int]:
        out = [v]
        while parent[v] is not None:
            v = parent[v]
            out.append(v)
        return out

    cycles = []  # [(edge index, traversal direction)] per fundamental cycle
    for e in edges:
        if e in tree or e[0] == e[1]:
            continue
        pu, pv = path_to_root(e[0]), path_to_root(e[1])
        while (
            len(pu) > 1
            and len(pv) > 1
            and pu[-1] == pv[-1]
            and pu[-2] == pv[-2]
        ):
            pu.pop()
            pv.pop()
        walk = pu + pv[-2::-1] + [e[0]]
        cycles.append(
            [
                (eidx[(min(a, b), max(a, b))], 1 if a < b else -1)
                for a, b in zip(walk, walk[1:])
            ]
        )
    eps = [1] * len(edges)

    def cost() -> int:
        total = 0
        for cyc in cycles:
            net = sum(d * eps[i] for i, d in cyc)
            total += (abs(net) - 1) ** 2
        return total

    improved = True
    while improved:
        improved = False
        for i in range(len(edges)):
            before = cost()
            eps[i] = -eps[i]
            if cost() < before:
                improved = True
            else:
                eps[i] = -eps[i]
    return eps


def replace_edges_with_paths(x: Graph, odd_length: int) -> PathReplacement:
    if odd_length % 2 == 0:
        raise InvalidParameterError("replacement length must be odd")
    if odd_length < 1:
        raise InvalidParameterError("replacement length must be positive")
    if x.has_loop():
        raise InvalidParameterError("base graph must be loopless")
    if odd_length == 1:
        ident = GraphHom.identity(x)
        return PathReplacement(x, 1, x, ident, None)
    length = odd_length
    signs = _balanced_signs(x)
    edges = []
    collapse = list(range(x.n))
    wrap = [0] * x.n
    next_label = x.n
    for idx, (v, w) in enumerate(sorted(x.edges)):
        path = [v]
        for i in range(1, length):
            path.append(next_label)
            # interior vertex i steps from v folds to the opposite end
            collapse.append(w if i % 2 else v)
            wrap.append(i % length if signs[idx] > 0 else (-i) % length)
            next_label += 1
        path.append(w)
        edges.extend((path[i], path[i + 1]) for i in range(length))
    y = Graph(next_label, edges)
    cyc = cycle_graph(length)
    return PathReplacement(
        base=x,
        length=length,
        result=y,
        collapse=GraphHom(y, x, collapse),
        wrap=GraphHom(y, cyc, wrap),
    )


@dataclass(frozen=True)
class CylinderGlue:
    """H built from X, the cylinder over Y, and G; ends attached by
    f: Y -> X and g: Y -> G."""

    h: Graph
    m: int
    embed_x: GraphHom  # X -> H
    embed_g: GraphHom  # G -> H
    a_vertices: tuple[int, ...]  # X side plus full cylinder interior
    b_vertices: tuple[int, ...]  # cylinder interior plus G side
    overlap_vertices: tuple[int, ...]


def glue_cylinder(
    x: Graph, y: Graph, g: Graph, f: GraphHom, gmap: GraphHom, m: int
) -> CylinderGlue:
    if f.domain != y or f.codomain != x:
        raise InvalidParameterError("f must map Y to X")
    if gmap.domain != y or gmap.codomain != g:
        raise InvalidParameterError("g must map Y to G")
    if m < 2:
        raise InvalidParameterError("cylinder length must be >= 2")
    if y.has_loop():
        raise InvalidParameterError("Y must be loopless")
    nx, ny = x.n, y.n

    def level(yv: int, i: int) -> int:
        return nx + (i - 1) * ny + yv

    g_off = nx + (m - 1) * ny
    edges = list(x.edges)
    edges.extend((u + g_off, v + g_off) for u, v in g.edges)
    for yu, yv in y.edges:
        for i in range(1, m - 1 + 1):
            edges.append((level(yu, i), level(yv, i)))
        for i in range(1, m - 1):
            edges.append((level(yu, i), level(yv, i + 1)))
            edges.append((level(yv, i), level(yu, i + 1)))
        edges.append((f.mapping[yu], level(yv, 1)))
        edges.append((f.mapping[yv], level(yu, 1)))
        edges.append((level(yu, m - 1), gmap.mapping[yv] + g_off))
        edges.append((level(yv, m - 1), gmap.mapping[yu] + g_off))
    h = Graph(g_off + g.n, edges)
    interior = tuple(range(nx, g_off))
    return CylinderGlue(
        h=h,
        m=m,
        embed_x=GraphHom(x, h, tuple(range(nx))),
        embed_g=GraphHom(g, h, tuple(range(g_off, g_off + g.n))),
        a_vertices=tuple(range(nx)) + interior,
        b_vertices=interior + tuple(range(g_off, g_off + g.n)),
        overlap_vertices=interior,
    )


def cylinder_sweep_order(
    x_n: int, y: Graph, g_n: int, m: int
) -> list[int]:
    """A coloring search order for the glued graph: both ends first,
    then one full column of cylinder levels per Y vertex in DFS order.
    Keeps the search frontier one column wide instead of one level."""
    g_off = x_n + (m - 1) * y.n
    order = list(range(x_n)) + list(range(g_off, g_off + g_n))
    seen: set[int] = set()
    for root in range(y.n):
        if root in seen:
            continue
        stack = [root]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            order.extend(x_n + (i - 1) * y.n + u for i in range(1, m))
            for w in sorted(y.adjacency[u], reverse=True):
                if w not in seen:
                    stack.append(w)
    return order


# -- uniformly small bound ----------------------------------------------


def uniformly_small_m(family: Sequence[Graph]) -> int:
    """One bound m for the whole family: above every diameter (with the
    slack the cylinder argument needs), above twice every diameter plus
    four (girth requirement for the base), and above every odd girth of
    a non-bipartite member."""
    m = 3
    for t in family:
        if not is_connected(t) or t.n == 0:
            raise DisconnectedGraphError("family members must be connected")
        d = diameter(t)
        m = max(m, d + 3, 2 * d + 5)
        og = odd_girth(t)
        if og != INFINITY:
            m = max(m, int(og) + 1)
    return m


# -- verified high-girth high-chromatic search ---------------------------


@dataclass(frozen=True)
class HighGirthResult:
    graph: Graph
    source: str  # "odd-cycle", library name, or "random"
    chi: int
    girth: int


def _short_cycle_edge(g: Graph, bound: int) -> Optional[tuple[int, int]]:
    """An edge lying on some cycle shorter than ``bound``, or None."""
    adj = g.adjacency
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= bound:
                continue
            for t in adj[u]:
                if t not in dist:
                    dist[t] = dist[u] + 1
                    parent[t] = u
                    queue.append(t)
                elif parent[u] != t and parent[t] != u:
                    if dist[u] + dist[t] + 1 < bound:
                        return (min(u, t), max(u, t))
    return None


def find_high_girth_high_chromatic(
    n: int,
    m: int,
    seed: int = 0,
    attempts: int = 400,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HighGirthResult:
    """A connected graph with chromatic number > n and girth >= m.

    Tries odd cycles, then the curated library, then seeded random
    graphs with short-cycle deletion; every candidate is verified by the
    exact girth and coloring routines before being returned.
    """
    if n < 1 or m < 3:
        raise InvalidParameterError("need n >= 1 and m >= 3")
    if n <= 2:
        cyc = cycle_graph(m if m % 2 else m + 1)
        return _verified(cyc, "odd-cycle", n, m, node_budget)
    for name, _, lib_girth, graph in high_girth_library():
        if lib_girth >= m:
            try:
                return _verified(graph, name, n, m, node_budget)
            except NotFoundWithinBudgetError:
                continue
    rng = random.Random(seed)
    for attempt in range(attempts):
        nv = 20 + 4 * (attempt // 20)
        p = min(0.9, (3.0 + n) / nv)
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < p
        ]
        candidate = Graph(nv, edges)
        while True:
            bad = _short_cycle_edge(candidate, m)
            if bad is None:
                break
            candidate = candidate.delete_edge(*bad)
        if not is_connected(candidate):
            continue
        try:
            return _verified(candidate, "random", n, m, node_budget)
        except (NotFoundWithinBudgetError, ResourceLimitError):
            continue
    raise NotFoundWithinBudgetError(
        f"no verified graph with chi > {n} and girth >= {m} found"
    )


def _verified(
    g: Graph, source: str, n: int, m: int, node_budget: int
) -> HighGirthResult:
    gi = girth(g)
    if gi < m:
        raise NotFoundWithinBudgetError(f"girth {gi} < {m}")
    chi = chromatic_number(g, node_budget)
    if not chi > n:
        raise NotFoundWithinBudgetError(f"chromatic number {chi} <= {n}")
    return HighGirthResult(g, source, int(chi), gi if gi != INFINITY else g.n + 1)


def shortest_odd_cycle(g: Graph) -> list[int]:
    """Vertices of an embedded odd cycle of minimal length."""
    og = odd_girth(g)
    if og == INFINITY:
        raise BipartiteInputError("graph has no odd cycle")
    if og == 1:
        v = min(g.loops())
        return [v]
    adj = g.adjacency
    best: Optional[list[int]] = None
    for s in range(g.n):
        dist = {(s, 0): 0}
        parent: dict[tuple[int, int], tuple[int, int]] = {}
        queue = deque([(s, 0)])
        while queue:
            u, p = queue.popleft()
            for t in sorted(adj[u]):
                key = (t, 1 - p)
                if key not in dist:
                    dist[key] = dist[(u, p)] + 1
                    parent[key] = (u, p)
                    queue.append(key)
        if (s, 1) in dist and dist[(s, 1)] == og:
            walk = []
            node = (s, 1)
            while True:
                walk.append(node[0])
                if node == (s, 0):
                    break
                node = parent[node]
            walk.reverse()  # s ... s, length og+1
            cycle = walk[:-1]
            if len(set(cycle)) == len(cycle):
                if best is None:
                    best = cycle
    if best is None:
        # minimality forces simplicity, so this cannot happen
        raise AssertionError("no simple shortest odd cycle found")
    return best


# -- covering split ------------------------------------------------------


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
    complex: Optional[HomComplex] = None,
) -> SplitReport:
    """Check that every cell of Hom(t, h) factors through the A part or
    the B part, and that the overlap cells are exactly Hom(t, A&B).
    For non-bipartite t, additionally checks Hom(t, A) is empty."""
    a_set = frozenset(a_vertices)
    b_set = frozenset(b_vertices)
    overlap = sorted(a_set & b_set)
    outside_a = outside_b = 0  # masks of the vertices outside A and B
    for x in range(h.n):
        if x not in a_set:
            outside_a |= 1 << x
        if x not in b_set:
            outside_b |= 1 << x
    k = complex
    if k is None:
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


# -- the pipeline --------------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    """A test graph, optionally with a flipping involution."""

    name: str
    graph: Graph
    involution: Optional[GraphHom] = None

    @staticmethod
    def from_json_obj(obj: object, default_name: Optional[str] = None) -> "FamilyMember":
        """A member from ``{"name", "graph", "involution"}``, where the
        involution may be null; with a ``default_name`` the name may be
        left out and the object may also be a plain graph.  Raises
        GraphFormatError on anything malformed."""
        if isinstance(obj, dict) and "graph" in obj:
            name = obj.get("name", default_name)
            if not isinstance(name, str):
                raise GraphFormatError("family member name must be a string")
            graph = Graph.from_json_obj(obj["graph"])
            inv = obj.get("involution")
            try:
                hom = None if inv is None else GraphHom(graph, graph, inv)
            except InvalidParameterError as exc:
                raise GraphFormatError(f"involution of {name}: {exc}") from exc
            return FamilyMember(name, graph, hom)
        if default_name is None:
            raise GraphFormatError("family member must be an object with a graph")
        return FamilyMember(default_name, Graph.from_json_obj(obj), None)


@dataclass(frozen=True)
class MemberReport:
    name: str
    profile_g: Optional[object]  # HomologyProfile, None when skipped
    profile_h: Optional[object]
    z2: Optional[tuple[bool, bool, bool]]  # (free on G, free on H, equivariant)
    verified: bool


@dataclass(frozen=True)
class PipelineCertificate:
    """Machine-checkable record of one pipeline run."""

    family: tuple[FamilyMember, ...]
    n: int
    m: int
    seed: int
    g: Graph
    x: Optional[Graph]
    y: Optional[Graph]
    h: Graph
    f: Optional[GraphHom]  # Y -> X
    gmap: Optional[GraphHom]  # Y -> G
    embed_x: Optional[GraphHom]  # X -> H
    embed_g: GraphHom  # G -> H
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    chi_x: object  # int, or math.inf for looped inputs
    chi_h: object
    members: tuple[MemberReport, ...]
    verdict: str

    @property
    def skipped(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.members if not r.verified)


def _chi_json(value) -> object:
    return "inf" if value == math.inf else int(value)


def _z2_summary(triples: Sequence[tuple[bool, bool, bool]]) -> dict:
    """The certificate's ``z2`` field from the members' (free on G,
    free on H, equivariant) triples; all None when no member has one."""
    if not triples:
        return {"free_G": None, "free_H": None, "equivariant": None}
    return {
        "free_G": all(t[0] for t in triples),
        "free_H": all(t[1] for t in triples),
        "equivariant": all(t[2] for t in triples),
    }


def certificate_json_obj(cert: PipelineCertificate) -> dict:
    profiles = {}
    for r in cert.members:
        if r.verified:
            profiles[r.name] = {
                "G": r.profile_g.to_json_obj(),
                "H": r.profile_h.to_json_obj(),
            }
        else:
            profiles[r.name] = "unverified"
    return {
        "family": [
            {
                "name": member.name,
                "graph": member.graph.to_json_obj(),
                "involution": (
                    None
                    if member.involution is None
                    else list(member.involution.mapping)
                ),
            }
            for member in cert.family
        ],
        "m": cert.m,
        "n": cert.n,
        "chiX": _chi_json(cert.chi_x),
        "chiH": _chi_json(cert.chi_h),
        "seed": cert.seed,
        "profiles": profiles,
        "z2": _z2_summary([r.z2 for r in cert.members if r.z2 is not None]),
        "verdict": cert.verdict,
        "graphs": {
            "G": cert.g.to_json_obj(),
            "X": None if cert.x is None else cert.x.to_json_obj(),
            "Y": None if cert.y is None else cert.y.to_json_obj(),
            "H": cert.h.to_json_obj(),
        },
        "maps": {
            "f": None if cert.f is None else list(cert.f.mapping),
            "g": None if cert.gmap is None else list(cert.gmap.mapping),
            "embedX": (
                None if cert.embed_x is None else list(cert.embed_x.mapping)
            ),
            "embedG": list(cert.embed_g.mapping),
        },
        "parts": {"A": list(cert.a_vertices), "B": list(cert.b_vertices)},
    }


def certificate_json(cert: PipelineCertificate) -> str:
    """Canonical serialization; identical runs give identical bytes."""
    import json

    return json.dumps(
        certificate_json_obj(cert), sort_keys=True, separators=(",", ":")
    )


def _verify_member(member, g, h, embed_g, cell_cap):
    from .homology import cellular_chain_complex, homology
    from .homs import Involution, z2_structure

    kg = enumerate_cells(member.graph, g, cap=cell_cap)
    kh = enumerate_cells(member.graph, h, cap=cell_cap)
    pg = homology(cellular_chain_complex(kg))
    ph = homology(cellular_chain_complex(kh))
    z2 = None
    if member.involution is not None:
        alpha = Involution(member.graph, member.involution)
        if alpha.flipping:
            rg = z2_structure(member.graph, alpha, g, complex=kg)
            rh = z2_structure(member.graph, alpha, h, complex=kh)
            pf = pushforward(
                embed_g, member.graph, source_complex=kg, target_complex=kh
            )
            equivariant = (
                pf.compose(rg.action).images == rh.action.compose(pf).images
            )
            z2 = (rg.free, rh.free, equivariant)
    return MemberReport(member.name, pg, ph, z2, True)


def theorem51_pipeline(
    family: Sequence[FamilyMember],
    g: Graph,
    n: int,
    seed: int = 0,
    cell_cap: int = DEFAULT_CELL_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    attempts: int = 400,
) -> PipelineCertificate:
    """Build H with chi(H) > n whose Hom complexes match G's homology
    for every test graph in the family, and certify the run."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if g.n == 0 or not is_connected(g):
        raise DisconnectedGraphError("input graph must be connected")
    family = tuple(family)
    m = uniformly_small_m([member.graph for member in family])

    if g.has_loop():
        # a loop forces every chromatic bound at once, so H = G works
        ident = GraphHom.identity(g)
        members, failed, skipped = _run_members(
            family, g, g, ident, cell_cap
        )
        verdict = _verdict(failed, skipped)
        return PipelineCertificate(
            family=family,
            n=n,
            m=m,
            seed=seed,
            g=g,
            x=None,
            y=None,
            h=g,
            f=None,
            gmap=None,
            embed_x=None,
            embed_g=ident,
            a_vertices=tuple(range(g.n)),
            b_vertices=tuple(range(g.n)),
            chi_x=math.inf,
            chi_h=math.inf,
            members=members,
            verdict=verdict,
        )
    if is_bipartite(g):
        raise BipartiteInputError("loopless bipartite input has no odd cycle")

    found = find_high_girth_high_chromatic(
        n, m, seed=seed, attempts=attempts, node_budget=node_budget
    )
    x = found.graph
    length = int(odd_girth(g))
    repl = replace_edges_with_paths(x, length)
    cycle = shortest_odd_cycle(g)
    embed_cycle = GraphHom(cycle_graph(length), g, cycle)
    gmap = embed_cycle.compose(repl.wrap)
    glue = glue_cylinder(x, repl.result, g, repl.collapse, gmap, m)

    chi_x = chromatic_number(x, node_budget)
    sweep = cylinder_sweep_order(x.n, repl.result, g.n, m)
    chi_h = chromatic_number(glue.h, node_budget, order_hint=sweep)
    failed = not (chi_h >= chi_x > n)
    members, member_failed, skipped = _run_members(
        family, g, glue.h, glue.embed_g, cell_cap
    )
    verdict = _verdict(failed or member_failed, skipped)
    return PipelineCertificate(
        family=family,
        n=n,
        m=m,
        seed=seed,
        g=g,
        x=x,
        y=repl.result,
        h=glue.h,
        f=repl.collapse,
        gmap=gmap,
        embed_x=glue.embed_x,
        embed_g=glue.embed_g,
        a_vertices=glue.a_vertices,
        b_vertices=glue.b_vertices,
        chi_x=chi_x,
        chi_h=chi_h,
        members=members,
        verdict=verdict,
    )


def _run_members(family, g, h, embed_g, cell_cap):
    members = []
    failed = False
    skipped = False
    for member in family:
        try:
            report = _verify_member(member, g, h, embed_g, cell_cap)
        except ResourceLimitError:
            members.append(MemberReport(member.name, None, None, None, False))
            skipped = True
            continue
        if report.profile_g != report.profile_h:
            failed = True
        if report.z2 is not None and not all(report.z2):
            failed = True
        members.append(report)
    return tuple(members), failed, skipped


def _verdict(failed: bool, skipped: bool) -> str:
    if failed:
        return "failed"
    if skipped:
        return "partial"
    return "consistent"

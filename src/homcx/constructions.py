"""Graph surgeries and the chromatic-number-vs-Hom-homology pipeline.

The central construction: given a small family of test graphs and a
non-bipartite graph G, build H with arbitrarily large chromatic number
whose Hom complexes (per test graph) have the same homology as G's.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .builders import cycle_graph, high_girth_library
from .coloring import DEFAULT_NODE_BUDGET, chromatic_number
from .errors import (
    BipartiteInputError,
    DisconnectedGraphError,
    GraphFormatError,
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
    _hom_exists,
    _vertices,
    enumerate_cells,
    pushforward,
)


# -- path replacement and the cylinder -----------------------------------


@dataclass(frozen=True)
class PathReplacement:
    """Each edge of the base graph replaced by an odd-length path."""

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
        return PathReplacement(x, ident, None)
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

    def level(self, i: int) -> tuple[int, ...]:
        """The vertices (y, i) of cylinder level i, 1 <= i <= m - 1."""
        size = len(self.overlap_vertices) // (self.m - 1)
        return self.overlap_vertices[(i - 1) * size:i * size]


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


def find_high_girth_high_chromatic(
    n: int,
    m: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Graph:
    """A connected graph with chromatic number > n and girth >= m.

    Tries an odd cycle (n <= 2), then the curated library; every
    candidate is verified by the exact girth and coloring routines
    before being returned.
    """
    if n < 1 or m < 3:
        raise InvalidParameterError("need n >= 1 and m >= 3")
    if n <= 2:
        cyc = cycle_graph(m if m % 2 else m + 1)
        return _verified(cyc, n, m, node_budget)
    for graph in high_girth_library():
        try:
            return _verified(graph, n, m, node_budget)
        except NotFoundWithinBudgetError:
            continue
    raise NotFoundWithinBudgetError(
        f"no verified graph with chi > {n} and girth >= {m} found"
    )


def _verified(g: Graph, n: int, m: int, node_budget: int) -> Graph:
    gi = girth(g)
    if gi < m:
        raise NotFoundWithinBudgetError(f"girth {gi} < {m}")
    chi = chromatic_number(g, node_budget)
    if not chi > n:
        raise NotFoundWithinBudgetError(f"chromatic number {chi} <= {n}")
    return g


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


# -- the structural route ----------------------------------------------


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _distance(h: Graph, sources, targets):
    """Length of a shortest path in h from a vertex of ``sources`` to a
    vertex of ``targets``; inf when none exists."""
    adj = h.adjacency_masks
    goal = _mask(targets)
    seen = frontier = _mask(sources)
    d = 0
    while frontier:
        if frontier & goal:
            return d
        reach = 0
        for v in _vertices(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= reach
        d += 1
    return INFINITY


def fold_retraction(
    h: Graph, vertices: Sequence[int], target: Sequence[int]
) -> Optional[dict[int, int]]:
    """Fold h[vertices] onto h[target] greedily, or None when the folds
    stop short of it.

    A fold deletes a vertex v outside the target with N(v) contained in
    N(w) for some other remaining w (the least such w); it leaves
    Hom(T, -) homotopy equivalent for every T, and v -> w is a graph
    map onto what remains.  Returns the retraction h[vertices] ->
    h[target] that the fold sequence composes to, as a vertex dict.
    """
    adj = h.adjacency_masks
    live = _mask(vertices)
    keep = _mask(target)
    if keep & ~live:
        return None
    onto: dict[int, int] = {}  # deleted vertex -> its w, in deletion order
    while live != keep:
        before = live
        rest = live & ~keep
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            common = live ^ bit  # vertices adjacent to all of N(v)
            nbrs = adj[v] & live
            while nbrs and common:
                low = nbrs & -nbrs
                nbrs ^= low
                common &= adj[low.bit_length() - 1]
            if common:
                onto[v] = (common & -common).bit_length() - 1
                live ^= bit
        if live == before:
            return None
    retraction = {v: v for v in target}
    for v in reversed(onto):  # each w is deleted after its v, if at all
        retraction[v] = retraction[onto[v]]
    return retraction


def structural_failure(
    t: Graph, g: Graph, glue: CylinderGlue, cap: int = DEFAULT_CELL_CAP
) -> Optional[str]:
    """None when the fold and excision checks prove that ``embed_g``
    induces isomorphisms Hom(T, G) -> Hom(T, H) on homology; otherwise
    the check that failed.

    (a) Cover: every cell's support has diameter <= max(diam T, 2) in
    H, so when the vertices outside B are farther than that from those
    outside A, Hom(T, H) is the union of Hom(T, H[A]) and Hom(T, H[B]),
    meeting in Hom(T, H[A&B]).  (b) Folds take H[B] onto G, H[A] onto
    X and H[A&B] onto cylinder level 1, L.  (c) For non-bipartite T,
    Hom(T, H[A]) is empty, so Hom(T, H) = Hom(T, H[B]).  (d) For
    bipartite T, excision reduces the claim to Hom(T, H[A&B]) ->
    Hom(T, H[A]), which is an isomorphism iff r|L is, where r: H[A] ->
    X is the retraction of the folds in (b).
    """
    if t.edge_count() == 0 or not is_connected(t):
        return "T is not connected with an edge"
    h = glue.h
    a, b = glue.a_vertices, glue.b_vertices
    if _mask(a) | _mask(b) != (1 << h.n) - 1:
        return "cover"
    outside_a = sorted(set(range(h.n)) - set(a))
    outside_b = sorted(set(range(h.n)) - set(b))
    if _distance(h, outside_b, outside_a) <= max(diameter(t), 2):
        return "cover"
    x_vertices = glue.embed_x.mapping
    level = glue.level(1)
    retraction = fold_retraction(h, a, x_vertices)
    if (
        h.induced(glue.embed_g.mapping) != g
        or fold_retraction(h, b, glue.embed_g.mapping) is None
        or retraction is None
        or fold_retraction(h, sorted(set(a) & set(b)), level) is None
    ):
        return "folds"
    if not is_bipartite(t):
        if _hom_exists(t, h.induced(a)):
            return "Hom(T, H[A]) is not empty"
        return None
    from .homology import induced_map_homology

    index = {v: i for i, v in enumerate(x_vertices)}
    r_level = GraphHom(
        h.induced(level),
        h.induced(x_vertices),
        [index[retraction[v]] for v in level],
    )
    try:
        isomorphism = induced_map_homology(r_level, t, cap=cap)
    except ResourceLimitError:
        return "cap"
    return None if isomorphism else "r|L is not a homology isomorphism"


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


def duplicate_names(family: Sequence[FamilyMember]) -> list[str]:
    """The names shared by two or more members, sorted; certificate
    profiles are keyed by name, so a family needs distinct names."""
    names = [member.name for member in family]
    return sorted({name for name in names if names.count(name) > 1})


@dataclass(frozen=True)
class MemberReport:
    name: str
    profile_g: Optional[object]  # HomologyProfile, None when skipped
    profile_h: Optional[object]
    z2: Optional[tuple[bool, bool, bool]]  # (free on G, free on H, equivariant)
    verified: bool
    route: str = "direct"  # or "structural"; never written to certificates


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
    def z2(self) -> dict:
        """The certificate's ``z2`` field from the members' (free on G,
        free on H, equivariant) triples; all None when no member has one."""
        triples = [r.z2 for r in self.members if r.z2 is not None]
        if not triples:
            return {"free_G": None, "free_H": None, "equivariant": None}
        return {
            "free_G": all(t[0] for t in triples),
            "free_H": all(t[1] for t in triples),
            "equivariant": all(t[2] for t in triples),
        }


def _chi_json(value) -> object:
    return "inf" if value == math.inf else int(value)


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
        "z2": cert.z2,
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


def _verify_member(member, g, h, embed_g, cell_cap, glue=None):
    """Profiles of Hom(T, G) and Hom(T, H) and the Z_2 triple of one
    member.  On a glued H whose structural checks hold, profile(H) is
    profile(G) by ``structural_failure``, the action on Hom(T, H) is
    free because H is loopless and the involution flips an edge, and the
    pushforward along ``embed_g`` is equivariant by associativity:
    embed o (eta o alpha) = (embed o eta) o alpha.  Otherwise Hom(T, H)
    is enumerated and both are computed on it."""
    from .homology import cellular_chain_complex, homology
    from .homs import Involution, z2_structure

    structural = (
        glue is not None
        and structural_failure(member.graph, g, glue, cell_cap) is None
    )
    kg = enumerate_cells(member.graph, g, cap=cell_cap)
    pg = homology(cellular_chain_complex(kg))
    if structural:
        ph = pg
    else:
        kh = enumerate_cells(member.graph, h, cap=cell_cap)
        ph = homology(cellular_chain_complex(kh))
    z2 = None
    if member.involution is not None:
        alpha = Involution(member.graph, member.involution)
        if alpha.flipping:
            rg = z2_structure(member.graph, alpha, g, complex=kg)
            if structural:
                z2 = (rg.free, not h.has_loop(), True)
            else:
                rh = z2_structure(member.graph, alpha, h, complex=kh)
                pf = pushforward(
                    embed_g, member.graph, source_complex=kg, target_complex=kh
                )
                equivariant = (
                    pf.compose(rg.action).images == rh.action.compose(pf).images
                )
                z2 = (rg.free, rh.free, equivariant)
    route = "structural" if structural else "direct"
    return MemberReport(member.name, pg, ph, z2, True, route)


def theorem51_pipeline(
    family: Sequence[FamilyMember],
    g: Graph,
    n: int,
    seed: int = 0,
    cell_cap: int = DEFAULT_CELL_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PipelineCertificate:
    """Build H with chi(H) > n whose Hom complexes match G's homology
    for every test graph in the family, and certify the run.  The seed
    is recorded in the certificate; the construction is deterministic."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    family = tuple(family)
    duplicates = duplicate_names(family)
    if duplicates:
        raise InvalidParameterError(
            f"family member names must be distinct: {', '.join(duplicates)}"
        )
    if g.n == 0 or not is_connected(g):
        raise DisconnectedGraphError("input graph must be connected")
    m = uniformly_small_m([member.graph for member in family])
    x = y = f = gmap = None
    if not g.has_loop():
        if is_bipartite(g):
            raise BipartiteInputError("loopless bipartite input has no odd cycle")
        x = find_high_girth_high_chromatic(n, m, node_budget=node_budget)
        length = int(odd_girth(g))
        repl = replace_edges_with_paths(x, length)
        embed_cycle = GraphHom(cycle_graph(length), g, shortest_odd_cycle(g))
        y, f, gmap = repl.result, repl.collapse, embed_cycle.compose(repl.wrap)
    return certify(family, n, m, seed, g, x, y, f, gmap, cell_cap, node_budget)


def certify(
    family: Sequence[FamilyMember],
    n: int,
    m: int,
    seed: int,
    g: Graph,
    x: Optional[Graph],
    y: Optional[Graph],
    f: Optional[GraphHom],
    gmap: Optional[GraphHom],
    cell_cap: int = DEFAULT_CELL_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    skip: Sequence[str] = (),
) -> PipelineCertificate:
    """Everything a certificate claims, derived from its inputs.

    H is glued from X, Y, f: Y -> X and g: Y -> G along a cylinder of
    length m, or is G itself when G has a loop.  Then chi(X), chi(H)
    (with the sweep order), every member's report and the verdict are
    computed on that H; the members named in ``skip`` are recorded
    unverified.  The pipeline and the verifier both take their claims
    from here, so a verified claim is one about the glued H.  Raises
    InvalidParameterError when X, Y, f, g and m glue to no graph.
    """
    if g.has_loop():
        # a loop forces every chromatic bound at once, so H = G works
        glue = None
        h, embed_x, embed_g = g, None, GraphHom.identity(g)
        a = b = tuple(range(g.n))
        chi_x = chi_h = math.inf
    else:
        glue = glue_cylinder(x, y, g, f, gmap, m)
        h, embed_x, embed_g = glue.h, glue.embed_x, glue.embed_g
        a, b = glue.a_vertices, glue.b_vertices
        chi_x = chromatic_number(x, node_budget)
        sweep = cylinder_sweep_order(x.n, y, g.n, m)
        chi_h = chromatic_number(h, node_budget, order_hint=sweep)
    members, failed, skipped = _run_members(
        family, g, h, embed_g, cell_cap, glue, skip
    )
    if failed or not chi_h >= chi_x > n:
        verdict = "failed"
    else:
        verdict = "partial" if skipped else "consistent"
    return PipelineCertificate(
        family=tuple(family),
        n=n,
        m=m,
        seed=seed,
        g=g,
        x=x,
        y=y,
        h=h,
        f=f,
        gmap=gmap,
        embed_x=embed_x,
        embed_g=embed_g,
        a_vertices=a,
        b_vertices=b,
        chi_x=chi_x,
        chi_h=chi_h,
        members=members,
        verdict=verdict,
    )


def _run_members(family, g, h, embed_g, cell_cap, glue, skip=()):
    """Each member's report, and whether any failed or went unverified:
    a member in ``skip`` or over the cell cap is recorded unverified."""
    members = []
    failed = False
    skipped = False
    for member in family:
        report = None
        if member.name not in skip:
            try:
                report = _verify_member(member, g, h, embed_g, cell_cap, glue)
            except ResourceLimitError:
                pass
        if report is None:
            members.append(MemberReport(member.name, None, None, None, False))
            skipped = True
            continue
        if report.profile_g != report.profile_h:
            failed = True
        if report.z2 is not None and not all(report.z2):
            failed = True
        members.append(report)
    return tuple(members), failed, skipped

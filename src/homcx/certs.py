"""Certificate loading and independent re-verification.

The verifier trusts nothing in the file beyond the embedded graphs: chi
values, homology profiles, and the Z_2 flags are all recomputed and
compared field by field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .coloring import DEFAULT_NODE_BUDGET, chromatic_number
from .constructions import (
    FamilyMember,
    _verdict,
    _verify_member,
    _z2_summary,
    cylinder_sweep_order,
    duplicate_names,
    glue_cylinder,
    uniformly_small_m,
)
from .errors import GraphFormatError, InvalidParameterError, ResourceLimitError
from .graphs import Graph, GraphHom
from .homology import HomologyProfile
from .homs import DEFAULT_CELL_CAP


@dataclass(frozen=True)
class LoadedCertificate:
    family: tuple[FamilyMember, ...]
    n: int
    m: int
    seed: int
    chi_x: object
    chi_h: object
    g: Graph
    x: Optional[Graph]
    y: Optional[Graph]
    h: Graph
    f: Optional[GraphHom]
    gmap: Optional[GraphHom]
    embed_x: Optional[GraphHom]
    embed_g: GraphHom
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    profiles: dict  # name -> "unverified" or {"G": HomologyProfile, "H": ...}
    z2: dict
    verdict: str


def _int(value, field: str) -> int:
    if type(value) is not int:  # bool is an int subclass
        raise GraphFormatError(f"{field} must be an integer")
    return value


def _chi_from_json(value):
    if value == "inf":
        return math.inf
    if type(value) is not int:
        raise GraphFormatError("chi field must be an integer or 'inf'")
    return value


def _vertices(value, h: Graph, field: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        type(v) is int and 0 <= v < h.n for v in value
    ):
        raise GraphFormatError(f"{field} must be a list of vertices of H")
    return tuple(value)


def _profiles(value) -> dict:
    if not isinstance(value, dict):
        raise GraphFormatError("profiles must be an object")
    out = {}
    for name, claimed in value.items():
        if claimed == "unverified":
            out[name] = claimed
        elif isinstance(claimed, dict):
            out[name] = {
                side: HomologyProfile.from_json_obj(claimed[side])
                for side in ("G", "H")
            }
        else:
            raise GraphFormatError(f"profiles.{name} must be 'unverified' or an object")
    return out


def _hom(domain, codomain, value, field: str) -> Optional[GraphHom]:
    if value is None:
        return None
    if domain is None or codomain is None:
        raise GraphFormatError(f"maps.{field} given without its graphs")
    return GraphHom(domain, codomain, value)


def load_certificate(text: str) -> LoadedCertificate:
    """Parse and structurally validate a certificate; raises
    GraphFormatError on anything malformed."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise GraphFormatError("certificate must be a JSON object")
    try:
        family = [FamilyMember.from_json_obj(entry) for entry in obj["family"]]
        duplicates = duplicate_names(family)
        if duplicates:
            raise GraphFormatError(
                f"family member names must be distinct: {', '.join(duplicates)}"
            )
        graphs = obj["graphs"]
        g = Graph.from_json_obj(graphs["G"])
        x = None if graphs["X"] is None else Graph.from_json_obj(graphs["X"])
        y = None if graphs["Y"] is None else Graph.from_json_obj(graphs["Y"])
        h = Graph.from_json_obj(graphs["H"])
        maps = obj["maps"]
        parts = obj["parts"]
        return LoadedCertificate(
            family=tuple(family),
            n=_int(obj["n"], "n"),
            m=_int(obj["m"], "m"),
            seed=_int(obj["seed"], "seed"),
            chi_x=_chi_from_json(obj["chiX"]),
            chi_h=_chi_from_json(obj["chiH"]),
            g=g,
            x=x,
            y=y,
            h=h,
            f=_hom(y, x, maps["f"], "f"),
            gmap=_hom(y, g, maps["g"], "g"),
            embed_x=_hom(x, h, maps["embedX"], "embedX"),
            embed_g=GraphHom(g, h, maps["embedG"]),
            a_vertices=_vertices(parts["A"], h, "parts.A"),
            b_vertices=_vertices(parts["B"], h, "parts.B"),
            profiles=_profiles(obj["profiles"]),
            z2=obj["z2"],
            verdict=obj["verdict"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed certificate: {exc!r}") from exc


def verify_certificate(
    cert: LoadedCertificate,
    cell_cap: int = DEFAULT_CELL_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[str]:
    """Recompute every claim; returns the list of failing fields."""
    problems: list[str] = []

    if cert.m != uniformly_small_m([t.graph for t in cert.family]):
        problems.append("m")

    glue = None  # the glued graph, once it matches the certificate's
    if cert.g.has_loop():
        if cert.h != cert.g:
            problems.append("graphs.H (looped input must give H = G)")
        if cert.chi_x != math.inf or cert.chi_h != math.inf:
            problems.append("chiX/chiH (looped input)")
        whole = tuple(range(cert.g.n))
        if cert.a_vertices != whole or cert.b_vertices != whole:
            problems.append("parts")
    else:
        if cert.x is None or cert.y is None:
            problems.append("graphs.X/graphs.Y missing")
            return problems
        if cert.f is None or cert.gmap is None:
            problems.append("maps.f/maps.g missing")
            return problems
        # the structural route argues about the glued graph, so H, its
        # maps and its parts must be exactly what glue_cylinder builds
        try:
            glue = glue_cylinder(cert.x, cert.y, cert.g, cert.f, cert.gmap, cert.m)
            rebuilt = (
                glue.h,
                glue.embed_x.mapping,
                glue.embed_g.mapping,
                (glue.a_vertices, glue.b_vertices),
            )
        except InvalidParameterError:
            glue, rebuilt = None, (None,) * 4
        given = (
            cert.h,
            None if cert.embed_x is None else cert.embed_x.mapping,
            cert.embed_g.mapping,
            (cert.a_vertices, cert.b_vertices),
        )
        fields = ("graphs.H", "maps.embedX", "maps.embedG", "parts")
        for field, ours, theirs in zip(fields, rebuilt, given):
            if ours != theirs:
                problems.append(field)
                glue = None
        chi_x = chromatic_number(cert.x, node_budget)
        if chi_x != cert.chi_x:
            problems.append("chiX")
        sweep = cylinder_sweep_order(cert.x.n, cert.y, cert.g.n, cert.m)
        if sorted(sweep) == list(range(cert.h.n)):
            chi_h = chromatic_number(cert.h, node_budget, order_hint=sweep)
        else:
            chi_h = chromatic_number(cert.h, node_budget)
        if chi_h != cert.chi_h:
            problems.append("chiH")
        if not (cert.chi_h >= cert.chi_x > cert.n):
            problems.append("chiH >= chiX > n")

    z2_triples = []
    skipped = False
    for member in cert.family:
        claimed = cert.profiles.get(member.name)
        if claimed is None:
            problems.append(f"profiles.{member.name} missing")
            continue
        if claimed == "unverified":
            skipped = True
            continue
        try:
            report = _verify_member(
                member, cert.g, cert.h, cert.embed_g, cell_cap, glue
            )
        except ResourceLimitError:
            problems.append(f"profiles.{member.name} (cap exceeded)")
            continue
        for side, profile in (("G", report.profile_g), ("H", report.profile_h)):
            if claimed[side] != profile:
                problems.append(f"profiles.{member.name}.{side}")
        if report.profile_g != report.profile_h:
            problems.append(f"profiles.{member.name} (G and H differ)")
        if report.z2 is not None:
            z2_triples.append(report.z2)
            if not all(report.z2):
                problems.append(f"z2.{member.name}")

    members = {member.name for member in cert.family}
    for name in sorted(set(cert.profiles) - members):
        problems.append(f"profiles.{name} (not a family member)")

    if cert.z2 != _z2_summary(z2_triples):
        problems.append("z2")
    if not problems and cert.verdict != _verdict(False, skipped):
        problems.append("verdict")
    return problems

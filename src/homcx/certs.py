"""Certificate loading and independent re-verification.

The verifier trusts nothing in the file beyond the family, G, X, Y and
the maps f and g: m, H, its embeddings and parts, the chi values, the
homology profiles, the Z_2 flags and the verdict are all derived again,
H by ``constructions.certify``, the pipeline's own function, and
compared field by field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .coloring import DEFAULT_NODE_BUDGET
from .constructions import (
    FamilyMember,
    certify,
    duplicate_names,
    uniformly_small_m,
)
from .errors import GraphFormatError, InvalidParameterError
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
        n = _int(obj["n"], "n")
        if n < 1:  # the pipeline refuses n < 1, and chiX > n is then vacuous
            raise GraphFormatError("n must be >= 1")
        return LoadedCertificate(
            family=tuple(family),
            n=n,
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


def _compared(cert) -> tuple:
    """H, the vertex maps of its two embeddings, and its parts."""
    embed_x = None if cert.embed_x is None else cert.embed_x.mapping
    return (
        cert.h,
        embed_x,
        cert.embed_g.mapping,
        (cert.a_vertices, cert.b_vertices),
    )


def verify_certificate(
    cert: LoadedCertificate,
    cell_cap: int = DEFAULT_CELL_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[str]:
    """Derive every claim with ``certify`` from the file's G, X, Y, f
    and g and the family's m, and compare the file's fields with the
    result; returns the failing fields.  The structural route's argument
    holds only for the glued H, so the file's m, H, maps and parts are
    compared with the derived ones and nothing is computed on them."""
    problems: list[str] = []
    m = uniformly_small_m([t.graph for t in cert.family])
    if cert.m != m:
        problems.append("m")
    looped = cert.g.has_loop()
    if not looped and (cert.x is None or cert.y is None):
        return problems + ["graphs.X/graphs.Y missing"]
    if not looped and (cert.f is None or cert.gmap is None):
        return problems + ["maps.f/maps.g missing"]
    skip = [
        t.name
        for t in cert.family
        if cert.profiles.get(t.name) in (None, "unverified")
    ]
    h_field = "graphs.H (looped input must give H = G)" if looped else "graphs.H"
    fields = (h_field, "maps.embedX", "maps.embedG", "parts")
    try:
        ours = certify(
            cert.family, cert.n, m, cert.seed, cert.g, cert.x, cert.y,
            cert.f, cert.gmap, cell_cap, node_budget, skip,
        )
    except InvalidParameterError:  # X, Y, f, g and m glue to no H
        return problems + list(fields)

    for field, rebuilt, given in zip(fields, _compared(ours), _compared(cert)):
        if rebuilt != given:
            problems.append(field)
    if looped:
        if (cert.chi_x, cert.chi_h) != (ours.chi_x, ours.chi_h):
            problems.append("chiX/chiH (looped input)")
    else:
        if cert.chi_x != ours.chi_x:
            problems.append("chiX")
        if cert.chi_h != ours.chi_h:
            problems.append("chiH")
        if not (cert.chi_h >= cert.chi_x > cert.n):
            problems.append("chiH >= chiX > n")

    for report in ours.members:
        claimed = cert.profiles.get(report.name)
        if claimed is None:
            problems.append(f"profiles.{report.name} missing")
        elif claimed == "unverified":
            continue
        elif not report.verified:
            problems.append(f"profiles.{report.name} (cap exceeded)")
        else:
            for side, profile in (("G", report.profile_g), ("H", report.profile_h)):
                if claimed[side] != profile:
                    problems.append(f"profiles.{report.name}.{side}")
            if report.profile_g != report.profile_h:
                problems.append(f"profiles.{report.name} (G and H differ)")
            if report.z2 is not None and not all(report.z2):
                problems.append(f"z2.{report.name}")

    members = {member.name for member in cert.family}
    for name in sorted(set(cert.profiles) - members):
        problems.append(f"profiles.{name} (not a family member)")

    if cert.z2 != ours.z2:
        problems.append("z2")
    if not problems and cert.verdict != ours.verdict:
        problems.append("verdict")
    return problems

"""Command line interface.

Exit codes: 0 success, 2 parse error, 3 resource limit, 4 bipartite
input, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from typing import Optional

from .coloring import DEFAULT_NODE_BUDGET
from .constructions import (
    FamilyMember,
    certificate_json,
    theorem51_pipeline,
)
from .certs import load_certificate, verify_certificate
from .errors import (
    BipartiteInputError,
    GraphFormatError,
    HomcxError,
    InvalidParameterError,
    NotFoundWithinBudgetError,
    ResourceLimitError,
)
from .graphs import Graph
from .homology import cellular_chain_complex, homology
from .homs import DEFAULT_CELL_CAP, HomComplex, _DSU, enumerate_cells

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_BIPARTITE = 4
EXIT_VERIFY = 5


def _default_cap() -> int:
    env = os.environ.get("HOMCX_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidParameterError("HOMCX_CAP must be an integer")
        if cap < 0:
            raise InvalidParameterError("HOMCX_CAP must not be negative")
        return cap
    return DEFAULT_CELL_CAP


def _nonnegative_int(text: str) -> int:
    """An argparse type for caps and budgets: 0 is legal, a negative
    value is a parameter error (exit 2), not a limit hit later."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            return Graph.from_json(fh.read())
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def _load_member(path: str) -> FamilyMember:
    """A family file is either a plain graph or an object with keys
    graph / involution / name."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON: {exc}") from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return FamilyMember.from_json_obj(obj, default_name=name)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homcx-")
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _class_count(k: HomComplex) -> int:
    """The number of x-homotopy classes of maps T -> G, as components of
    the 1-skeleton of Hom(T, G): its 0-cells are the maps, and a 1-cell
    is exactly one x-homotopy move between its two facets."""
    if len(k) == 0:
        return 0
    maps = k.offsets[1]
    dsu = _DSU(maps)
    for i in k.cells_of_dim(1):
        dsu.union(*k.facets(i))
    return len({dsu.find(i) for i in range(maps)})


def cmd_hom(args) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    t = _load_graph(args.t_path)
    g = _load_graph(args.g_path)
    show_all = not (args.homology or args.cells or args.classes)
    k = enumerate_cells(t, g, cap=cap)
    if args.cells or show_all:
        if len(k) == 0:
            print("empty complex")
        else:
            counts = k.cell_counts()
            print("cells:", len(k))
            for d, c in enumerate(counts):
                print(f"  dim {d}: {c}")
    classes = None
    if args.homology or show_all:
        if len(k) == 0:
            print("homology: empty")
        else:
            profile = homology(cellular_chain_complex(k))
            print("betti:", list(profile.betti))
            print(
                "torsion:", [list(tor) for tor in profile.torsion]
            )
            # the classes are the components of the 1-skeleton, so b0
            classes = profile.betti[0]
    if args.classes or show_all:
        if classes is None:
            classes = _class_count(k)  # 0 for an empty complex
        print("x-homotopy classes:", classes)
    return EXIT_OK


def cmd_construct(args) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    family = [_load_member(p) for p in args.family]
    g = _load_graph(args.g_path)
    cert = theorem51_pipeline(
        family,
        g,
        args.n,
        seed=args.seed,
        cell_cap=cap,
        node_budget=args.node_budget,
    )
    out = args.out or "certificate.json"
    _atomic_write(out, certificate_json(cert) + "\n")
    print(f"verdict: {cert.verdict}")
    print(f"certificate written to {out}")
    if cert.verdict == "consistent":
        return EXIT_OK
    if cert.verdict == "partial":
        return EXIT_RESOURCE
    return EXIT_VERIFY


def cmd_verify(args) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    try:
        with open(args.cert_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"{args.cert_path}: {exc}") from exc
    cert = load_certificate(text)
    problems = verify_certificate(
        cert, cell_cap=cap, node_budget=args.node_budget
    )
    if problems:
        for field in problems:
            print(f"FAIL {field}")
        return EXIT_VERIFY
    print("PASS")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``homcx`` parser, built once per process on first use and
    shared by every call of ``main``, so nothing may modify it."""
    parser = argparse.ArgumentParser(
        prog="homcx",
        description="Hom complexes of graphs: homology, constructions, "
        "and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("hom", help="analyze Hom(T, G)")
    p_hom.add_argument("t_path")
    p_hom.add_argument("g_path")
    p_hom.add_argument("--homology", action="store_true")
    p_hom.add_argument("--cells", action="store_true")
    p_hom.add_argument("--classes", action="store_true")
    p_hom.add_argument("--cap", type=_nonnegative_int, default=None)
    p_hom.set_defaults(func=cmd_hom)

    p_con = sub.add_parser(
        "construct", help="run the chromatic construction pipeline"
    )
    p_con.add_argument("--family", nargs="+", required=True)
    p_con.add_argument("--g", dest="g_path", required=True)
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--cap", type=_nonnegative_int, default=None)
    p_con.add_argument(
        "--node-budget", type=_nonnegative_int, default=DEFAULT_NODE_BUDGET
    )
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="recheck a certificate")
    p_ver.add_argument("cert_path")
    p_ver.add_argument("--cap", type=_nonnegative_int, default=None)
    p_ver.add_argument(
        "--node-budget", type=_nonnegative_int, default=DEFAULT_NODE_BUDGET
    )
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BipartiteInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BIPARTITE
    except (ResourceLimitError, NotFoundWithinBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except HomcxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

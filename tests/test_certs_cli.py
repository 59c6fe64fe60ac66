"""Certificate verification and the command line interface."""

import json
import math
import os
import stat

import pytest

from homcx.builders import complete_graph, cycle_graph
from homcx.certs import load_certificate, verify_certificate
from homcx.cli import main
from homcx.constructions import (
    FamilyMember,
    certificate_json,
    theorem51_pipeline,
)
from homcx.errors import GraphFormatError
from homcx.graphs import Graph


@pytest.fixture(scope="module")
def looped_cert_text():
    fam = [FamilyMember("K2", complete_graph(2))]
    loop = Graph(3, [(0, 1), (1, 2), (1, 1)])
    return certificate_json(theorem51_pipeline(fam, loop, 2))


def test_load_round_trip(looped_cert_text):
    cert = load_certificate(looped_cert_text)
    assert cert.verdict == "consistent"
    assert cert.chi_h == math.inf
    assert cert.family[0].name == "K2"


def test_verify_clean_certificate(looped_cert_text):
    cert = load_certificate(looped_cert_text)
    assert verify_certificate(cert) == []


def test_verify_detects_tampered_chi(looped_cert_text):
    obj = json.loads(looped_cert_text)
    obj["chiH"] = 4
    problems = verify_certificate(load_certificate(json.dumps(obj)))
    assert problems


def test_verify_detects_tampered_m(looped_cert_text):
    obj = json.loads(looped_cert_text)
    obj["m"] = 12
    problems = verify_certificate(load_certificate(json.dumps(obj)))
    assert "m" in problems


def test_verify_detects_tampered_verdict(looped_cert_text):
    obj = json.loads(looped_cert_text)
    obj["verdict"] = "failed"
    problems = verify_certificate(load_certificate(json.dumps(obj)))
    assert "verdict" in problems


def test_load_rejects_malformed():
    with pytest.raises(GraphFormatError):
        load_certificate("{not json")
    with pytest.raises(GraphFormatError):
        load_certificate('{"family": []}')


def graph_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(g.to_json())
    return str(path)


def test_cli_hom_prints_profile(tmp_path, capsys):
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", t, g, "--homology"]) == 0
    out = capsys.readouterr().out
    assert "betti: [1, 1]" in out


def test_cli_hom_all_sections(tmp_path, capsys):
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", t, g]) == 0
    out = capsys.readouterr().out
    assert "cells: 20" in out
    assert "betti:" in out
    assert "x-homotopy classes: 1" in out


def test_cli_hom_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", str(bad), g]) == 2


def test_cli_hom_missing_file(tmp_path):
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", str(tmp_path / "nope.json"), g]) == 2


def test_cli_construct_bipartite_exit_code(tmp_path):
    fam = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "c6.json", cycle_graph(6))
    code = main(
        ["construct", "--family", fam, "--g", g, "--n", "2",
         "--out", str(tmp_path / "cert.json")]
    )
    assert code == 4


def test_cli_construct_and_verify_looped(tmp_path, capsys):
    fam = graph_file(tmp_path, "k2.json", complete_graph(2))
    loop = graph_file(tmp_path, "loop.json", Graph(2, [(0, 0), (0, 1)]))
    out = str(tmp_path / "cert.json")
    assert main(
        ["construct", "--family", fam, "--g", loop, "--n", "2", "--out", out]
    ) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_construct_out_follows_umask(tmp_path):
    fam = graph_file(tmp_path, "k2.json", complete_graph(2))
    loop = graph_file(tmp_path, "loop.json", Graph(2, [(0, 0), (0, 1)]))
    out = tmp_path / "cert.json"
    old = os.umask(0o022)
    try:
        argv = ["construct", "--family", fam, "--g", loop, "--n", "2"]
        assert main(argv + ["--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_cli_verify_tampered_fails(tmp_path, capsys, looped_cert_text):
    obj = json.loads(looped_cert_text)
    obj["chiX"] = 3
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 5
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_malformed_exit_code(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("{}")
    assert main(["verify", str(path)]) == 2


def test_cli_family_file_with_involution(tmp_path, capsys):
    c5 = cycle_graph(5)
    fam_obj = {
        "name": "C5",
        "graph": json.loads(c5.to_json()),
        "involution": [0, 4, 3, 2, 1],
    }
    fam = tmp_path / "c5_refl.json"
    fam.write_text(json.dumps(fam_obj))
    loop = graph_file(tmp_path, "loop.json", Graph(2, [(0, 0), (0, 1)]))
    out = str(tmp_path / "cert.json")
    # a flipping involution cannot act freely over a looped target, so
    # the run reports failure; the family file must still round-trip
    assert main(
        ["construct", "--family", str(fam), "--g", loop, "--n", "2",
         "--out", out]
    ) == 5
    cert = load_certificate((tmp_path / "cert.json").read_text())
    assert cert.family[0].involution is not None
    assert cert.verdict == "failed"


def test_cli_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMCX_CAP", "2")
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", t, g]) == 3


def test_cli_cap_env_invalid(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMCX_CAP", "lots")
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    assert main(["hom", t, t]) == 2


@pytest.mark.parametrize("involution", [[1.0, 0.0], "ab", True, [True, False], {"0": 1}])
def test_cli_construct_malformed_involution_exit_code(tmp_path, involution):
    fam = tmp_path / "k2.json"
    fam.write_text(json.dumps(
        {"name": "K2", "graph": json.loads(complete_graph(2).to_json()),
         "involution": involution}
    ))
    loop = graph_file(tmp_path, "loop.json", Graph(2, [(0, 0), (0, 1)]))
    argv = ["construct", "--family", str(fam), "--g", loop, "--n", "2",
            "--out", str(tmp_path / "cert.json")]
    assert main(argv) == 2


@pytest.mark.parametrize(
    "graph", [{"n": True, "edges": []}, {"n": 2, "edges": [[0, True]]}]
)
def test_cli_hom_rejects_bool_in_graph(tmp_path, graph):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(graph))
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", str(bad), g]) == 2


@pytest.mark.parametrize("involution", [[1.0, 0.0], "ab", True, [True, False]])
def test_cli_verify_malformed_involution_exit_code(tmp_path, looped_cert_text, involution):
    obj = json.loads(looped_cert_text)
    obj["family"][0]["involution"] = involution
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2


def test_cli_verify_rejects_nameless_member(tmp_path, looped_cert_text):
    obj = json.loads(looped_cert_text)
    del obj["family"][0]["name"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize(
    "path, value",
    [
        (("n",), True),
        (("n",), 2.9),
        (("m",), "7"),
        (("seed",), 1.7),
        (("chiH",), True),
        (("parts", "A"), [0.5]),
        (("parts", "A"), [99]),
        (("parts", "B"), "012"),
        (("profiles",), []),
        (("profiles", "K2"), "bogus"),
        (("profiles", "K2", "G"), {"betti": [True], "torsion": [[]]}),
        (("profiles", "K2", "H"), {"betti": [1], "torsion": [[2.5]]}),
        (("maps", "f"), [0]),
    ],
    ids=[
        "n-bool", "n-float", "m-string", "seed-float", "chi-bool", "parts-float",
        "parts-outside-H", "parts-string", "profiles-list", "profile-string",
        "betti-bool", "torsion-float", "map-without-graphs",
    ],
)
def test_cli_verify_rejects_malformed_field(tmp_path, looped_cert_text, path, value):
    obj = json.loads(looped_cert_text)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(obj))
    assert main(["verify", str(cert)]) == 2


def test_verify_detects_tampered_parts(tmp_path, capsys, looped_cert_text):
    obj = json.loads(looped_cert_text)
    obj["parts"] = {"A": [0], "B": [1]}
    assert "parts" in verify_certificate(load_certificate(json.dumps(obj)))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 5
    assert "FAIL parts" in capsys.readouterr().out


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("option", ["--cap", "--node-budget"])
@pytest.mark.parametrize("command", ["construct", "verify"])
def test_cli_negative_cap_or_budget_is_a_parameter_error(
    tmp_path, looped_cert_text, command, option
):
    out = tmp_path / "out.json"
    if command == "construct":
        fam = graph_file(tmp_path, "k2.json", complete_graph(2))
        loop = graph_file(tmp_path, "loop.json", Graph(2, [(0, 0), (0, 1)]))
        argv = ["construct", "--family", fam, "--g", loop, "--n", "2",
                "--out", str(out)]
    else:
        cert = tmp_path / "cert.json"
        cert.write_text(looped_cert_text)
        argv = ["verify", str(cert)]
    assert _exit_code(argv + [option, "-1"]) == 2
    assert not out.exists()


def test_cli_hom_negative_cap_is_a_parameter_error(tmp_path, capsys):
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "k3.json", complete_graph(3))
    assert _exit_code(["hom", t, g, "--cap", "-5"]) == 2
    assert "more than" not in capsys.readouterr().err
    # 0 is a legal cap that Hom(K2, K3) exceeds
    assert _exit_code(["hom", t, g, "--cap", "0"]) == 3


def test_cli_cap_env_negative_is_a_parameter_error(
    tmp_path, monkeypatch, looped_cert_text
):
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "k3.json", complete_graph(3))
    loop = graph_file(tmp_path, "loop.json", Graph(2, [(0, 0), (0, 1)]))
    cert = tmp_path / "cert.json"
    cert.write_text(looped_cert_text)
    out = tmp_path / "out.json"
    monkeypatch.setenv("HOMCX_CAP", "-1")
    assert main(["hom", t, g]) == 2
    assert main(["construct", "--family", t, "--g", loop, "--n", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["verify", str(cert)]) == 2
    monkeypatch.setenv("HOMCX_CAP", "0")
    assert main(["hom", t, g]) == 3


def test_cli_parser_keeps_no_state_between_calls(tmp_path, capsys):
    t = graph_file(tmp_path, "k2.json", complete_graph(2))
    g = graph_file(tmp_path, "c5.json", cycle_graph(5))
    assert main(["hom", t, g, "--cap", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than 1 homomorphisms" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["hom", t])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["hom", t, g]) == 0
    assert capsys.readouterr().out == (
        "cells: 20\n"
        "  dim 0: 10\n"
        "  dim 1: 10\n"
        "betti: [1, 1]\n"
        "torsion: [[], []]\n"
        "x-homotopy classes: 1\n"
    )
    assert main(["hom", t, g, "--cells"]) == 0
    assert capsys.readouterr().out == "cells: 20\n  dim 0: 10\n  dim 1: 10\n"

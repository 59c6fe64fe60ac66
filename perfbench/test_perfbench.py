"""Checks of the benchmark's own gates (run with pytest)."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    """A small consistent certificate (looped G, so H = G)."""
    from homcx.builders import complete_graph
    from homcx.constructions import FamilyMember, certificate_json, theorem51_pipeline
    from homcx.graphs import Graph

    k2 = complete_graph(2)
    g = Graph(3, [(0, 1), (1, 2), (1, 1)])
    cert = theorem51_pipeline([FamilyMember("K2", k2)], g, 2)
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    path.write_text(certificate_json(cert))
    return path


def _corrupt(src, dst, edit):
    obj = json.loads(src.read_text())
    edit(obj)
    dst.write_text(json.dumps(obj))
    return str(dst)


def test_clean_certificate_passes(cert_path):
    _, problems = run.verify_op(str(cert_path), False)
    assert problems == []


def test_changed_chi_is_reported_and_counted(cert_path, tmp_path):
    bad = _corrupt(cert_path, tmp_path / "chi.json", lambda o: o.update(chiH=4))
    res, problems = run.verify_op(bad, False)
    assert res["exit"] != 0 and "FAIL" in res["stdout"]
    assert problems  # counted as one failed operation


def test_changed_profile_is_reported_and_counted(cert_path, tmp_path):
    def edit(obj):
        obj["profiles"]["K2"]["H"]["betti"] = [2]

    bad = _corrupt(cert_path, tmp_path / "profile.json", edit)
    res, problems = run.verify_op(bad, False)
    assert "FAIL profiles.K2.H" in res["stdout"]
    assert problems
    assert "profile(G) != profile(H)" in run.certificate_problems(bad)


def test_query_check_rejects_a_wrong_answer(tmp_path):
    name, t, g = min(inputs.query_inputs(0), key=lambda q: q[2]["n"])
    paths = worker._query_files([(name, t, g)], 0, 0, str(tmp_path))[0]
    code, text = worker._cli(["hom", *paths])
    assert code == 0 and worker.check_query(t, g, text)
    wrong = text.replace("x-homotopy classes:", "x-homotopy classes: 1")
    assert not worker.check_query(t, g, wrong)


def test_kernel_parity_on_query_inputs():
    from homcx._kernels import _pure

    assert worker.compare_kernels(inputs.query_inputs(0)[::10], _pure, _pure) == 0


def test_inputs_follow_the_seed():
    for workload in ("queries", "coloring"):
        assert inputs.inputs_for(workload, 3) == inputs.inputs_for(workload, 3)
        assert inputs.inputs_for(workload, 3) != inputs.inputs_for(workload, 4)


def test_coloring_oracle_knows_mycielski_graphs():
    grotzsch = inputs.mycielskian(inputs.cycle(5))
    assert inputs.chromatic(grotzsch) == 4 and inputs.clique_number(grotzsch) == 2


def test_calibration_scales_by_reference_speed():
    sampler = calibrate.Sampler()
    ref = calibrate.REFERENCE_S
    # The machine ran at half speed until 3 s, then at full speed.
    sampler.starts = [0.5, 1.5, 2.5, 3.5, 4.5]
    sampler.durations = [2 * ref, 2 * ref, 2 * ref, ref, ref]
    assert sampler.sampled_s(0.0, 2.0) == 4 * ref
    assert sampler.calibrated(0.0, 2.0) == pytest.approx((2.0 - 4 * ref) / 2)
    assert sampler.calibrated(4.0, 4.2) == pytest.approx(0.2)
    assert worker.SAMPLER.starts == []  # importing the worker starts no timer


def test_tail_keeps_ten_samples_above():
    assert run.tail(list(range(100))) == (89, 90)
    assert run.tail(list(range(40))) == (29, 75)
    assert run.tail([1.0, 2.0]) == (2.0, 100)


def test_compare_refuses_mixed_backends(tmp_path):
    def runs(backend):
        env = {"workload": "queries", "backend": backend}
        result = {"metrics": {"op_p50_ms": {"value": 1.0, "unit": "ms"}}}
        return f"env {json.dumps(env)}\n{json.dumps(result)}\n"

    pure, compiled = tmp_path / "a.txt", tmp_path / "b.txt"
    pure.write_text(runs("pure"))
    compiled.write_text(runs("compiled"))
    assert compare.main([str(pure), str(pure)]) == 0
    assert compare.main([str(pure), str(compiled)]) == 2


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = tracing.per_layer_metrics([], 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layer.values()]
    res = {"busy_s": 1.0, "rss_mb": 1.0, "setup": [1.0]}
    e2e = run.end_to_end_metrics(res, [1.0], 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]

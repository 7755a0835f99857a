import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sphsep.cli import main
from sphsep.convexity import SphericalBody, hemisphericity_witness
from sphsep.harness import CampaignReport, _cap_body, _random_tangent, _random_unit
from sphsep.separation import wedge_membership

from .oracles import separates

S = 1.0 / np.sqrt(2.0)

DISJOINT_S2 = {
    "n": 2,
    "w1": [
        [1.0, 0.0, 0.0],
        [0.9396926207859084, 0.3420201433256687, 0.0],
        [0.9396926207859084, 0.0, 0.3420201433256687],
    ],
    "w2": [
        [-1.0, 0.0, 0.0],
        [-0.9396926207859084, 0.3420201433256687, 0.0],
    ],
}


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_disjoint(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]]})
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert json.loads(out) == {"status": "disjoint"}


def test_check_identical_singletons(tmp_path, capsys):
    g = [0.6, 0.8]
    path = write_instance(tmp_path, {"n": 1, "w1": [g], "w2": [g]})
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "intersecting"
    assert np.allclose(doc["common_point"], g, atol=1e-9)
    assert list(doc) == ["status", "common_point", "lambda", "mu"]


def test_check_non_hemispherical_is_ambiguous(tmp_path, capsys):
    path = write_instance(
        tmp_path, {"n": 1, "w1": [[1.0, 0.0], [-1.0, 0.0]], "w2": [[0.0, 1.0]]}
    )
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 3
    assert json.loads(out)["status"] == "ambiguous"


@pytest.mark.parametrize(
    "doc",
    [
        {"w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]]},  # n missing
        {"n": "two", "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]]},
        {"n": 0, "w1": [[1.0]], "w2": [[1.0]]},
        {"n": 1, "w2": [[0.0, 1.0]]},  # w1 missing
        {"n": 1, "w1": [], "w2": [[0.0, 1.0]]},
        {"n": 1, "w1": [[1.0, 0.0, 0.0]], "w2": [[0.0, 1.0]]},  # ragged row
        {"n": 1, "w1": [[1.0, "x"]], "w2": [[0.0, 1.0]]},
        {"n": 1, "w1": [[1e-9, 0.0]], "w2": [[0.0, 1.0]]},  # near-zero row
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]], "tolerances": {"bogus": 1}},
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]], "tolerances": {"margin_tol": -1}},
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]], "tolerances": [1]},
        {"n": 1, "w1": [[float("nan"), 1.0]], "w2": [[-1.0, 0.0]]},
        {"n": 1, "w1": [[float("inf"), 1.0]], "w2": [[-1.0, 0.0]]},
        {"n": 1, "w1": [[1e308, 1e308]], "w2": [[-1.0, 0.0]]},  # norm overflows
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]], "tolerances": {"max_iter": 1.5}},
    ],
)
def test_check_malformed_documents(tmp_path, capsys, doc):
    path = write_instance(tmp_path, doc)
    for args in (["check"], ["witness"], ["witness", "--method", "proof-path"]):
        code, out, err = run_cli(capsys, *args, path)
        assert code == 4, args
        assert out == ""
        assert "error:" in err


def test_check_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 4 and "JSON" in err
    code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 4 and "cannot read" in err


def test_non_unit_rows_normalized_with_note(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 1, "w1": [[2.0, 0.0]], "w2": [[0.0, 1.0]]})
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0
    assert 'normalized "w1"[0]' in err
    # exactly-unit rows stay silent
    path = write_instance(tmp_path, {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]]})
    _, _, err = run_cli(capsys, "check", path)
    assert "normalized" not in err


def test_witness_lp_output(tmp_path, capsys):
    path = write_instance(tmp_path, DISJOINT_S2)
    code, out, _ = run_cli(capsys, "witness", path)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["status", "witness", "margin"]
    w = np.array(doc["witness"])
    assert np.isclose(np.linalg.norm(w), 1.0)
    g1 = np.array(DISJOINT_S2["w1"])
    g2 = np.array(DISJOINT_S2["w2"])
    assert np.isclose(doc["margin"], separates(w, g1, g2))
    assert doc["margin"] > 1e-9


def test_witness_proof_path_output(tmp_path, capsys):
    path = write_instance(tmp_path, DISJOINT_S2)
    code, out, _ = run_cli(capsys, "witness", path, "--method", "proof-path")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["status", "witness", "margin", "trace"]
    assert list(doc["trace"]) == ["epsilon0", "offsets", "iterations"]
    offsets = doc["trace"]["offsets"]
    assert len(offsets) == doc["trace"]["iterations"] + 1
    assert all(b < a for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] < 1e-6


def test_witness_round_trip_reloads_as_wedge_member(tmp_path, capsys):
    path = write_instance(tmp_path, DISJOINT_S2)
    for method in ("lp", "proof-path"):
        _, out, _ = run_cli(capsys, "witness", path, "--method", method)
        w = np.array(json.loads(out)["witness"])
        b1 = SphericalBody(np.array(DISJOINT_S2["w1"]))
        b2 = SphericalBody(np.array(DISJOINT_S2["w2"]))
        assert wedge_membership(b1, b2, w).member


def test_witness_intersecting_both_methods(tmp_path, capsys):
    doc = {"n": 1, "w1": [[S, S]], "w2": [[S, S], [0.0, 1.0]]}
    path = write_instance(tmp_path, doc)
    for method in ("lp", "proof-path"):
        code, out, _ = run_cli(capsys, "witness", path, "--method", method)
        assert code == 2
        assert json.loads(out)["status"] == "intersecting"


def test_witness_ambiguous_band(tmp_path, capsys):
    th = 0.01
    doc = {
        "n": 1,
        "w1": [[float(np.cos(th)), float(np.sin(th))]],
        "w2": [[float(np.cos(th)), float(-np.sin(th))]],
    }
    path = write_instance(tmp_path, doc)
    code, out, _ = run_cli(capsys, "witness", path, "--tol-margin", "0.1")
    assert code == 3
    assert json.loads(out)["status"] == "ambiguous"
    # same instance at default tolerances is decidable
    code, out, _ = run_cli(capsys, "witness", path)
    assert code == 0


def test_witness_proof_path_failure_exit_code(tmp_path, capsys):
    # close caps and a single permitted fattening round: the search cannot
    # shrink epsilon far enough, which is exactly the exit-5 contract
    doc = {
        "n": 1,
        "w1": [[1.0, 0.0]],
        "w2": [[float(np.cos(0.5)), float(np.sin(0.5))]],
        "tolerances": {"max_iter": 1},
    }
    path = write_instance(tmp_path, doc)
    code, out, err = run_cli(capsys, "witness", path, "--method", "proof-path")
    assert code == 5
    assert out == ""
    assert "constructive witness route failed" in err
    # the lp method is untouched by the proof-path iteration cap
    code, _, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 0


def _orthogonal_caps_doc(n, k):
    # k+k generators on S^n around orthogonal centres, with a one-round
    # budget: every LP may take 100 pivots
    rng = np.random.default_rng(12)
    c1 = _random_unit(rng, n + 1)
    c2 = _random_tangent(rng, c1)
    return {
        "n": n,
        "w1": _cap_body(rng, c1, k, 0.4).tolist(),
        "w2": _cap_body(rng, c2, k, 0.4).tolist(),
        "tolerances": {"max_iter": 1},
    }


def test_pivot_budget_overrun_exit_codes(tmp_path, capsys):
    # on S^40 the dual pole LP, which witness --method lp solves first,
    # overruns its 100-pivot budget at pivot 112; no hemisphericity LP runs
    path = write_instance(tmp_path, _orthogonal_caps_doc(40, 80), "caps.json")
    code, out, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "ambiguous" and "pivots" in doc["reason"]
    # the constructive route's hemisphericity LPs fit too, and so does its
    # cone LP over 6400+6400 fattened generators; the row-generated solves
    # of its first hull separation overrun their shared budget at pivot 101.
    # The run must stay small: a dense variable map of the cone LP or a
    # dense tableau of the 12 803-row hull separation would take gigabytes.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "witness", path, "--method", "proof-path")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 5
    assert out == ""
    assert "constructive witness route failed" in err and "pivots" in err
    assert peak < 200e6


def test_band_edge_hemisphericity_is_ambiguous(tmp_path, capsys):
    # two generators 0.9e-9 rad off the equator of (1,1)/sqrt2, against the
    # antipodal generator: the unit-scale margin 0.9e-9 is inside the 1e-9
    # band, so every route reports ambiguous
    th = 0.9e-9
    p, e = np.array([S, S]), np.array([S, -S])
    w1 = [np.cos(th) * e + np.sin(th) * p, -np.cos(th) * e + np.sin(th) * p]
    doc = {"n": 1, "w1": [g.tolist() for g in w1], "w2": [(-p).tolist()]}
    path = write_instance(tmp_path, doc)
    for args in (("check",), ("witness",), ("witness", "--method", "proof-path")):
        code, out, _ = run_cli(capsys, args[0], path, *args[1:])
        assert code == 3, args
        assert json.loads(out)["status"] == "ambiguous", args


def test_flag_overrides_file_tolerances(tmp_path, capsys):
    doc = dict(DISJOINT_S2)
    doc["tolerances"] = {"offset_tol": 1e-2}
    path = write_instance(tmp_path, doc)
    _, out, _ = run_cli(capsys, "witness", path, "--method", "proof-path")
    assert json.loads(out)["trace"]["offsets"][-1] < 1e-2
    _, out, _ = run_cli(
        capsys, "witness", path, "--method", "proof-path", "--tol-offset", "1e-8"
    )
    assert json.loads(out)["trace"]["offsets"][-1] < 1e-8


def test_fuzz_count_zero(capsys):
    code, out, err = run_cli(capsys, "fuzz", "--count", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == 0
    assert "wall time" in err


def test_fuzz_report_bytes_reproducible(capsys):
    args = ("fuzz", "--count", "12", "--dims", "1,2", "--sizes", "1..3", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["config"]["sizes"] == [1, 2, 3]  # range syntax expanded
    assert doc["instances"] == 12


def test_fuzz_disagreement_exit_code(capsys, monkeypatch):
    # disagreements cannot be produced honestly here, so stub the campaign
    # to exercise the exit-code mapping alone
    report = CampaignReport(count=1, dims=[1], sizes=[1], seed=0)
    report.instances = 1
    report.disagreements = 1
    monkeypatch.setattr(
        "sphsep.cli.run_equivalence_campaign", lambda *a, **k: report
    )
    code, out, _ = run_cli(capsys, "fuzz", "--count", "1")
    assert code == 1
    assert json.loads(out)["disagreements"] == 1


def test_fuzz_deep_check_failure_exit_code(capsys, monkeypatch):
    # a deep-check failure is no disagreement, yet it must not exit 0: here
    # every openness probe of a real campaign is made to hit margin -1
    monkeypatch.setattr("sphsep.harness.wedge_openness_probe", lambda *a, **k: -1.0)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "8", "--dims", "2", "--seed", "1")
    doc = json.loads(out)
    assert doc["disagreements"] == 0 and doc["disjoint"] > 0
    assert doc["failures"] and all("openness probe" in f for f in doc["failures"])
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("--dims", "x"),
        ("--dims", ""),
        ("--dims", "0"),
        ("--sizes", "3..1"),
        ("--sizes", "-2"),
    ],
)
def test_fuzz_rejects_bad_lists(capsys, flags):
    code, _, err = run_cli(capsys, "fuzz", "--count", "1", *flags)
    assert code == 4
    assert "error:" in err


def test_plot_scene_structure(tmp_path, capsys):
    path = write_instance(tmp_path, DISJOINT_S2)
    out_path = tmp_path / "scene.json"
    code, _, _ = run_cli(capsys, "plot", path, "-o", str(out_path))
    assert code == 0
    scene = json.loads(out_path.read_text())
    assert list(scene) == ["bodies", "witness", "boundary"]
    gens = sum(len(b["generators"]) for b in scene["bodies"])
    arcs = sum(len(b["arcs"]) for b in scene["bodies"])
    # triangle hull gives 3 arcs, two-point body gives 1
    assert [len(b["arcs"]) for b in scene["bodies"]] == [3, 1]
    assert all(
        len(arc) == 32 for b in scene["bodies"] for arc in b["arcs"]
    )
    # documented scene size: generators + 32 per arc + witness + 128 boundary
    total = gens + 32 * arcs + 1 + len(scene["boundary"])
    assert total == 5 + 32 * 4 + 1 + 128
    w = np.array(scene["witness"])
    boundary = np.array(scene["boundary"])
    assert boundary.shape == (128, 3)
    assert np.max(np.abs(boundary @ w)) < 1e-9
    assert np.allclose(np.linalg.norm(boundary, axis=1), 1.0)


def test_plot_solves_each_hemisphericity_lp_once(tmp_path, capsys, monkeypatch):
    # the two witnesses found for projecting the bodies are handed on to the
    # dual pole LP instead of being solved for again
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return hemisphericity_witness(*args, **kwargs)

    for module in ("sphsep.convexity", "sphsep.separation", "sphsep.cli"):
        monkeypatch.setattr(f"{module}.hemisphericity_witness", spy)
    doc = {"n": 2, "w1": DISJOINT_S2["w1"][:2], "w2": DISJOINT_S2["w2"][:1]}
    path = write_instance(tmp_path, doc)
    code, _, _ = run_cli(capsys, "plot", path, "-o", str(tmp_path / "scene.json"))
    assert code == 0
    assert len(calls) == 2


def test_disjoint_witness_lp_solves_one_lp(tmp_path, capsys, solve_sites):
    # the pole LP alone certifies a disjoint pair: 1 solve, where solving
    # both hemisphericity LPs before it made 3
    path = write_instance(tmp_path, DISJOINT_S2)
    code, out, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 0 and json.loads(out)["status"] == "disjoint"
    assert len(solve_sites) == 1
    # check stays the cone oracle: two hemisphericity LPs and the cone LP
    solve_sites.clear()
    code, _, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert len(solve_sites) == 3


def test_intersecting_witness_lp_solves_four_lps(tmp_path, capsys, solve_sites):
    # pole LP, then both hemisphericity LPs and the cone LP
    path = write_instance(tmp_path, {"n": 1, "w1": [[0.6, 0.8]], "w2": [[0.6, 0.8]]})
    code, _, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 2
    assert len(solve_sites) == 4


@st.composite
def _near_touching_docs(draw):
    """Small bodies on S^1..S^3 whose closest generators, Q0 and R0, sit
    gap rad on either side of a great sphere along one tangent direction,
    with gap a few multiples of the default margin_tol (negative: they
    cross), and a search and pivot budget of 1, 2 or 5 rounds."""
    n = draw(st.integers(1, 3))
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gap = draw(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0])) * 1e-9
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = _random_unit(rng, n + 1)
    t0 = _random_tangent(rng, e)
    bodies = []
    for side, k in ((1.0, k1), (-1.0, k2)):
        rows = [side * np.sin(gap) * e + np.cos(gap) * t0]
        for _ in range(k - 1):
            h = rng.uniform(0.0, 0.5)
            rows.append(side * np.sin(h) * e + np.cos(h) * _random_tangent(rng, e))
        bodies.append(np.array(rows).tolist())
    max_iter = draw(st.sampled_from([1, 2, 5]))
    return {"n": n, "w1": bodies[0], "w2": bodies[1], "tolerances": {"max_iter": max_iter}}


@settings(max_examples=40, deadline=None)
@given(_near_touching_docs())
def test_near_touching_queries_end_in_documented_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for args in (["check"], ["witness", "--method", "lp"],
                     ["witness", "--method", "proof-path"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([args[0], path, *args[1:]])
            assert code in (0, 2, 3, 4, 5), (args, code)
            assert "Traceback" not in err.getvalue(), args
            if code in (0, 2, 3):
                json.loads(out.getvalue())  # one JSON document on stdout


def test_plot_arc_endpoints_are_generators(tmp_path, capsys):
    path = write_instance(tmp_path, DISJOINT_S2)
    out_path = tmp_path / "scene.json"
    run_cli(capsys, "plot", path, "-o", str(out_path))
    scene = json.loads(out_path.read_text())
    for body in scene["bodies"]:
        gens = np.array(body["generators"])
        for arc in body["arcs"]:
            for endpoint in (np.array(arc[0]), np.array(arc[-1])):
                dists = np.linalg.norm(gens - endpoint, axis=1)
                assert dists.min() < 1e-9


def test_plot_singletons(tmp_path, capsys):
    doc = {"n": 2, "w1": [[0.0, 0.0, 1.0]], "w2": [[0.0, 0.0, -1.0]]}
    path = write_instance(tmp_path, doc)
    out_path = tmp_path / "scene.json"
    code, _, _ = run_cli(capsys, "plot", path, "-o", str(out_path))
    assert code == 0
    scene = json.loads(out_path.read_text())
    assert [len(b["generators"]) for b in scene["bodies"]] == [1, 1]
    assert [len(b["arcs"]) for b in scene["bodies"]] == [0, 0]
    assert len(scene["boundary"]) == 128


def test_plot_intersecting_scene_has_no_witness(tmp_path, capsys):
    doc = {"n": 2, "w1": [[0.0, 0.0, 1.0]], "w2": [[0.0, 0.0, 1.0]]}
    path = write_instance(tmp_path, doc)
    out_path = tmp_path / "scene.json"
    code, _, _ = run_cli(capsys, "plot", path, "-o", str(out_path))
    assert code == 0
    scene = json.loads(out_path.read_text())
    assert "witness" not in scene and "boundary" not in scene


def test_plot_rejects_other_dimensions(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]]})
    code, _, err = run_cli(capsys, "plot", path, "-o", str(tmp_path / "s.json"))
    assert code == 4
    assert "S^2" in err


def test_plot_unwritable_output(tmp_path, capsys):
    path = write_instance(tmp_path, DISJOINT_S2)
    code, _, err = run_cli(capsys, "plot", path, "-o", str(tmp_path / "nodir" / "s.json"))
    assert code == 4
    assert "cannot write" in err


def test_usage_errors_exit_4(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["witness", "x.json", "--method", "newton"])
    assert exc.value.code == 4


def test_module_entry_point(tmp_path):
    path = write_instance(tmp_path, {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]]})
    proc = subprocess.run(
        [sys.executable, "-m", "sphsep", "check", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"status": "disjoint"}

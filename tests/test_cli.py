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

import sphsep.separation
from sphsep.cli import _load_instance, _slerp, main
from sphsep.convexity import SphericalBody, hemisphericity_witness
from sphsep.errors import (
    ContractionStalled,
    EpsilonSearchFailed,
    GenerationFailed,
    IterationLimit,
    NotHemispherical,
    NumericallyAmbiguous,
)
from sphsep.harness import (
    CampaignReport,
    InstanceSpec,
    Mode,
    _cap_body,
    _random_tangent,
    _random_unit,
    generate,
)
from sphsep.lp import solve
from sphsep.separation import SeparationCertificate, wedge_membership

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
        # the unit-vector and simplex tolerances are fixed, not fields
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]], "tolerances": {"unit_tol": 2}},
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]], "tolerances": {"lp_tol": 1e-12}},
        # a tolerance is a finite number, not a boolean
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]], "tolerances": {"margin_tol": float("inf")}},
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]], "tolerances": {"offset_tol": float("inf")}},
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]], "tolerances": {"margin_tol": True}},
        {"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]], "tolerances": {"max_iter": True}},
        # instance numbers are JSON numbers
        {"n": True, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]]},
        {"n": 1, "w1": [["1.0", 0.0]], "w2": [[-1.0, 0.0]]},
        {"n": 1, "w1": [[True, 0.0]], "w2": [[-1.0, 0.0]]},
        {"n": 1, "w1": [[10**400, 0]], "w2": [[-1.0, 0.0]]},  # int beyond float range
        [1, 2],  # no JSON object
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
    # a UTF-16 byte-order mark is no UTF-8 text
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(capsys, "check", str(utf16))
    assert code == 4 and str(utf16) in err and "UTF-8" in err
    # nesting past the parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, "check", str(deep))
    assert code == 4 and str(deep) in err and "too deeply" in err


def test_non_unit_rows_normalized_with_note(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 1, "w1": [[2.0, 0.0]], "w2": [[0.0, 1.0]]})
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0
    assert 'normalized "w1"[0]' in err
    # exactly-unit rows stay silent
    path = write_instance(tmp_path, {"n": 1, "w1": [[1.0, 0.0]], "w2": [[0.0, 1.0]]})
    _, _, err = run_cli(capsys, "check", path)
    assert "normalized" not in err
    # SphericalBody's 1e-9 decides: a row 5e-10 off unit is read as it is,
    # one 2e-9 off is normalized
    path = write_instance(
        tmp_path, {"n": 1, "w1": [[1.0 + 5e-10, 0.0]], "w2": [[0.0, 1.0 + 2e-9]]}
    )
    b1, b2, _ = _load_instance(path, None)
    assert b1.generators.tolist() == [[1.0 + 5e-10, 0.0]]
    assert b2.generators.tolist() == [[0.0, 1.0]]
    assert capsys.readouterr().err == 'note: normalized "w2"[0] (norm was 1.000000002)\n'


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


def test_proof_path_stall_below_offset_tol_names_the_wedge_margin(tmp_path, capsys):
    # two points 1.1 rad apart at margin_tol 0.5: the pole LP finds a pole of
    # margin 0.52, but the proof path's normal converges to one of margin
    # 0.447 while its offset falls below offset_tol, so contracting further
    # cannot make it a wedge member; the error says so, and the exit stays 5
    doc = {
        "n": 1,
        "w1": [[1.0, 0.0]],
        "w2": [[float(np.cos(1.1)), float(np.sin(1.1))]],
        "tolerances": {"margin_tol": 0.5},
    }
    path = write_instance(tmp_path, doc)
    code, out, err = run_cli(capsys, "witness", path, "--method", "proof-path")
    assert code == 5
    assert out == ""
    assert "stalled at" in err
    assert (
        "(below offset_tol 1.0e-06; the normal's wedge margin 4.472e-01 "
        "is not above margin_tol 5.0e-01)"
    ) in err
    code, out, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 0 and json.loads(out)["margin"] > 0.5


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


def test_witness_lp_on_s120_leaves_the_opening_degenerate_run_to_dantzig(
    tmp_path, capsys, monkeypatch
):
    # a clearly disjoint pair (dual margin about 0.5) on S^120.  Its dual pole
    # LP (243 rows) opens with a degenerate run of 121 pivots; when Bland's
    # rule took over after 50 of them, the query ran past 20 000 pivots and
    # exited 3.  Handed over only after max(50, rows), it takes 269.
    b1, b2 = generate(InstanceSpec(120, 120, 120, seed=11, mode=Mode.FORCE_DISJOINT))
    doc = {"n": 120, "w1": b1.generators.tolist(), "w2": b2.generators.tolist()}
    path = write_instance(tmp_path, doc)
    pivots = []

    def counted(lp, max_pivots):
        out = solve(lp, max_pivots)
        pivots.append(out.pivots)
        return out

    monkeypatch.setattr(sphsep.separation, "solve", counted)
    code, out, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "disjoint"
    assert wedge_membership(b1, b2, np.array(cert["witness"])).member
    assert len(pivots) == 1 and pivots[0] <= 400


def test_pivot_budget_overrun_exit_codes(tmp_path, capsys):
    # on S^40 the dual pole LP, which witness --method lp solves first, has
    # 83 rows in its polar form and fits its 100-pivot budget (the box form,
    # one row per generator, overran it at pivot 112); no hemisphericity LP
    # runs, and the pole separates the bodies by direct dots
    doc = _orthogonal_caps_doc(40, 80)
    path = write_instance(tmp_path, doc, "caps.json")
    code, out, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "disjoint"
    margin = separates(np.array(cert["witness"]), np.array(doc["w1"]), np.array(doc["w2"]))
    assert margin > 0.0 and margin == pytest.approx(cert["margin"], abs=1e-12)
    # the constructive route's poles are the caps' generator sums, with no
    # LP, and its cone LP over 6400+6400 fattened generators fits; the
    # row-generated solves of its first hull separation overrun their shared
    # budget at pivot 101.
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


def _orthogonal_caps_s5():
    # the benchmark's first fault probe (perfbench/inputs.py probe_a): 40+40
    # generators on S^5 in caps of spread 0.4 around orthogonal centres,
    # with a one-round budget (pivot cap 100)
    rng = np.random.default_rng(12)

    def tangent(c):
        v = rng.standard_normal(c.size)
        v -= (v @ c) * c
        return v / np.linalg.norm(v)

    def cap(c, k):
        rows = []
        for _ in range(k):
            theta = rng.uniform(0.0, 0.4)
            rows.append(np.cos(theta) * c + np.sin(theta) * tangent(c))
        return np.array(rows)

    c1 = rng.standard_normal(6)
    c1 /= np.linalg.norm(c1)
    c2 = tangent(c1)
    w1, w2 = cap(c1, 40), cap(c2, 40)
    return {"n": 5, "w1": w1.tolist(), "w2": w2.tolist(), "tolerances": {"max_iter": 1}}


def test_benchmark_fault_probes_keep_their_exit_codes(tmp_path, capsys):
    # check, witness --method lp and witness --method proof-path: the
    # orthogonal caps answer disjoint twice and overrun the proof path's
    # budget; the band-edge instance above is ambiguous on every route
    path = write_instance(tmp_path, _orthogonal_caps_s5())
    codes = [run_cli(capsys, args[0], path, *args[1:])[0]
             for args in (("check",), ("witness", "--method", "lp"),
                          ("witness", "--method", "proof-path"))]
    assert codes == [0, 0, 5]


# an S^1 pair at dual margin 1.47e-5, drawn like the near-contact pairs of
# test_separation.py (S^1, target 1e-5, third pair); the proof path once
# stalled on it with "contracted hull separation LP found no positive slack"
NEAR_CONTACT_S1 = {
    "n": 1,
    "w1": [
        [0.9611303442642835, -0.2760950222920001],
        [0.9952296317845807, -0.09756013539314107],
        [0.9999901213510315, 0.0044449072374170675],
        [0.9999914461569728, 0.0041361350178849956],
        [0.999359483395871, 0.03578579252633319],
        [0.9945780027276667, 0.10399325213803715],
    ],
    "w2": [
        [0.9141641485461179, 0.4053441864797759],
        [0.994574937662537, 0.104022561848671],
        [0.9445593937304783, 0.3283406032087894],
        [0.9737422067389526, 0.22765349726098036],
        [0.9255724894576528, 0.3785704250983737],
        [0.9757249324230304, 0.21899967179900712],
    ],
}


def test_near_contact_pair_exits_0_on_every_route(tmp_path, capsys):
    path = write_instance(tmp_path, NEAR_CONTACT_S1)
    b1 = SphericalBody(np.array(NEAR_CONTACT_S1["w1"]))
    b2 = SphericalBody(np.array(NEAR_CONTACT_S1["w2"]))
    for args in (("check",), ("witness",), ("witness", "--method", "proof-path")):
        code, out, err = run_cli(capsys, args[0], path, *args[1:])
        assert code == 0, (args, err)
        doc = json.loads(out)
        assert doc["status"] == "disjoint", args
        if "witness" in doc:
            assert wedge_membership(b1, b2, np.array(doc["witness"])).member, args


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


def _recording_generate(monkeypatch, wrap=None):
    """Specs of every generate call the campaign makes, in order; wrap, if
    given, replaces generate's result."""
    specs = []

    def recording(spec, *args, **kwargs):
        specs.append(spec)
        bodies = generate(spec, *args, **kwargs)
        return wrap(spec, bodies) if wrap else bodies

    monkeypatch.setattr("sphsep.harness.generate", recording)
    return specs


def _tag(spec):
    return (
        f"seed={spec.seed} n={spec.dimension} k=({spec.k1},{spec.k2}) "
        f"mode={spec.mode.value}"
    )


def test_fuzz_generation_failure_is_a_tagged_disagreement(capsys, monkeypatch):
    # an instance that cannot be generated counts as a disagreement, with
    # its seed in the failure line, and the campaign goes on to the rest
    def third_fails(spec, bodies):
        if len(specs) == 3:
            raise GenerationFailed("injected")
        return bodies

    specs = _recording_generate(monkeypatch, third_fails)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "8", "--dims", "2", "--seed", "1")
    doc = json.loads(out)
    assert code == 1 and len(specs) == 8
    assert doc["instances"] == 8 and doc["disagreements"] == 1
    assert doc["agreements"] + doc["ambiguous"] == 7
    assert doc["failures"] == [f"{_tag(specs[2])}: generation failed: injected"]


def test_fuzz_primal_dual_disagreement_is_tagged(capsys, monkeypatch):
    # a dual verdict that contradicts the cone LP counts as a disagreement,
    # with the instance's seed and both verdicts in the failure line, and
    # the instance gets no deep checks
    import sphsep.harness

    dual_witness = sphsep.harness.dual_witness
    verdicts = []

    def third_flipped(b1, b2, *args, **kwargs):
        cert = dual_witness(b1, b2, *args, **kwargs)
        verdicts.append(cert.kind)
        if len(verdicts) == 3:
            flipped = "intersecting" if cert.kind == "disjoint" else "disjoint"
            return SeparationCertificate(kind=flipped)
        return cert

    specs = _recording_generate(monkeypatch)
    monkeypatch.setattr(sphsep.harness, "dual_witness", third_flipped)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "8", "--dims", "2", "--seed", "1")
    doc = json.loads(out)
    flipped = "intersecting" if verdicts[2] == "disjoint" else "disjoint"
    assert code == 1 and len(specs) == len(verdicts) == 8
    assert doc["instances"] == 8 and doc["disagreements"] == 1
    assert doc["agreements"] == 7 and doc["ambiguous"] == 0
    assert doc["disjoint"] + doc["intersecting"] == 7
    assert doc["disjoint"] == doc["checks"]["proof_path"]
    assert doc["failures"] == [
        f"{_tag(specs[2])}: primal says {verdicts[2]}, dual says {flipped}"
    ]


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
    "argv, target, error, code, where",
    [
        (("check",), "primal_intersect", NotHemispherical, 3, "document"),
        (("check",), "primal_intersect", IterationLimit, 3, "document"),
        (("witness", "--method", "lp"), "dual_witness", NumericallyAmbiguous, 3, "document"),
        (("witness", "--method", "lp"), "dual_witness", IterationLimit, 3, "document"),
        (("witness", "--method", "proof-path"), "primal_intersect", IterationLimit, 3, "document"),
        (("witness", "--method", "proof-path"), "proof_path_witness", EpsilonSearchFailed, 5, "route"),
        (("witness", "--method", "proof-path"), "proof_path_witness", ContractionStalled, 5, "route"),
        (("witness", "--method", "proof-path"), "proof_path_witness", IterationLimit, 5, "route"),
        (("plot",), "hemisphericity_witness", NotHemispherical, 3, "stderr"),
        (("plot",), "dual_witness", IterationLimit, 3, "stderr"),
    ],
)
def test_exit_code_policy(tmp_path, capsys, monkeypatch, argv, target, error, code, where):
    # each error a route function can raise ends in one exit code and one
    # stream: queries write the ambiguous document, a failed constructive
    # route and plot write to stderr only
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(f"sphsep.cli.{target}", fail)
    path = write_instance(tmp_path, DISJOINT_S2)
    scene = tmp_path / "scene.json"
    extra = ("-o", str(scene)) if argv[0] == "plot" else ()
    got, out, err = run_cli(capsys, argv[0], path, *argv[1:], *extra)
    assert got == code
    if where == "document":
        assert json.loads(out) == {"status": "ambiguous", "reason": "injected"}
        assert err == ""
    elif where == "route":
        assert out == ""
        assert err == "error: constructive witness route failed: injected\n"
    else:
        assert out == "" and err == "error: injected\n"
        assert not scene.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--dims", "x"),
        ("--dims", ""),
        ("--dims", "0"),
        ("--sizes", "3..1"),
        ("--sizes", "-2"),
        ("--count", "-1"),
        ("--seed", "-1"),
        ("--dims", "1..x"),
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
    # each body's witness is solved for once, to project it; the dual pole
    # LP of a disjoint pair needs no hemisphericity LP
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
    # check: both generator sums are poles, so no hemisphericity LP runs,
    # and the normalized difference of the two is a wedge member, which
    # certifies disjointness before the cone LP
    solve_sites.clear()
    code, _, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert solve_sites == []


def test_intersecting_witness_lp_solves_one_lp(tmp_path, capsys, solve_sites):
    # the pole LP's duals are the intersecting certificate, and each body's
    # generator is its own pole: no hemisphericity LP and no cone LP, where
    # the cone route made 4 solves
    path = write_instance(tmp_path, {"n": 1, "w1": [[0.6, 0.8]], "w2": [[0.6, 0.8]]})
    code, out, _ = run_cli(capsys, "witness", path, "--method", "lp")
    assert code == 2
    assert solve_sites == ["dual_witness"]
    doc = json.loads(out)
    assert doc["lambda"] == doc["mu"] == [0.5]
    assert np.allclose(doc["common_point"], [0.6, 0.8])
    # the proof-path route settles an intersecting pair by the cone LP
    # alone, with the same normalization, where it made 3 solves (both
    # hemisphericity LPs, then the cone LP)
    solve_sites.clear()
    code, out, _ = run_cli(capsys, "witness", path, "--method", "proof-path")
    assert code == 2
    assert solve_sites == ["primal_intersect"]
    assert json.loads(out)["lambda"] == json.loads(out)["mu"] == [0.5]


def test_non_hemispherical_body_2_exits_3(tmp_path, capsys):
    # the bodies share (1, 0, 0), so the pole LP's duals certify a common
    # point, but body 2 holds an antipodal pair: both routes check it and
    # answer ambiguous
    doc = {"n": 2, "w1": [[1, 0, 0], [0, 1, 0]], "w2": [[1, 0, 0], [-1, 0, 0], [0, 0, 1]]}
    path = write_instance(tmp_path, doc)
    for argv in (["check"], ["witness", "--method", "lp"]):
        code, out, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 3, argv
        assert json.loads(out)["status"] == "ambiguous"


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


def test_plot_collinear_body_has_one_arc(tmp_path, capsys):
    # three generators on the great circle z = 0, the middle one listed
    # first: the hull of their projections is a segment, so the scene has
    # one arc, from the generator at angle 0 to the one at angle 0.6
    angles = [0.3, 0.0, 0.6]
    w1 = [[np.cos(a), np.sin(a), 0.0] for a in angles]
    doc = {"n": 2, "w1": w1, "w2": [[0.0, 0.0, -1.0]]}
    path = write_instance(tmp_path, doc)
    out_path = tmp_path / "scene.json"
    code, _, _ = run_cli(capsys, "plot", path, "-o", str(out_path))
    assert code == 0
    arcs = json.loads(out_path.read_text())["bodies"][0]["arcs"]
    assert len(arcs) == 1
    assert {tuple(arcs[0][0]), tuple(arcs[0][-1])} == {tuple(w1[1]), tuple(w1[2])}


def test_slerp_samples_both_branches():
    # u to itself takes the near-zero-angle branch: count copies of u, where
    # the sine formula would divide by sin(0)
    u = np.array([0.36, 0.48, 0.8])
    same = np.array(_slerp(u, u, 32))
    assert same.shape == (32, 3)
    assert np.abs(same - u).max() <= 1e-15
    arc = np.array(_slerp(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 32))
    assert arc.shape == (32, 3)
    assert np.abs(np.linalg.norm(arc, axis=1) - 1.0).max() <= 1e-15
    assert np.abs(arc[0] - [1.0, 0.0, 0.0]).max() <= 1e-15
    assert np.abs(arc[-1] - [0.0, 1.0, 0.0]).max() <= 1e-15


def test_plot_intersecting_scene_has_no_witness(tmp_path, capsys):
    doc = {"n": 2, "w1": [[0.0, 0.0, 1.0]], "w2": [[0.0, 0.0, 1.0]]}
    path = write_instance(tmp_path, doc)
    out_path = tmp_path / "scene.json"
    code, _, _ = run_cli(capsys, "plot", path, "-o", str(out_path))
    assert code == 0
    scene = json.loads(out_path.read_text())
    assert "witness" not in scene and "boundary" not in scene


def test_plot_ambiguous_pair_scene_has_no_witness(tmp_path, capsys):
    # a pair inside a widened margin band has no honest verdict: the scene
    # is written with the bodies alone
    th = 0.01
    doc = {
        "n": 2,
        "w1": [[float(np.cos(th)), float(np.sin(th)), 0.0]],
        "w2": [[float(np.cos(th)), float(-np.sin(th)), 0.0]],
    }
    path = write_instance(tmp_path, doc)
    out_path = tmp_path / "scene.json"
    code, _, err = run_cli(capsys, "plot", path, "-o", str(out_path), "--tol-margin", "0.1")
    assert code == 0 and err == ""
    assert list(json.loads(out_path.read_text())) == ["bodies"]


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

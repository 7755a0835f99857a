"""Acceptance gate: one test per release criterion.

Criteria 1-5 all read the single 1000-instance equivalence campaign fixture
(run through the real CLI), whose stdout a further test pins by sha256;
criteria 2 and 4 also judge every dual and proof-path certificate of that
campaign in exact arithmetic, from one in-process rerun whose report must
match.  6-8 exercise the geometry kernel, the simplex solver against a
brute-force oracle, and CLI byte-stability against the stored golden
corpus.  Each test records exactly one PASS/FAIL line,
echoed in the terminal summary.
"""

import hashlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from sphsep.cli import main as cli_main
from sphsep.convexity import SphericalBody
from sphsep.geometry import (
    central_project,
    central_unproject,
    normalize,
    orthonormal_frame,
)
from sphsep.lp import GE, LE, LpStatus
from sphsep.separation import _fatten, wedge_membership

from .conftest import GOLDEN_DIR
from .oracles import (
    BoxProgram,
    certificate_holds,
    hull_member_oracle,
    lp_feasible,
    lp_oracle,
    solve_box,
)


def run_cli_captured(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(args)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_equivalence_campaign(acceptance, equivalence_campaign):
    report = equivalence_campaign["report"]
    wall = equivalence_campaign["wall_s"]
    ambiguous_frac = report["ambiguous"] / report["instances"]
    ok = (
        report["instances"] == 1000
        and report["disagreements"] == 0
        and equivalence_campaign["exit"] == 0
        and ambiguous_frac < 0.05
        and wall < 60.0
    )
    acceptance(
        1,
        "primal/dual equivalence",
        ok,
        f"1000 instances, {report['disagreements']} disagreements, "
        f"ambiguous {ambiguous_frac:.1%}, {wall:.1f}s",
    )


def test_criterion_2_witness_soundness(acceptance, equivalence_campaign, campaign_certificates):
    report = equivalence_campaign["report"]
    kinds = Counter(cert.kind for cert, _, _ in campaign_certificates)
    held = Counter(
        cert.kind for cert, g1, g2 in campaign_certificates if certificate_holds(cert, g1, g2)
    )
    ok = (
        report["disjoint"] >= 200
        and kinds == {"disjoint": report["disjoint"], "intersecting": report["intersecting"]}
        and held == kinds
    )
    acceptance(
        2,
        "certificate soundness, exact over the generators",
        ok,
        f"{held['disjoint']}/{report['disjoint']} disjoint poles with positive exact "
        f"margin, {held['intersecting']}/{report['intersecting']} intersecting "
        f"combinations exact within 1e-12",
    )


def _rotated_past_margin(cert, g1, g2):
    """cert with its witness P turned, in the plane of P and the generator
    row s that sets its margin m = P . s (rows of body 2 negated), by twice
    the angle asin(m) between s and P's great sphere: s ends at P . s = -m."""
    signed = np.vstack([g1, -g2])
    s = signed[(signed @ cert.witness).argmin()]
    m = float(s @ cert.witness)
    away = normalize(s - m * cert.witness)
    angle = 2.0 * np.arcsin(m)
    return replace(cert, witness=np.cos(angle) * cert.witness - np.sin(angle) * away)


def _negative_lam(cert):
    lam = cert.lam.copy()
    lam[lam.argmax()] *= -1.0
    return replace(cert, lam=lam)


def _mutants(cert, g1, g2):
    """Broken forms of cert over (g1, g2), by name, each as (certificate,
    body-1 generators, body-2 generators).  An intersecting certificate is
    read against the swapped bodies only where a float residual shows that
    wrong: it can hold for the swapped pair too (a generator planted in
    both bodies, with lam = mu)."""
    if cert.kind == "disjoint":
        return {
            "negated witness": (replace(cert, witness=-cert.witness), g1, g2),
            "witness rotated past its margin": (_rotated_past_margin(cert, g1, g2), g1, g2),
            "swapped bodies": (cert, g2, g1),
        }
    mutants = {"negative lam": (_negative_lam(cert), g1, g2)}
    if cert.lam.size != g2.shape[0] or np.abs(cert.lam @ g2 - cert.mu @ g1).max() > 1e-9:
        mutants["swapped bodies"] = (cert, g2, g1)
    return mutants


def test_certificate_check_refuses_mutations(campaign_certificates):
    # criterion 2's check must refuse every broken certificate
    tried, refused = Counter(), Counter()
    for cert, g1, g2 in campaign_certificates:
        for name, (mutant, h1, h2) in _mutants(cert, g1, g2).items():
            tried[name] += 1
            refused[name] += not certificate_holds(mutant, h1, h2)
    kinds = Counter(cert.kind for cert, _, _ in campaign_certificates)
    assert tried["negated witness"] == tried["witness rotated past its margin"] == kinds["disjoint"]
    assert tried["negative lam"] == kinds["intersecting"]
    assert tried["swapped bodies"] > kinds["disjoint"]
    assert refused == tried


def test_criterion_3_wedge_convexity(acceptance, equivalence_campaign):
    report = equivalence_campaign["report"]
    passed = report["checks"]["wedge_convexity_grid"]
    grid_failures = [f for f in report["failures"] if "convexity" in f]
    ok = passed >= 200 and passed == report["disjoint"] and not grid_failures
    acceptance(
        3,
        "wedge spherical convexity",
        ok,
        f"{passed} instances x 11-point mixing grid between two independent "
        f"members, {len(grid_failures)} failures",
    )


def _proof_path_holds(cert, trace, g1, g2):
    """The proof path's certificate holds exactly (certificate_holds) and
    its trace is what the route promises: offsets strictly decreasing to
    below 1e-6, one contraction round per offset after the first."""
    offs = trace.offsets
    return (
        certificate_holds(cert, g1, g2)
        and all(later < earlier for earlier, later in zip(offs, offs[1:]))
        and offs[-1] < 1e-6
        and trace.iterations == len(offs) - 1
    )


def test_criterion_4_proof_path_fidelity(acceptance, equivalence_campaign, campaign_proof_paths):
    report = equivalence_campaign["report"]
    passed = report["checks"]["proof_path"]
    pp_failures = [f for f in report["failures"] if "proof" in f]
    held = sum(_proof_path_holds(*run) for run in campaign_proof_paths)
    ok = (
        passed >= 200
        and passed == report["disjoint"] == len(campaign_proof_paths) == held
        and not pp_failures
    )
    acceptance(
        4,
        "constructive route fidelity",
        ok,
        f"{held}/{report['disjoint']} proof-path witnesses with positive exact "
        f"margin and traces strictly decreasing to < 1e-6, "
        f"{len(pp_failures)} failures",
    )


def test_criterion_5_openness_probe(acceptance, equivalence_campaign):
    report = equivalence_campaign["report"]
    passed = report["checks"]["openness_probe"]
    probe_failures = [f for f in report["failures"] if "probe" in f]
    ok = passed >= 100 and passed == report["disjoint"] and not probe_failures
    acceptance(
        5,
        "wedge openness probes",
        ok,
        f"{passed} instances x 50 perturbations at half-margin radius, "
        f"{len(probe_failures)} failures",
    )


# sha256 of the acceptance campaign's stdout: the report of all 1000
# instances, byte for byte.  Any change to a verdict, a check count or a
# printed digit changes it.
_CAMPAIGN_SHA256 = "c41caf531b17274fb5c58819c3e092ff58fca2e40a413a683dac71e30e3b7a4d"


def test_equivalence_campaign_bytes_pinned(equivalence_campaign):
    stdout = equivalence_campaign["stdout"].encode()
    assert hashlib.sha256(stdout).hexdigest() == _CAMPAIGN_SHA256


def test_criterion_6_geometry_kernel(acceptance):
    rng = np.random.default_rng(2024)
    # projection round trip over random open-hemisphere points, each frame's
    # points as one row matrix through the matrix forms
    worst = 0.0
    samples = 0
    while samples < 1000:
        d = int(rng.integers(2, 7))
        base = normalize(rng.standard_normal(d))
        frame = orthonormal_frame(base)
        q = rng.standard_normal((10, d))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q = q[q @ base > 0.05][: 1000 - samples]  # equator blows up the projection
        if not q.size:
            continue
        back = central_unproject(frame, central_project(frame, q))
        worst = max(worst, float(np.linalg.norm(back - q, axis=1).max()))
        samples += q.shape[0]
    round_trip_ok = worst < 1e-12

    # fattening pushes original vertices strictly inside
    eps = 0.1
    interior_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        rng.standard_normal(n + 1)  # unused draw: x stays the sample the gate was set on
        x = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 6)), n))
        fat = _fatten(x, eps)
        for v in x:
            for k in range(n):
                for sign in (1.0, -1.0):
                    probe = v.copy()
                    probe[k] += sign * 0.9 * eps
                    if not hull_member_oracle(fat, probe, tol=1e-8):
                        interior_ok = False
    ok = round_trip_ok and interior_ok
    acceptance(
        6,
        "geometry kernel",
        ok,
        f"round-trip worst error {worst:.2e} over 1000 points; "
        f"interior margins {'positive' if interior_ok else 'VIOLATED'} "
        f"for eps=0.1 over 100 polytopes",
    )


def test_criterion_7_lp_against_oracle(acceptance):
    rng = np.random.default_rng(7777)
    checked = 0
    worst_gap = 0.0
    deterministic = True
    agree = True
    while checked < 50:
        nv = int(rng.integers(1, 7))
        nc = int(rng.integers(1, 7))
        A = rng.standard_normal((nc, nv))
        b = rng.standard_normal(nc)
        rels = [int(r) for r in rng.choice([LE, GE], size=nc)]
        lp = BoxProgram(
            objective=rng.standard_normal(nv),
            constraints=A,
            relations=rels,
            rhs=b,
            lower=np.full(nv, -3.0),
            upper=np.full(nv, 3.0),
        )
        status, best = lp_oracle(lp)
        out = solve_box(lp)
        again = solve_box(lp)
        if not (
            out.status is again.status
            and (out.solution is None or np.array_equal(out.solution, again.solution))
        ):
            deterministic = False
        if status == "infeasible":
            if out.status is not LpStatus.INFEASIBLE:
                agree = False
            continue  # only optimal instances count toward the 50
        if out.status is not LpStatus.OPTIMAL or not lp_feasible(lp, out.solution):
            agree = False
            break
        worst_gap = max(worst_gap, abs(out.objective_value - best))
        checked += 1
    ok = agree and deterministic and worst_gap < 1e-8
    acceptance(
        7,
        "simplex vs vertex enumeration",
        ok,
        f"50 bounded programs, worst optimum gap {worst_gap:.2e}, "
        f"deterministic reruns: {deterministic}",
    )


def test_criterion_8_cli_byte_stability(acceptance):
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    command_argv = {
        "check": ["check"],
        "witness-lp": ["witness", "--method", "lp"],
        "witness-pp": ["witness", "--method", "proof-path"],
    }
    mismatches = []
    compared = 0
    for entry in manifest["core"]:
        inst = GOLDEN_DIR / "instances" / f"{entry['name']}.json"
        for label, want in entry["commands"].items():
            proc = subprocess.run(
                [sys.executable, "-m", "sphsep", *command_argv[label], str(inst)],
                capture_output=True,
            )
            stored = (GOLDEN_DIR / "expected" / want["expected"]).read_bytes()
            if proc.stdout != stored or proc.returncode != want["exit"]:
                mismatches.append(f"{entry['name']}:{label}")
            compared += 1

    # exit-code table: one live probe per documented code
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        disjoint = tmp / "d.json"
        disjoint.write_text(json.dumps({"n": 1, "w1": [[1.0, 0.0]], "w2": [[-1.0, 0.0]]}))
        touching = tmp / "t.json"
        touching.write_text(
            json.dumps(
                {
                    "n": 1,
                    "w1": [[float(np.cos(0.01)), float(np.sin(0.01))]],
                    "w2": [[float(np.cos(0.01)), float(-np.sin(0.01))]],
                }
            )
        )
        close = tmp / "c.json"
        close.write_text(
            json.dumps(
                {
                    "n": 1,
                    "w1": [[1.0, 0.0]],
                    "w2": [[float(np.cos(0.5)), float(np.sin(0.5))]],
                    "tolerances": {"max_iter": 1},
                }
            )
        )
        intersecting = tmp / "i.json"
        intersecting.write_text(
            json.dumps({"n": 1, "w1": [[1.0, 0.0]], "w2": [[1.0, 0.0]]})
        )
        malformed = tmp / "m.json"
        malformed.write_text("{")
        table = [
            (["check", str(disjoint)], 0),
            (["check", str(intersecting)], 2),
            (["witness", str(touching), "--tol-margin", "0.1"], 3),
            (["check", str(malformed)], 4),
            (["plot", str(disjoint), "-o", str(tmp / "s.json")], 4),  # n != 2
            (["witness", str(close), "--method", "proof-path"], 5),
        ]
        exit_ok = True
        for argv, want_code in table:
            code, _, _ = run_cli_captured(argv)
            if code != want_code:
                exit_ok = False
                mismatches.append(f"exit[{' '.join(argv[:1])}]={code}!={want_code}")

    ok = not mismatches and compared == 30 and exit_ok
    acceptance(
        8,
        "CLI byte stability",
        ok,
        f"{compared} golden outputs byte-identical across runs; "
        f"exit-code table verified ({len(mismatches)} mismatches"
        + (f": {', '.join(mismatches)})" if mismatches else ")"),
    )


def test_witness_cross_check_on_golden_corpus():
    """Both witness methods succeed and land in the wedge on all 50 stored
    instances (the disjoint ones; intersecting cores must agree instead)."""
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    entries = manifest["core"] + manifest["extra"]
    assert len(entries) == 50
    for entry in entries:
        inst = GOLDEN_DIR / "instances" / f"{entry['name']}.json"
        doc = json.loads(inst.read_text())
        b1 = SphericalBody(np.array(doc["w1"]))
        b2 = SphericalBody(np.array(doc["w2"]))
        expect_disjoint = entry["mode"] != "force-intersecting"
        for method in ("lp", "proof-path"):
            code, out, _ = run_cli_captured(
                ["witness", str(inst), "--method", method]
            )
            result = json.loads(out)
            if expect_disjoint:
                assert code == 0, f"{entry['name']} {method}"
                w = np.array(result["witness"])
                assert wedge_membership(b1, b2, w).member
            else:
                assert code == 2 and result["status"] == "intersecting"

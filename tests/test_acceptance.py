"""Acceptance gate: one test per release criterion.

Criteria 1-5 all read the single 1000-instance equivalence campaign fixture
(run through the real CLI); 6-8 exercise the geometry kernel, the simplex
solver against a brute-force oracle, and CLI byte-stability against the
stored golden corpus.  Each test records exactly one PASS/FAIL line,
echoed in the terminal summary.
"""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from sphsep.cli import main as cli_main
from sphsep.convexity import SphericalBody, TangentPolytope, fatten
from sphsep.geometry import (
    central_project,
    central_unproject,
    normalize,
    orthonormal_frame,
)
from sphsep.lp import GE, LE, LinearProgram, LpStatus, solve
from sphsep.separation import wedge_membership

from .conftest import GOLDEN_DIR
from .oracles import hull_member_oracle, lp_feasible, lp_oracle


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


def test_criterion_2_witness_soundness(acceptance, equivalence_campaign):
    report = equivalence_campaign["report"]
    sound = report["checks"]["witness_soundness"]
    soundness_failures = [f for f in report["failures"] if "soundness" in f]
    ok = (
        report["disjoint"] >= 200
        and sound == report["disjoint"]
        and not soundness_failures
    )
    acceptance(
        2,
        "witness soundness by direct dots",
        ok,
        f"{sound}/{report['disjoint']} disjoint certificates verified, "
        f"margin > 1e-9, {len(soundness_failures)} failures",
    )


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


def test_criterion_4_proof_path_fidelity(acceptance, equivalence_campaign):
    report = equivalence_campaign["report"]
    passed = report["checks"]["proof_path"]
    pp_failures = [f for f in report["failures"] if "proof" in f]
    ok = passed >= 200 and passed == report["disjoint"] and not pp_failures
    acceptance(
        4,
        "constructive route fidelity",
        ok,
        f"{passed} traces strictly decreasing to < 1e-6, final witness in "
        f"the wedge, {len(pp_failures)} failures",
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


def test_criterion_6_geometry_kernel(acceptance):
    rng = np.random.default_rng(2024)
    # projection round trip over random open-hemisphere points
    worst = 0.0
    samples = 0
    while samples < 1000:
        d = int(rng.integers(2, 7))
        base = normalize(rng.standard_normal(d))
        frame = orthonormal_frame(base)
        q = normalize(rng.standard_normal(d))
        if base @ q <= 0.05:  # equator blows up the projection; stay inside
            continue
        back = central_unproject(frame, central_project(frame, q))
        worst = max(worst, float(np.linalg.norm(back - q)))
        samples += 1
    round_trip_ok = worst < 1e-12

    # fattening pushes original vertices strictly inside
    eps = 0.1
    interior_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        base = normalize(rng.standard_normal(n + 1))
        poly = TangentPolytope(
            frame=orthonormal_frame(base),
            vertices=rng.uniform(-1.0, 1.0, (int(rng.integers(1, 6)), n)),
        )
        fat = fatten(poly, eps)
        for v in poly.vertices:
            for k in range(n):
                for sign in (1.0, -1.0):
                    probe = v.copy()
                    probe[k] += sign * 0.9 * eps
                    if not hull_member_oracle(fat.vertices, probe, tol=1e-8):
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
        rels = [str(r) for r in rng.choice([LE, GE], size=nc)]
        lp = LinearProgram(
            objective=rng.standard_normal(nv),
            constraints=A,
            relations=rels,
            rhs=b,
            lower=np.full(nv, -3.0),
            upper=np.full(nv, 3.0),
        )
        status, best = lp_oracle(lp)
        out = solve(lp)
        again = solve(lp)
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
        f"exit-code table verified ({len(mismatches)} mismatches)",
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

"""Checks of the program's outputs that do not trust the program.

Verdicts are compared with the HiGHS labels made in ``inputs``; disjoint
certificates are checked by direct dot products, intersecting ones by
nonnegative weights and a residual, proof-path traces by their offsets, and
campaign reports by their invariants.  Every function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import EXPECTED_FAULTS

RESIDUAL = 1e-7  # |u/|u| - v/|v||, with u = sum lam Q and v = sum mu R
WEIGHT_TOL = 1e-9  # lam, mu >= -WEIGHT_TOL
UNIT_TOL = 1e-9
OFFSET_TOL = 1e-6  # the program's default offset_tol; no input overrides it
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}


def disjoint_certificate(pair: dict, witness, margin=None) -> list[str]:
    p = np.asarray(witness, dtype=float)
    w1, w2 = np.asarray(pair["w1"]), np.asarray(pair["w2"])
    w1 = w1 / np.linalg.norm(w1, axis=1, keepdims=True)
    w2 = w2 / np.linalg.norm(w2, axis=1, keepdims=True)
    if p.shape != (w1.shape[1],) or abs(np.linalg.norm(p) - 1.0) > UNIT_TOL:
        return ["witness is not a unit vector of the right size"]
    on1, on2 = float(np.min(w1 @ p)), float(np.max(w2 @ p))
    problems = []
    if not on1 > 0.0:
        problems.append(f"witness has P.Q = {on1:.3e} <= 0 on body 1")
    if not on2 < 0.0:
        problems.append(f"witness has P.R = {on2:.3e} >= 0 on body 2")
    if margin is not None and abs(float(margin) - min(on1, -on2)) > 1e-12:
        problems.append(f"reported margin {margin} differs from the dots {min(on1, -on2)}")
    return problems


def intersecting_certificate(pair: dict, lam, mu, common_point=None) -> list[str]:
    w1, w2 = np.asarray(pair["w1"]), np.asarray(pair["w2"])
    w1 = w1 / np.linalg.norm(w1, axis=1, keepdims=True)
    w2 = w2 / np.linalg.norm(w2, axis=1, keepdims=True)
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    if lam.shape != (len(w1),) or mu.shape != (len(w2),):
        return ["weights do not match the generator counts"]
    if lam.min() < -WEIGHT_TOL or mu.min() < -WEIGHT_TOL:
        return [f"negative weight (min lambda {lam.min():.3e}, min mu {mu.min():.3e})"]
    u, v = w1.T @ lam, w2.T @ mu
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= 1e-12 or nv <= 1e-12:
        return ["a combination is zero"]
    res = float(np.linalg.norm(u / nu - v / nv))
    if res > RESIDUAL:
        return [f"sum lam Q and sum mu R are not parallel (residual {res:.3e})"]
    if common_point is not None and np.linalg.norm(np.asarray(common_point) - u / nu) > RESIDUAL:
        return ["common point is not the normalized combination"]
    return []


def proof_trace(trace: dict) -> list[str]:
    offs = trace["offsets"]
    if not all(b < a for a, b in zip(offs, offs[1:])):
        return ["proof-path offsets do not decrease strictly"]
    if not offs[-1] < OFFSET_TOL:
        return [f"final offset {offs[-1]:.3e} not below {OFFSET_TOL}"]
    if trace["iterations"] != len(offs) - 1 or not trace["epsilon0"] > 0.0:
        return ["proof-path trace is inconsistent"]
    return []


def campaign_report(chunk: dict, rep: dict) -> list[str]:
    problems = []
    if rep["instances"] != chunk["count"]:
        problems.append("instance count differs from the request")
    if rep["instances"] != rep["agreements"] + rep["ambiguous"] + rep["disagreements"]:
        problems.append("instances != agreements + ambiguous + disagreements")
    if rep["disagreements"] != 0:
        problems.append(f"{rep['disagreements']} disagreements")
    if rep["agreements"] != rep["disjoint"] + rep["intersecting"]:
        problems.append("agreements != disjoint + intersecting")
    if any(v != rep["disjoint"] for v in rep["checks"].values()):
        problems.append(f"deep checks {rep['checks']} != disjoint {rep['disjoint']}")
    if rep["failures"]:
        problems.append(f"failures: {rep['failures'][:2]}")
    return problems


def oracle_output(query: str, pair: dict, out: dict) -> list[str]:
    kind = out["kind"]
    expected = "disjoint" if pair["disjoint"] else "intersecting"
    if kind != expected:
        return [f"{query} says {kind}, HiGHS says {expected}"]
    if kind == "intersecting":
        return intersecting_certificate(pair, out["lam"], out["mu"], out["common_point"])
    if query == "check":
        return []
    problems = disjoint_certificate(pair, out["witness"], out["margin"])
    if not out["member"]:
        problems.append("wedge_membership rejects the witness")
    return problems


def cli_output(query: str, name: str, inst: dict, out: dict) -> list[str]:
    """Only called for queries that ended with a documented exit code and no
    traceback."""
    code = out["exit"]
    if code not in (0, 2):
        if name in ("probe_a", "probe_b"):
            return []  # a documented refusal is a pass for a fault probe
        return [f"exit {code} on a clear-margin input"]
    try:
        doc = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return ["stdout is not one JSON document"]
    expected = "disjoint" if inst["disjoint"] else "intersecting"
    if doc.get("status") != expected or code != (0 if expected == "disjoint" else 2):
        return [f"{query} says {doc.get('status')} (exit {code}), expected {expected}"]
    if expected == "intersecting":
        return intersecting_certificate(inst, doc["lambda"], doc["mu"], doc["common_point"])
    if query == "check":
        return []
    problems = disjoint_certificate(inst, doc["witness"], doc["margin"])
    if query == "witness_pp":
        problems += proof_trace(doc["trace"])
    return problems


def cli_failed(out: dict) -> bool:
    return out["exit"] not in DOCUMENTED_EXITS or "Traceback" in out["stderr"]


def check_run(workload: str, data: dict, rounds: list[list]) -> tuple[list[str], int]:
    """Problems found in every round's outputs, and the number of failed ops."""
    problems: list[str] = []
    failed = 0
    for outs in rounds:
        if workload == "campaign":
            for i, (chunk, rep) in enumerate(zip(data["chunks"], outs)):
                if "error" in rep:  # no input of this workload may fail
                    failed += 1
                    problems.append(f"campaign chunk {i} raised {rep['error']}")
                else:
                    problems += campaign_report(chunk, rep)
        elif workload == "oracles":
            for (query, i), out in zip(data["queries"], outs):
                if "error" in out:  # no input of this workload may fail
                    failed += 1
                    problems.append(f"{query} {i} raised {out['error']}")
                else:
                    problems += oracle_output(query, data["pairs"][i], out)
        else:
            for (query, name), out in zip(data["queries"], outs):
                if cli_failed(out):
                    failed += 1
                    if (query, name) not in EXPECTED_FAULTS:
                        problems.append(f"{query} {name} failed: {out['stderr'][-200:]}")
                else:
                    problems += cli_output(query, name, data["instances"][name], out)
    return problems, failed


def self_test(workload: str, data: dict, outs: list) -> list[str]:
    """Feed the checker mutated copies of real outputs; each must be refused."""
    refused = []
    if workload == "campaign":
        for chunk, out in zip(data["chunks"], outs):
            if "error" not in out:
                refused.append(bool(campaign_report(chunk, dict(out, disagreements=1))))
                checks = {k: v + 1 for k, v in out["checks"].items()}
                refused.append(bool(campaign_report(chunk, dict(out, checks=checks))))
                break
    elif workload == "oracles":
        for (query, i), out in zip(data["queries"], outs):
            pair = data["pairs"][i]
            if out.get("kind") == "disjoint" and query == "witness_lp":
                flipped = dict(out, witness=[-x for x in out["witness"]], margin=-out["margin"])
                refused.append(bool(oracle_output(query, pair, flipped)))
                break
        for (query, i), out in zip(data["queries"], outs):
            if out.get("kind") == "intersecting":
                bad = dict(out, lam=[-x for x in out["lam"]])
                refused.append(bool(oracle_output(query, data["pairs"][i], bad)))
                break
    else:
        for (query, name), out in zip(data["queries"], outs):
            inst = data["instances"][name]
            if query == "witness_pp" and out["exit"] == 0 and not cli_failed(out):
                doc = json.loads(out["stdout"])
                doc["witness"] = [-x for x in doc["witness"]]
                refused.append(bool(cli_output(query, name, inst, dict(out, stdout=json.dumps(doc)))))
                doc = json.loads(out["stdout"])
                doc["trace"]["offsets"] = doc["trace"]["offsets"][::-1]
                refused.append(bool(cli_output(query, name, inst, dict(out, stdout=json.dumps(doc)))))
                break
    if len(refused) < 2 or not all(refused):
        return [f"self-test: the checker accepted a mutated {workload} output"]
    return []

import importlib.util
import json
import subprocess
import sys

import numpy as np
import pytest

import sphsep.convexity
import sphsep.harness
import sphsep.separation
from sphsep.cli import _load_instance
from sphsep.convexity import SphericalBody
from sphsep.errors import GenerationFailed
from sphsep.geometry import ToleranceConfig, normalize
from sphsep.harness import (
    CampaignReport,
    InstanceSpec,
    Mode,
    _grid_break,
    generate,
    run_equivalence_campaign,
)
from sphsep.lp import LpStatus, solve
from sphsep.separation import primal_intersect, proof_path_witness, wedge_membership

from .conftest import GOLDEN_DIR
from .oracles import lp_residual


def test_instance_spec_validation():
    InstanceSpec(dimension=1, k1=1, k2=1, seed=0)  # minimal valid
    with pytest.raises(GenerationFailed):
        InstanceSpec(dimension=0, k1=1, k2=1, seed=0)
    with pytest.raises(GenerationFailed):
        InstanceSpec(dimension=2, k1=0, k2=1, seed=0)
    # a non-integral size or a negative seed fails here, not as a numpy
    # error inside generate
    for bad in (
        dict(dimension=1.5, k1=2, k2=2),
        dict(dimension=2, k1=2.5, k2=2),
        dict(dimension=2, k1=2, k2=2.0),
        dict(dimension=2, k1=2, k2=2, seed=-1),
    ):
        with pytest.raises(GenerationFailed):
            InstanceSpec(**bad)


def test_generate_deterministic():
    spec = InstanceSpec(dimension=3, k1=4, k2=2, seed=99)
    a1, a2 = generate(spec)
    b1, b2 = generate(spec)
    assert np.array_equal(a1.generators, b1.generators)
    assert np.array_equal(a2.generators, b2.generators)


def test_generate_shapes_and_units():
    spec = InstanceSpec(dimension=2, k1=5, k2=3, seed=7)
    b1, b2 = generate(spec)
    assert b1.generators.shape[1] == 3
    assert b1.generators.shape[0] <= 5 and b2.generators.shape[0] <= 3  # dedupe may shrink
    assert np.allclose(np.linalg.norm(b1.generators, axis=1), 1.0)


def test_generate_force_intersecting_plants_common_point():
    for seed in range(10):
        spec = InstanceSpec(dimension=2, k1=3, k2=3, seed=seed, mode=Mode.FORCE_INTERSECTING)
        b1, b2 = generate(spec)
        assert primal_intersect(b1, b2) is not None


def test_generate_force_disjoint_is_provably_disjoint():
    for seed in range(50):
        spec = InstanceSpec(dimension=1 + seed % 3, k1=4, k2=4, seed=seed, mode=Mode.FORCE_DISJOINT)
        b1, b2 = generate(spec)
        assert primal_intersect(b1, b2) is None


def test_campaign_empty():
    report = run_equivalence_campaign(0, [1, 2], [1, 2], seed=0)
    assert report.instances == 0
    assert report.agreements == 0
    assert report.disagreements == 0
    assert report.failures == []


def test_campaign_accounting_invariant():
    report = run_equivalence_campaign(60, [1, 2, 3], [1, 2, 3, 4], seed=5)
    assert report.instances == 60
    assert report.instances == report.agreements + report.ambiguous + report.disagreements
    assert report.disjoint + report.intersecting == report.agreements
    assert report.disagreements == 0
    assert report.failures == []
    # every disjoint instance went through all four deep checks
    for name in ("witness_soundness", "proof_path", "wedge_convexity_grid", "openness_probe"):
        assert report.checks[name] == report.disjoint


def test_campaign_survives_pivot_budget_overrun():
    # on S^40 with 80 generators a body's LPs need more than the 100 pivots
    # of one round
    report = run_equivalence_campaign(4, [40], [80], 42, ToleranceConfig(max_iter=1))
    assert report.instances == 4
    assert report.instances == report.agreements + report.ambiguous + report.disagreements
    overruns = [f for f in report.failures if "pivot budget exceeded" in f]
    assert overruns and all(f.startswith("seed=") for f in overruns)


@pytest.mark.parametrize(
    "dims, sizes, seed",
    [([2, 3, 1, 5], [3], 1716369485740536756), ([2, 1, 2, 5], [5], 1851009398305482809)],
)
def test_campaign_proof_path_reproductions_have_no_failures(dims, sizes, seed):
    # the proof path once stalled ("offset magnitude stalled") on a
    # force-disjoint S^3 instance of the first campaign and found "no
    # positive slack" on a force-disjoint S^1 instance of the second
    report = run_equivalence_campaign(4, dims, sizes, seed)
    assert report.failures == []
    assert report.disagreements == 0
    assert all(v == report.disjoint for v in report.checks.values())


@pytest.mark.parametrize(
    "count, dims, sizes",
    [(200, [5], list(range(1, 13))), (20, [8], list(range(12, 25)))],
)
def test_campaign_optimal_outcomes_are_feasible(monkeypatch, count, dims, sizes):
    # every OPTIMAL outcome of every LP in the campaign, the row-generated
    # hull separations included, must satisfy the rows and bounds it was given;
    # the S^5 campaign also holds the proof-path stall of
    # seed=2951566633356712885
    residuals = []

    def spy(lp, *args, **kwargs):
        out = solve(lp, *args, **kwargs)
        if out.status is LpStatus.OPTIMAL:
            residuals.append((lp_residual(lp, out.solution), len(lp.constraints)))
        return out

    monkeypatch.setattr(sphsep.separation, "solve", spy)
    monkeypatch.setattr(sphsep.convexity, "solve", spy)
    report = run_equivalence_campaign(count, dims, sizes, 3)
    assert report.failures == []
    bad = sorted(r for r in residuals if r[0] > 1e-9)
    assert residuals
    assert not bad, f"{len(bad)} of {len(residuals)} (residual, rows): {bad[-3:]}"


def test_campaign_solves_each_cone_lp_once(monkeypatch):
    # generation already solved the cone LP of a force-disjoint instance
    # (that is how it knows the draw is disjoint); the campaign reuses it
    # and asks the cone oracle only about the other modes' instances
    import sphsep.harness

    asked = []

    def spy(b1, b2, *args, **kwargs):
        asked.append((b1, b2))
        return primal_intersect(b1, b2, *args, **kwargs)

    monkeypatch.setattr(sphsep.harness, "primal_intersect", spy)
    report = run_equivalence_campaign(16, [1, 2], [3], seed=5)
    assert report.agreements == 16
    pairs = [(id(b1), id(b2)) for b1, b2 in asked]
    assert len(pairs) == len(set(pairs))


def test_generated_instances_read_back_bit_identical(tmp_path, capsys):
    # the CLI reads a row as it is when SphericalBody would accept it (its
    # norm formula, within 1e-9 of unit norm): every body generate returns
    # has passed that test, so it loads with the same bits and no note.
    # Seed 168's w2[3] is 2.8e-12 and the campaign body's w2[0] 1.08e-12
    # off unit, which a 1e-12 rule normalized
    specs = [
        InstanceSpec(1 + seed % 5, 6, 6, seed=seed, mode=Mode.FORCE_DISJOINT)
        for seed in range(50)
    ]
    specs.append(InstanceSpec(1, 6, 6, seed=168, mode=Mode.FORCE_DISJOINT))
    specs.append(InstanceSpec(1, 2, 7, seed=2609162362840982020))
    for spec in specs:
        g1, g2 = generate(spec)
        path = tmp_path / f"inst_{spec.seed}.json"
        path.write_text(json.dumps({"n": g1.n, "w1": g1.generators.tolist(),
                                    "w2": g2.generators.tolist()}))
        b1, b2, _ = _load_instance(str(path), None)
        assert np.array_equal(b1.generators, g1.generators), spec
        assert np.array_equal(b2.generators, g2.generators), spec
    assert "normalized" not in capsys.readouterr().err


def test_campaign_proof_path_is_the_clis(tmp_path, monkeypatch):
    # the deep check's proof path must be the one `witness --method
    # proof-path` runs: on a force-disjoint instance of the campaign, written
    # out as an instance file, the witness, margin and trace the campaign's
    # deep check built on the generated bodies, printed as the CLI prints
    # them, are the CLI's stdout byte for byte
    import sphsep.harness

    drawn = []
    runs = []
    checks = sphsep.harness._deep_checks

    def recording(*args, **kwargs):
        runs.append(proof_path_witness(*args, **kwargs))
        return runs[-1]

    def keep_force_disjoint(report, tag, b1, b2, *args):
        before = len(runs)
        checks(report, tag, b1, b2, *args)
        if "force-disjoint" in tag and len(runs) == before + 1:
            drawn.append((b1, b2, runs[-1]))

    monkeypatch.setattr(sphsep.harness, "_deep_checks", keep_force_disjoint)
    monkeypatch.setattr(sphsep.harness, "proof_path_witness", recording)
    report = run_equivalence_campaign(12, [1, 2, 3], [3, 5], seed=9)
    monkeypatch.undo()
    assert report.failures == [] and len(drawn) == 3

    for i, (g1, g2, (cert, trace)) in enumerate(drawn):
        path = tmp_path / f"inst_{i}.json"
        path.write_text(json.dumps({"n": g1.n, "w1": g1.generators.tolist(),
                                    "w2": g2.generators.tolist()}))
        want = {
            "status": "disjoint",
            "witness": [float(x) for x in cert.witness],
            "margin": float(cert.margin),
            "trace": {
                "epsilon0": float(trace.epsilon0),
                "offsets": [float(o) for o in trace.offsets],
                "iterations": trace.iterations,
            },
        }
        proc = subprocess.run(
            [sys.executable, "-m", "sphsep", "witness", "--method", "proof-path", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == json.dumps(want, indent=2) + "\n", i


def test_campaign_counts_bodies_not_hemispherical_within_the_band_as_ambiguous():
    # caps of spread 0.4 are hemispherical only with margin cos(0.4) < 0.95,
    # so at margin_tol 0.95 the cone and dual routes refuse them; the
    # campaign counts those instances as ambiguous instead of aborting, and
    # the proof path halves its fattening radius until the fattened bodies
    # pass the same check
    report = run_equivalence_campaign(8, [1, 2], [3], seed=5, cfg=ToleranceConfig(margin_tol=0.95))
    assert report.instances == 8 and report.disagreements == 0
    assert report.ambiguous > 0 and report.disjoint > 0
    assert report.failures == [] and report.checks["proof_path"] == report.disjoint


def _grid_break_per_t(b1, b2, w, w_pp, cfg):
    """The convexity grid one pole at a time: normalize, then
    wedge_membership, for t = 0.0, 0.1, ..., 1.0."""
    for t in [round(0.1 * i, 1) for i in range(11)]:
        if not wedge_membership(b1, b2, normalize(t * w + (1.0 - t) * w_pp), cfg).member:
            return t
    return None


def test_grid_break_matches_the_per_t_loop(monkeypatch):
    # on the disjoint instances of a small campaign, where both poles are
    # members, and with the dual pole swapped for a unit vector orthogonal
    # to the proof-path pole (no combination vanishes), which the grid may
    # leave at any t: the one-product grid gives the same verdict and the
    # same first failing t as the per-t loop
    cfg = ToleranceConfig()
    grid_break, breaks = sphsep.harness._grid_break, []

    def both(b1, b2, w, w_pp, cfg):
        got = grid_break(b1, b2, w, w_pp, cfg)
        assert got is None and _grid_break_per_t(b1, b2, w, w_pp, cfg) is None
        axis = np.zeros(w_pp.size)
        axis[np.abs(w_pp).argmin()] = 1.0
        side = normalize(axis - (axis @ w_pp) * w_pp)
        breaks.append(grid_break(b1, b2, side, w_pp, cfg))
        assert breaks[-1] == _grid_break_per_t(b1, b2, side, w_pp, cfg)
        return got

    monkeypatch.setattr(sphsep.harness, "_grid_break", both)
    report = run_equivalence_campaign(40, [1, 2, 3, 5], list(range(1, 7)), 5, cfg)
    assert len(breaks) == report.disjoint == report.checks["wedge_convexity_grid"] > 0
    assert len({t for t in breaks if t is not None}) > 3


def test_grid_break_reports_the_first_failing_t():
    # bodies {e0} and {-e0} on S^1: the wedge is P_0 > margin_tol.  From the
    # member e0 toward w = (-1, 1)/sqrt(2), P_0 is proportional to
    # (1 - t) - t/sqrt(2), which turns negative past t = 0.586
    cfg = ToleranceConfig()
    b1, b2 = SphericalBody(np.array([[1.0, 0.0]])), SphericalBody(np.array([[-1.0, 0.0]]))
    w, w_pp = normalize(np.array([-1.0, 1.0])), np.array([1.0, 0.0])
    assert _grid_break(b1, b2, w, w_pp, cfg) == _grid_break_per_t(b1, b2, w, w_pp, cfg) == 0.6
    assert _grid_break(b1, b2, w_pp, w, cfg) == _grid_break_per_t(b1, b2, w_pp, w, cfg) == 0.0
    assert _grid_break(b1, b2, w_pp, w_pp, cfg) is None


def test_campaign_mode_cycle_produces_both_kinds():
    report = run_equivalence_campaign(40, [2], [3], seed=11)
    assert report.disjoint > 0
    assert report.intersecting > 0


def test_campaign_reproducible():
    a = run_equivalence_campaign(25, [1, 2], [1, 2, 3], seed=123)
    b = run_equivalence_campaign(25, [1, 2], [1, 2, 3], seed=123)
    assert a.to_dict() == b.to_dict()


def test_report_dict_stable_and_serializable():
    report = run_equivalence_campaign(8, [1], [1, 2], seed=2)
    doc = report.to_dict()
    assert list(doc) == [
        "config",
        "instances",
        "agreements",
        "ambiguous",
        "disagreements",
        "disjoint",
        "intersecting",
        "checks",
        "failures",
    ]
    assert doc["config"] == {"count": 8, "dims": [1], "sizes": [1, 2], "seed": 2}
    json.dumps(doc)  # round-trippable


def test_report_dict_is_a_copy():
    report = CampaignReport(count=2, dims=[1, 2], sizes=[3], seed=5, instances=2)
    report.checks["proof_path"] = 1
    report.failures.append("seed=1: example")
    doc = report.to_dict()
    assert list(doc) == [
        "config",
        "instances",
        "agreements",
        "ambiguous",
        "disagreements",
        "disjoint",
        "intersecting",
        "checks",
        "failures",
    ]
    assert list(doc["config"]) == ["count", "dims", "sizes", "seed"]
    doc["config"]["dims"].append(9)
    doc["config"]["sizes"].clear()
    doc["checks"]["proof_path"] = 7
    doc["failures"].append("extra")
    assert report.dims == [1, 2] and report.sizes == [3]
    assert report.checks["proof_path"] == 1
    assert report.failures == ["seed=1: example"]
    assert report.to_dict()["config"] == {"count": 2, "dims": [1, 2], "sizes": [3], "seed": 5}


def test_report_counts_are_plain_ints():
    doc = run_equivalence_campaign(4, [1], [1], seed=3).to_dict()
    for key in ("instances", "agreements", "ambiguous", "disagreements"):
        assert type(doc[key]) is int


def test_golden_instances_regenerate_byte_for_byte():
    # scripts/make_goldens.py derives every instance of the golden corpus
    # from a seed; regenerated in process, each must match its stored file
    # byte for byte and its manifest entry field for field
    path = GOLDEN_DIR.parents[1] / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    entries = manifest["core"] + manifest["extra"]
    stored = sorted((GOLDEN_DIR / "instances").glob("*.json"))
    assert len(entries) == len(stored) == goldens.CORE_COUNT + goldens.EXTRA_COUNT == 50
    for i, (entry, inst) in enumerate(zip(entries, stored)):
        doc, meta = goldens.instance_doc(i)
        assert inst.name == f"{entry['name']}.json" == f"inst_{i:02d}.json"
        assert (json.dumps(doc, indent=2) + "\n").encode() == inst.read_bytes(), inst.name
        assert {k: entry[k] for k in meta} == meta, inst.name

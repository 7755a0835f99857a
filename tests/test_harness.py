import json

import numpy as np
import pytest

import sphsep.convexity
import sphsep.separation
from sphsep.errors import GenerationFailed
from sphsep.geometry import ToleranceConfig
from sphsep.harness import (
    CampaignReport,
    InstanceSpec,
    Mode,
    generate,
    run_equivalence_campaign,
)
from sphsep.lp import LpStatus, solve
from sphsep.separation import primal_intersect

from .oracles import lp_residual


def test_instance_spec_validation():
    InstanceSpec(dimension=1, k1=1, k2=1, seed=0)  # minimal valid
    with pytest.raises(GenerationFailed):
        InstanceSpec(dimension=0, k1=1, k2=1, seed=0)
    with pytest.raises(GenerationFailed):
        InstanceSpec(dimension=2, k1=0, k2=1, seed=0)
    with pytest.raises(GenerationFailed):
        InstanceSpec(dimension=2, k1=1, k2=1, seed=0, spread=0.0)
    with pytest.raises(GenerationFailed):
        InstanceSpec(dimension=2, k1=1, k2=1, seed=0, spread=2.0)


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
    report.wall_time_s = 1.23
    doc = report.to_dict()
    # wall time varies run to run, so it must stay out of the document
    assert "wall_time_s" not in json.dumps(doc)
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


def test_report_counts_are_plain_ints():
    doc = run_equivalence_campaign(4, [1], [1], seed=3).to_dict()
    for key in ("instances", "agreements", "ambiguous", "disagreements"):
        assert type(doc[key]) is int

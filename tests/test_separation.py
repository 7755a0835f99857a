import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphsep.separation
from sphsep.convexity import SphericalBody, _pole_lp, hemisphericity_witness
from sphsep.errors import (
    ContractionStalled,
    SphSepError,
    DimensionMismatch,
    EpsilonSearchFailed,
    NotHemispherical,
    NumericallyAmbiguous,
    ZeroVector,
)
from sphsep.geometry import ToleranceConfig, normalize
from sphsep.harness import InstanceSpec, Mode, generate
from sphsep.lp import LE, LinearProgram, LpStatus, solve
from sphsep.separation import (
    Hyperplane,
    _HullRows,
    _separating_hyperplane_contracted,
    dual_witness,
    primal_intersect,
    proof_path_witness,
    wedge_membership,
    wedge_openness_probe,
)

from .oracles import (
    cone_member_oracle,
    dual_witness_oracle,
    lp_optimal_at,
    lp_oracle,
    openness_probe_oracle,
    separates,
)

S = 1.0 / np.sqrt(2.0)


def disjoint_pair(seed, dim=2, k1=3, k2=3):
    spec = InstanceSpec(dimension=dim, k1=k1, k2=k2, seed=seed, mode=Mode.FORCE_DISJOINT)
    return generate(spec)


def test_hyperplane_requires_unit_normal():
    with pytest.raises(DimensionMismatch):
        Hyperplane(normal=np.array([1.0, 1.0]), offset=0.0)


def test_primal_disjoint_singletons():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    assert primal_intersect(b1, b2) is None


def test_primal_shared_generator_certificate():
    shared = normalize([1.0, 2.0, 2.0])
    b1 = SphericalBody(np.array([shared, [1.0, 0.0, 0.0]]))
    b2 = SphericalBody(np.array([shared, normalize([0.0, 1.0, 3.0])]))
    inter = primal_intersect(b1, b2)
    assert inter.kind == "intersecting"
    # the certificate is checkable by plain arithmetic
    assert np.all(inter.lam >= 0) and np.all(inter.mu >= 0)
    p1 = normalize(b1.generators.T @ inter.lam)
    p2 = normalize(b2.generators.T @ inter.mu)
    assert np.allclose(p1, inter.common_point, atol=1e-9)
    assert np.allclose(p2, inter.common_point, atol=1e-9)
    assert np.isclose(np.linalg.norm(inter.common_point), 1.0)


def test_primal_hull_overlap_without_shared_generator():
    # hulls of arcs [10, 50] and [30, 80] degrees overlap
    def pt(deg):
        rad = np.deg2rad(deg)
        return [np.cos(rad), np.sin(rad)]

    b1 = SphericalBody(np.array([pt(10), pt(50)]))
    b2 = SphericalBody(np.array([pt(30), pt(80)]))
    inter = primal_intersect(b1, b2)
    assert inter is not None
    assert cone_member_oracle(b1.generators, inter.common_point)
    assert cone_member_oracle(b2.generators, inter.common_point)


def test_primal_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        primal_intersect(SphericalBody(np.eye(2)), SphericalBody(np.eye(3)))


def test_primal_requires_hemispherical_bodies():
    bad = SphericalBody(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    good = SphericalBody(np.array([[0.0, 1.0]]))
    with pytest.raises(NotHemispherical):
        primal_intersect(bad, good)


def test_wedge_membership_direct_margins():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[0.0, 1.0]]))
    res = wedge_membership(b1, b2, np.array([S, -S]))
    assert res.member
    assert np.isclose(res.margin, S)
    # the reversed pole lands on the wrong side of both bodies
    assert not wedge_membership(b1, b2, np.array([-S, S])).member


def test_dual_witness_antipodal_singletons():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    cert = dual_witness(b1, b2)
    assert cert.kind == "disjoint"
    assert np.allclose(cert.witness, [1.0, 0.0])
    assert np.isclose(cert.margin, 1.0)


def test_dual_witness_orthogonal_singletons():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[0.0, 1.0]]))
    cert = dual_witness(b1, b2)
    assert cert.kind == "disjoint"
    assert np.isclose(cert.margin, S)
    assert np.allclose(cert.witness, [S, -S])


def test_dual_witness_intersecting_falls_back_to_primal():
    shared = normalize([1.0, 1.0, 0.0])
    b1 = SphericalBody(np.array([shared]))
    b2 = SphericalBody(np.array([shared, [0.0, 0.0, 1.0]]))
    cert = dual_witness(b1, b2)
    assert cert.kind == "intersecting"
    assert np.allclose(cert.common_point, shared, atol=1e-9)


def test_dual_witness_ambiguous_band():
    # a nearly-touching pair separates at default tolerances, but once the
    # band is widened past its margin it is neither provably disjoint nor
    # intersecting
    th = 0.01
    b1 = SphericalBody(np.array([[np.cos(th), np.sin(th)]]))
    b2 = SphericalBody(np.array([[np.cos(th), -np.sin(th)]]))
    assert dual_witness(b1, b2).kind == "disjoint"
    with pytest.raises(NumericallyAmbiguous):
        dual_witness(b1, b2, ToleranceConfig(margin_tol=0.1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_primal_dual_agree_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    spec = InstanceSpec(
        dimension=dim,
        k1=int(rng.integers(1, 7)),
        k2=int(rng.integers(1, 7)),
        seed=seed,
    )
    b1, b2 = generate(spec)
    inter = primal_intersect(b1, b2)
    try:
        cert = dual_witness(b1, b2)
    except NumericallyAmbiguous:
        return
    if inter is None:
        assert cert.kind == "disjoint"
        assert separates(cert.witness, b1.generators, b2.generators) > 1e-9
    else:
        assert cert.kind == "intersecting"


def test_proof_path_antipodal_singletons_trivial_trace():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    cert, trace = proof_path_witness(b1, b2)
    assert cert.kind == "disjoint"
    assert trace.epsilon0 == 0.5
    assert trace.offsets == [0.0]
    assert trace.iterations == 0
    assert abs(float(cert.witness[0])) > 0.9


def test_proof_path_trace_contract():
    b1, b2 = disjoint_pair(seed=0)
    cert, trace = proof_path_witness(b1, b2)
    offsets = [abs(o) for o in trace.offsets]
    assert len(offsets) == trace.iterations + 1
    for prev, cur in zip(offsets, offsets[1:]):
        assert cur < prev
    assert offsets[-1] < 1e-6
    assert trace.epsilon0 > 0
    assert np.log2(0.5 / trace.epsilon0) == int(np.log2(0.5 / trace.epsilon0))
    assert wedge_membership(b1, b2, cert.witness).member
    assert cert.margin > 1e-9


def test_proof_path_agrees_with_dual_across_seeds():
    for seed in range(12):
        b1, b2 = disjoint_pair(seed=seed, dim=1 + seed % 3)
        lp_cert = dual_witness(b1, b2)
        pp_cert, _ = proof_path_witness(b1, b2)
        assert lp_cert.kind == pp_cert.kind == "disjoint"
        for w in (lp_cert.witness, pp_cert.witness):
            assert separates(w, b1.generators, b2.generators) > 1e-9
        # the wedge is spherically convex: normalized mixtures stay inside
        for t in np.linspace(0.0, 1.0, 11):
            mix = normalize(t * lp_cert.witness + (1.0 - t) * pp_cert.witness)
            assert wedge_membership(b1, b2, mix).member


def test_proof_path_epsilon_search_failure_when_hulls_touch():
    # one body's generator sits inside the other's hull, so every fattening
    # radius keeps the projected hulls overlapping
    b1 = SphericalBody(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b2 = SphericalBody(np.array([[S, S]]))
    with pytest.raises(EpsilonSearchFailed):
        proof_path_witness(b1, b2, ToleranceConfig(max_iter=25))


def test_proof_path_contraction_round_cap():
    b1, b2 = disjoint_pair(seed=0)
    with pytest.raises(ContractionStalled):
        proof_path_witness(b1, b2, ToleranceConfig(max_iter=1))


@pytest.mark.parametrize("dim, seed, offsets, margin", [
    (1, 0, [0.36450194977558015, 0.006196091141028443], 0.11373708207788742),
    (2, 10, [0.3245321157576641, 0.03882515251353512], 0.17605789610406397),
])
def test_proof_path_rounds_after_offset_below_tol(dim, seed, offsets, margin):
    # with offset_tol = 0.5 the first offset is already below it, but the
    # margins are not yet strict, so the path contracts once more
    b1, b2 = disjoint_pair(seed=seed, dim=dim, k1=3, k2=4)
    cert, trace = proof_path_witness(b1, b2, ToleranceConfig(offset_tol=0.5))
    assert trace.offsets == offsets
    assert trace.iterations == 1
    assert cert.margin == margin
    assert wedge_membership(b1, b2, cert.witness).member


def _proof_path_pin_cases():
    """100 force-disjoint pairs on S^1..S^5 with 1..8 generators per body
    under the default config, and the two offset_tol = 0.5 pairs above."""
    for i in range(100):
        yield disjoint_pair(seed=i, dim=1 + i % 5, k1=1 + i % 8, k2=1 + (3 * i + 2) % 8), ToleranceConfig()
    for dim, seed in ((1, 0), (2, 10)):
        yield disjoint_pair(seed=seed, dim=dim, k1=3, k2=4), ToleranceConfig(offset_tol=0.5)


# sha256 of the proof path's fattening radii, offsets, witnesses and margins
# over _proof_path_pin_cases: any change to the fattening search, a hull
# separation or the contraction schedule changes it
_PROOF_PATH_SHA256 = "12cf71eff75effcddf3eacc7704b1db5a94caf07fe6e90f870420205404fdd0c"


def test_proof_path_bits_pinned():
    h = hashlib.sha256()
    for (b1, b2), cfg in _proof_path_pin_cases():
        cert, trace = proof_path_witness(b1, b2, cfg)
        h.update(np.float64(trace.epsilon0).tobytes())
        h.update(np.array(trace.offsets).tobytes())
        h.update(cert.witness.tobytes())
        h.update(np.float64(cert.margin).tobytes())
    assert h.hexdigest() == _PROOF_PATH_SHA256


# vertex-set centres and contraction factor: hulls on opposite sides of the
# origin (sign regime a > 0 > b) at every sigma, then hulls on one side, where
# only a mild contraction keeps them apart (regimes a, b > 0 and a, b < 0)
_UNION_CASES = [((3.0, 0.0), (-3.0, 1.0), s) for s in (0.5, 0.1, 1e-3)] + [
    ((10.0, 0.0), (2.0, 0.0), 0.5),
    ((2.0, 0.0), (10.0, 0.0), 0.5),
    # sigma = 1, the proof path's first separation: one LP with a and b free
    ((3.0, 0.0), (-3.0, 1.0), 1.0),
    ((10.0, 0.0), (2.0, 0.0), 1.0),
    ((2.0, 0.0), (10.0, 0.0), 1.0),
]


@pytest.mark.parametrize("seed", [3, 9, 21])
@pytest.mark.parametrize("c1, c2, sigma", _UNION_CASES)
def test_contracted_separation_matches_materialized_union(seed, c1, c2, sigma):
    # The contracted routine never lists the copies sigma * v; its slack must
    # still equal the max-slack separation of the materialized unions
    # v u sigma v, solved here by vertex enumeration.
    rng = np.random.default_rng(seed)
    v1 = np.array(c1) + 0.5 * rng.standard_normal((3, 2))
    v2 = np.array(c2) + 0.5 * rng.standard_normal((3, 2))
    u1, u2 = np.vstack([v1, sigma * v1]), np.vstack([v2, sigma * v2])

    hyp, slack = _separating_hyperplane_contracted(_HullRows(v1, v2), sigma, ToleranceConfig())
    assert np.min(u1 @ hyp.normal) - hyp.offset >= slack - 1e-9
    assert hyp.offset - np.max(u2 @ hyp.normal) >= slack - 1e-9

    h1 = np.hstack([u1, -np.ones((6, 1))])
    h2 = np.hstack([u2, -np.ones((6, 1))])
    lp = _pole_lp(np.vstack([h1, -h2]))
    lp.lower[-1], lp.upper[-1] = -10.0, 10.0  # t never reaches this box
    status, best = lp_oracle(lp)
    assert status == "optimal"
    # the optimum touches the |P_k|, |r| <= 1 box, so rescaling the unit
    # hyperplane back into it recovers the box-scale slack
    box = max(np.max(np.abs(hyp.normal)), abs(hyp.offset))
    assert slack / box == pytest.approx(best, rel=1e-6, abs=1e-12)


def _proof_path_vertices(monkeypatch, n, m):
    """The fattened vertex sets the proof path separates on the
    force-disjoint S^n instance with m + m generators (seed 11)."""
    seen = []

    class Recording(_HullRows):
        def __init__(self, v1, v2):
            super().__init__(v1, v2)
            seen.append((v1, v2))

    monkeypatch.setattr(sphsep.separation, "_HullRows", Recording)
    b1, b2 = generate(InstanceSpec(dimension=n, k1=m, k2=m, seed=11, mode=Mode.FORCE_DISJOINT))
    proof_path_witness(b1, b2)
    return seen[0]


@pytest.mark.parametrize("n", [5, 8])
def test_row_generation_reaches_full_lp_optimum(monkeypatch, n):
    # On the S^5 and S^8 24+24 proof paths (240+240 and 384+384 fattened
    # vertex rows) each sign-regime LP, solved over a working set carried
    # across sigma, must end at an optimum of the regime LP with every
    # vertex row, and the best regime at the max-slack separation of the
    # materialized unions v u sigma v.  Vertex enumeration cannot reach
    # programs this size, so optimality is certified by LP duality.
    with monkeypatch.context() as mp:
        v1, v2 = _proof_path_vertices(mp, n, 24)
    assert v1.shape[0] == v2.shape[0] == 24 * 2 * n
    cfg = ToleranceConfig()
    hull = _HullRows(v1, v2)
    for sigma in (1.0, 1e-2, 1e-5):
        finals = []

        def spy(lp, *args, **kwargs):
            out = solve(lp, *args, **kwargs)
            if out.status is LpStatus.OPTIMAL and np.max(hull.rows @ out.solution) <= cfg.lp_tol:
                finals.append((lp, out.solution))  # the last solve of a regime
            return out

        with monkeypatch.context() as mp:
            mp.setattr(sphsep.separation, "solve", spy)
            hyp, slack = _separating_hyperplane_contracted(hull, sigma, cfg)
        assert len(finals) == (1 if sigma == 1.0 else 3)
        for lp, x in finals:
            every_row = np.vstack([hull.rows, lp.constraints[-3:]])
            rhs = np.concatenate([np.zeros(hull.rows.shape[0]), lp.rhs[-3:]])
            full = LinearProgram(lp.objective, every_row, LE, rhs, lp.lower, lp.upper)
            assert lp_optimal_at(full, x), sigma

        u1, u2 = np.vstack([v1, sigma * v1]), np.vstack([v2, sigma * v2])
        ones = -np.ones((u1.shape[0], 1))
        union = _pole_lp(np.vstack([np.hstack([u1, ones]), -np.hstack([u2, ones])]))
        union.lower[-1], union.upper[-1] = -10.0, 10.0
        box = max(np.max(np.abs(hyp.normal)), abs(hyp.offset))
        x = np.concatenate([hyp.normal, [hyp.offset, slack]]) / box
        assert lp_optimal_at(union, x), sigma


def test_hull_solves_see_a_few_dozen_rows(monkeypatch):
    # the S^8 24+24 proof path separates 384+384 fattened vertices, yet no
    # LP it solves has more than a few dozen rows
    rows = []

    def spy(lp, *args, **kwargs):
        rows.append(len(lp.constraints))
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(sphsep.separation, "solve", spy)
    b1, b2 = generate(InstanceSpec(dimension=8, k1=24, k2=24, seed=11, mode=Mode.FORCE_DISJOINT))
    cert, trace = proof_path_witness(b1, b2)
    assert cert.margin > 0 and trace.iterations >= 1
    assert len(rows) > 3 * trace.iterations
    assert max(rows) <= 48, rows


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_openness_probe_matches_per_sample_loop(seed):
    b1, b2 = disjoint_pair(seed=seed, dim=1 + seed, k1=4, k2=5)
    w = dual_witness(b1, b2).witness
    got = wedge_openness_probe(b1, b2, w, 50, rng=np.random.default_rng(seed))
    want = openness_probe_oracle(b1, b2, w, 50, rng=np.random.default_rng(seed))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_openness_probe_zero_tangent_raises():
    # on S^1 a draw's tangent part is one N(0, 1) coordinate, below the
    # unit_tol of 0.5 for about 38% of draws, so 50 draws meet one
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    cfg = ToleranceConfig(unit_tol=0.5)
    for probe in (wedge_openness_probe, openness_probe_oracle):
        with pytest.raises(ZeroVector):
            probe(b1, b2, [1.0, 0.0], 50, cfg, rng=np.random.default_rng(3))


def test_openness_probe_zero_samples_vacuous():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    assert wedge_openness_probe(b1, b2, [1.0, 0.0], 0) == np.inf


def test_openness_probe_positive_for_solid_member():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    worst = wedge_openness_probe(b1, b2, [1.0, 0.0], 50)
    assert worst > 0.4  # perturbations stay well inside the wedge


def test_openness_probe_rejects_non_member():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[0.0, 1.0]]))
    with pytest.raises(NumericallyAmbiguous):
        wedge_openness_probe(b1, b2, [-S, S], 5)


def test_openness_probe_deterministic_with_seeded_rng():
    b1, b2 = disjoint_pair(seed=4)
    cert = dual_witness(b1, b2)
    a = wedge_openness_probe(b1, b2, cert.witness, 20, rng=np.random.default_rng(1))
    b = wedge_openness_probe(b1, b2, cert.witness, 20, rng=np.random.default_rng(1))
    assert a == b


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_disjoint_dual_witness_solves_only_the_pole_lp(solve_sites, dim):
    # the pole LP's certificate shows both bodies hemispherical, so no
    # hemisphericity LP runs: 1 solve, where the hemisphericity-first order
    # made 3 (two hemisphericity LPs, then the pole LP)
    b1, b2 = disjoint_pair(seed=dim, dim=dim, k1=6, k2=5)
    solve_sites.clear()
    assert dual_witness(b1, b2).kind == "disjoint"
    assert solve_sites == ["dual_witness"]


def test_intersecting_dual_witness_solves_four_lps(solve_sites):
    spec = InstanceSpec(dimension=3, k1=6, k2=5, seed=2, mode=Mode.FORCE_INTERSECTING)
    b1, b2 = generate(spec)
    w1, w2 = hemisphericity_witness(b1), hemisphericity_witness(b2)
    solve_sites.clear()
    assert dual_witness(b1, b2).kind == "intersecting"
    assert solve_sites == ["dual_witness", "hemisphericity_witness",
                           "hemisphericity_witness", "primal_intersect"]
    # passed witnesses are used, not solved for again
    solve_sites.clear()
    assert dual_witness(b1, b2, w1=w1, w2=w2).kind == "intersecting"
    assert solve_sites == ["dual_witness", "primal_intersect"]


def test_primal_intersect_keeps_its_three_lps(solve_sites):
    # the cone oracle stays independent of the pole LP
    for b1, b2 in (disjoint_pair(seed=1, dim=3),
                   generate(InstanceSpec(dimension=3, k1=4, k2=4, seed=1,
                                         mode=Mode.FORCE_INTERSECTING))):
        solve_sites.clear()
        primal_intersect(b1, b2)
        assert solve_sites == ["hemisphericity_witness", "hemisphericity_witness",
                               "primal_intersect"]


def _band_pair():
    # the 0.9e-9 band-edge instance of the CLI tests: body 1's own margin
    # and the separation margin both sit inside the 1e-9 band
    th, p, e = 0.9e-9, np.array([S, S]), np.array([S, -S])
    w1 = np.array([np.cos(th) * e + np.sin(th) * p, -np.cos(th) * e + np.sin(th) * p])
    return SphericalBody(w1), SphericalBody(-p[None, :])


def _order_cases():
    """oracles-style pairs on S^3..S^12 with 16..64 generators in each mode,
    small pairs on S^1..S^3, bodies that are not hemispherical, and the
    band-edge instance."""
    modes = (Mode.FORCE_DISJOINT, Mode.FORCE_INTERSECTING, Mode.UNCONSTRAINED)
    rng = np.random.default_rng(8)
    for n in range(3, 13):
        for mode in modes:
            k1, k2 = (int(k) for k in rng.integers(16, 65, size=2))
            yield generate(InstanceSpec(dimension=n, k1=k1, k2=k2, seed=int(rng.integers(2**31)),
                                        mode=mode))
    for seed in range(12):
        yield generate(InstanceSpec(dimension=1 + seed % 3, k1=1 + seed % 4, k2=2,
                                    seed=seed, mode=modes[seed % 3]))
    half_circle = SphericalBody(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    yield half_circle, SphericalBody(np.array([[0.0, 1.0]]))
    yield SphericalBody(np.array([[0.0, -1.0]])), half_circle
    yield half_circle, half_circle
    octant = SphericalBody(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]))
    yield octant, SphericalBody(np.array([[-1.0, 0.0, 0.0]]))
    yield _band_pair()
    # two points 1e-9 rad apart: both hemispherical, the pole margin 0.5e-9
    # is inside the band, and the cone LP finds no common ray
    a = 0.5e-9
    yield (SphericalBody(np.array([[np.cos(a), np.sin(a)]])),
           SphericalBody(np.array([[np.cos(a), -np.sin(a)]])))


def _dual_outcome(fn, b1, b2, **kwargs):
    try:
        cert = fn(b1, b2, **kwargs)
    except SphSepError as exc:
        return type(exc)
    fields = (cert.witness, cert.margin, cert.lam, cert.mu, cert.common_point)
    return cert.kind, tuple(None if f is None else np.asarray(f).tobytes() for f in fields)


def test_certificate_first_matches_hemisphericity_first_order():
    kinds = set()
    for b1, b2 in _order_cases():
        got = _dual_outcome(dual_witness, b1, b2)
        assert got == _dual_outcome(dual_witness_oracle, b1, b2)
        kinds.add(got if isinstance(got, type) else got[0])
        if isinstance(got, tuple):
            # passing the witnesses changes nothing either
            w1, w2 = hemisphericity_witness(b1), hemisphericity_witness(b2)
            assert _dual_outcome(dual_witness, b1, b2, w1=w1, w2=w2) == got
    assert kinds == {"disjoint", "intersecting", NotHemispherical, NumericallyAmbiguous}

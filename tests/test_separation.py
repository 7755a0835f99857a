import copy
import hashlib
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphsep.convexity
import sphsep.separation
from sphsep.convexity import SphericalBody, _pole_lp, _pole_margin
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
from sphsep.harness import InstanceSpec, Mode, _cap_body, generate
from sphsep.lp import _TOL, LE, LpOutcome, LpStatus, solve
from sphsep.separation import (
    SeparationCertificate,
    _HullRows,
    _pole_difference,
    _separating_hyperplane_contracted,
    dual_witness,
    primal_intersect,
    proof_path_witness,
    wedge_membership,
    wedge_openness_probe,
)

from .oracles import (
    BoxProgram,
    box_dual_witness,
    box_pole_lp,
    cone_member_oracle,
    dual_witness_oracle,
    lp_optimal_at,
    lp_oracle,
    lp_residual,
    nnls_residual,
    openness_probe_oracle,
    primal_intersect_oracle,
    separates,
    solve_box,
)

S = 1.0 / np.sqrt(2.0)


def disjoint_pair(seed, dim=2, k1=3, k2=3):
    spec = InstanceSpec(dimension=dim, k1=k1, k2=k2, seed=seed, mode=Mode.FORCE_DISJOINT)
    return generate(spec)


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


def test_dual_witness_returns_the_cone_lps_intersecting_certificate(monkeypatch):
    # when the pole LP carries no certificate (here its recession ray is
    # swapped for one with all weight on body 1, which leaves sum mu = 0),
    # primal_intersect decides, and its intersecting certificate is
    # returned as it is
    def weight_on_body_1(lp, *args, **kwargs):
        out = solve(lp, *args, **kwargs)
        if out.ray is None:
            return out
        ray = np.zeros_like(out.ray)
        ray[0] = 1.0
        return replace(out, ray=ray)

    shared = normalize([1.0, 1.0, 0.0])
    b1 = SphericalBody(np.array([shared, [1.0, 0.0, 0.0]]))
    b2 = SphericalBody(np.array([shared, [0.0, 0.0, 1.0]]))
    want = primal_intersect(b1, b2)
    monkeypatch.setattr(sphsep.separation, "solve", weight_on_body_1)
    got = dual_witness(b1, b2)
    assert want.kind == got.kind == "intersecting"
    for key in ("common_point", "lam", "mu"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key


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
    (1, 0, [0.36492463040000966, 0.00683491288434529], 0.11247938751957845),
    (2, 10, [0.3219262590898702, 0.03332249520976091], 0.17876639283032122),
], ids=["S1-seed0", "S2-seed10"])  # named by case, so a re-pin keeps the ids
def test_proof_path_rounds_after_offset_below_tol(dim, seed, offsets, margin):
    # with offset_tol = 0.5 the first offset is already below it, but the
    # margins are not yet strict, so the path contracts once more
    b1, b2 = disjoint_pair(seed=seed, dim=dim, k1=3, k2=4)
    cert, trace = proof_path_witness(b1, b2, ToleranceConfig(offset_tol=0.5))
    assert trace.offsets == offsets
    assert trace.iterations == 1
    assert cert.margin == margin
    assert wedge_membership(b1, b2, cert.witness).member


def test_proof_path_contracts_at_large_offset_tol():
    # a sigma floor of offset_tol / 10 would be 1 here: every round would
    # re-solve at sigma = 1, and the path would stall after one round
    cfg = ToleranceConfig(offset_tol=10.0)
    b1, b2 = generate(InstanceSpec(2, 4, 4, seed=22, mode=Mode.FORCE_DISJOINT), cfg)
    cert, trace = proof_path_witness(b1, b2, cfg)
    assert trace.offsets == pytest.approx([0.724079005202378, 0.003203829817322735])
    assert trace.iterations == 1
    assert cert.margin == pytest.approx(0.30354094017029437)
    assert wedge_membership(b1, b2, cert.witness, cfg).member


def _near_contact_pairs(n, target, count):
    """count pairs of 6 + 6 generator caps of spread 0.4 around e0 on S^n
    (rng seed 17), body 2 rotated in the (e0, e1) plane by an angle bisected
    until the dual_witness margin lies in [target, 2 target); a draw whose
    bisection never lands there is skipped."""
    rng = np.random.default_rng(17)
    e0 = np.eye(n + 1)[0]
    pairs = []
    while len(pairs) < count:
        b1 = SphericalBody(_cap_body(rng, e0, 6, 0.4))
        g2 = _cap_body(rng, e0, 6, 0.4)
        lo, hi = 0.0, math.pi
        for _ in range(100):
            theta = (lo + hi) / 2
            rot = np.eye(n + 1)
            rot[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            b2 = SphericalBody(g2 @ rot.T)
            try:
                cert = dual_witness(b1, b2)
                margin = cert.margin if cert.kind == "disjoint" else -1.0
            except NumericallyAmbiguous:
                margin = 0.0
            if target <= margin < 2 * target:
                pairs.append((b1, b2))
                break
            lo, hi = (theta, hi) if margin < target else (lo, theta)
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_proof_path_near_contact(n):
    # Pairs at dual margins 1e-4 and 1e-5, 10^4 to 10^5 times margin_tol:
    # the contraction rounds' optimal slack t shrinks with sigma, so an LP
    # solved for t itself stops at t = 0 below the simplex tolerance and
    # the proof path stalls ("found no positive slack") on clearly disjoint
    # bodies.  Solved for tau = t / sigma, every pair gets a witness.
    for target in (1e-4, 1e-5):
        for b1, b2 in _near_contact_pairs(n, target, 10):
            cert, _ = proof_path_witness(b1, b2)
            assert cert.kind == "disjoint"
            assert wedge_membership(b1, b2, cert.witness).member, target


def _proof_path_pin_cases():
    """100 force-disjoint pairs on S^1..S^5 with 1..8 generators per body
    under the default config, and the two offset_tol = 0.5 pairs above."""
    for i in range(100):
        yield disjoint_pair(seed=i, dim=1 + i % 5, k1=1 + i % 8, k2=1 + (3 * i + 2) % 8), ToleranceConfig()
    for dim, seed in ((1, 0), (2, 10)):
        yield disjoint_pair(seed=seed, dim=dim, k1=3, k2=4), ToleranceConfig(offset_tol=0.5)


# sha256 of the proof path's fattening radii, offsets, witnesses and margins
# over _proof_path_pin_cases: any change to the fattening search, a hull
# separation or the contraction schedule changes it, and so does a last-ulp
# change to the tangent frames or the projection pair
_PROOF_PATH_SHA256 = "82792365a97d752a5f0faf6dab8cb3258c8f266cc28019d95df25731d1c38f80"


def _proof_path_sha256(cases):
    """sha256 of the proof path's fattening radius, offsets, witness and
    margin over ``cases``, pairs ((b1, b2), cfg)."""
    h = hashlib.sha256()
    for (b1, b2), cfg in cases:
        cert, trace = proof_path_witness(b1, b2, cfg)
        h.update(np.float64(trace.epsilon0).tobytes())
        h.update(np.array(trace.offsets).tobytes())
        h.update(cert.witness.tobytes())
        h.update(np.float64(cert.margin).tobytes())
    return h.hexdigest()


def test_proof_path_bits_pinned():
    assert _proof_path_sha256(_proof_path_pin_cases()) == _PROOF_PATH_SHA256


def _large_pair(n, m):
    """The force-disjoint S^n instance with m + m generators (seed 11)."""
    return generate(InstanceSpec(dimension=n, k1=m, k2=m, seed=11, mode=Mode.FORCE_DISJOINT))


# the same sha256 over the proof paths of the (8, 24), (20, 40) and (40, 80)
# instances of _large_pair, whose 384 to 6400 fattened vertices per body
# are separated by row generation over a working set of them
_LARGE_PROOF_PATH_SHA256 = "0aacf5db2da63ed19469fe636c0e29dea56b74bd94d4a6574ad1f49e6cbdf420"


def test_large_proof_path_bits_pinned():
    cases = ((_large_pair(n, m), ToleranceConfig()) for n, m in ((8, 24), (20, 40), (40, 80)))
    assert _proof_path_sha256(cases) == _LARGE_PROOF_PATH_SHA256


def test_proof_path_peak_memory_holds_each_fattened_vertex_once():
    # The (40, 80) proof path fattens each body to 2 * 40 * 80 vertices in
    # R^41, 4 MiB of vertices in all.  Its hull separations read them as
    # they are and build only their working rows, so the traced peak of the
    # whole path is about 2.1 such copies.  Holding every vertex row over
    # the LP's variables as well, and again on split columns, peaks at 5.5.
    n, m = 40, 80
    b1, b2 = _large_pair(n, m)
    tracemalloc.start()
    try:
        proof_path_witness(b1, b2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vertex_bytes = 4 * n * m * (n + 1) * 8
    assert peak <= 3 * vertex_bytes, peak / vertex_bytes


# vertex-set centres and contraction factor: hulls on opposite sides of the
# origin (a > 0 > b, where the contracted copies bind) at every sigma, then
# hulls on one side, where only a mild contraction keeps them apart (a, b > 0
# and a, b < 0, where min(a, sigma a) and max(b, sigma b) pick the other copy)
_UNION_CASES = [((3.0, 0.0), (-3.0, 1.0), s) for s in (0.5, 0.1, 1e-3)] + [
    ((10.0, 0.0), (2.0, 0.0), 0.5),
    ((2.0, 0.0), (10.0, 0.0), 0.5),
    # sigma = 1, the proof path's first separation, where the copies coincide
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

    normal, offset, slack = _separating_hyperplane_contracted(
        _HullRows(v1, v2), sigma, ToleranceConfig()
    )
    assert np.min(u1 @ normal) - offset >= slack - 1e-9
    assert offset - np.max(u2 @ normal) >= slack - 1e-9

    h1 = np.hstack([u1, -np.ones((6, 1))])
    h2 = np.hstack([u2, -np.ones((6, 1))])
    lp = box_pole_lp(np.vstack([h1, -h2]))
    lp.lower[-1], lp.upper[-1] = -10.0, 10.0  # t never reaches this box
    status, best = lp_oracle(lp)
    assert status == "optimal"
    # the optimum touches the |P_k|, |r| <= 1 box, so rescaling the unit
    # hyperplane back into it recovers the box-scale slack
    box = max(np.max(np.abs(normal)), abs(offset))
    assert slack / box == pytest.approx(best, rel=1e-6, abs=1e-12)


def _caps(lp):
    """The rows of the seven caps in a hull solve ``lp``, which poses the
    contracted separation LP on split columns: they follow the working
    vertex rows, and the 2d box rows follow them."""
    d = lp.num_vars // 2 - 5
    n = len(lp.constraints) - 7 - 2 * d
    return slice(n, n + 7)


def _hull_program(lp, rows=None):
    """The contracted separation LP of a hull solve ``lp`` over
    (P, a, b, alpha, beta, tau), read off its + columns, with the box
    |P_m| <= 1 as bounds: its working vertex rows, or ``rows`` in their
    place, then its caps."""
    caps = _caps(lp)
    A, b = lp.constraints[: caps.stop, 0::2], lp.rhs[: caps.stop]
    if rows is not None:
        A = np.vstack([rows, A[caps]])
        b = np.concatenate([np.zeros(rows.shape[0]), b[caps]])
    d = lp.num_vars // 2 - 5
    bound = np.concatenate([np.ones(d), np.full(5, np.inf)])
    return BoxProgram(lp.objective[0::2], A, LE, b, lower=-bound, upper=bound)


def _vertex_rows(hull):
    """Every vertex row of ``hull`` over (P, a, b, alpha, beta, tau), body
    1's then body 2's: a - P . y <= 0 for y in v1 and P . y - b <= 0 for y
    in v2."""
    (m1, d), m2 = hull.v1.shape, hull.v2.shape[0]
    rows = np.zeros((m1 + m2, d + 5))
    rows[:m1, :d], rows[:m1, d] = -hull.v1, 1.0
    rows[m1:, :d], rows[m1:, d + 1] = hull.v2, -1.0
    return rows


def _unsplit(X):
    """A hull solve's solution on split columns, decoded to its variables."""
    return X[0::2] - X[1::2]


def _proof_path_vertices(monkeypatch, n, m):
    """The fattened vertex sets the proof path separates on the
    force-disjoint S^n instance with m + m generators (seed 11)."""
    seen = []

    class Recording(_HullRows):
        def __init__(self, v1, v2, toward=None):
            super().__init__(v1, v2, toward)
            seen.append((v1, v2))

    monkeypatch.setattr(sphsep.separation, "_HullRows", Recording)
    proof_path_witness(*_large_pair(n, m))
    return seen[0]


@pytest.mark.parametrize("n", [5, 8])
def test_row_generation_reaches_full_lp_optimum(monkeypatch, n):
    # On the S^5 and S^8 24+24 proof paths (240+240 and 384+384 fattened
    # vertex rows) the contracted separation LP, solved over a working set
    # carried across sigma, must end at an optimum of the LP with every
    # vertex row, and at the max-slack separation of the materialized unions
    # v u sigma v.  Vertex enumeration cannot reach programs this size, so
    # optimality is certified by LP duality.  A carried optimum is cleared
    # before each sigma, so that every sigma is solved.
    with monkeypatch.context() as mp:
        v1, v2 = _proof_path_vertices(mp, n, 24)
    assert v1.shape[0] == v2.shape[0] == 24 * 2 * n
    cfg = ToleranceConfig()
    hull = _HullRows(v1, v2)
    for sigma in (1.0, 1e-2, 1e-5):
        solves = []

        def spy(lp, *args, **kwargs):
            out = solve(lp, *args, **kwargs)
            solves.append((lp, out))
            return out

        hull.carried = None
        with monkeypatch.context() as mp:
            mp.setattr(sphsep.separation, "solve", spy)
            normal, offset, slack = _separating_hyperplane_contracted(hull, sigma, cfg)
        lp, out = solves[-1]  # the last solve of the row generation
        assert out.status is LpStatus.OPTIMAL
        x = _unsplit(out.solution)
        rows = _vertex_rows(hull)
        assert np.max(rows @ x) <= _TOL, sigma
        assert lp_optimal_at(_hull_program(lp, rows), x), sigma

        u1, u2 = np.vstack([v1, sigma * v1]), np.vstack([v2, sigma * v2])
        ones = -np.ones((u1.shape[0], 1))
        union = box_pole_lp(np.vstack([np.hstack([u1, ones]), -np.hstack([u2, ones])]))
        union.lower[-1], union.upper[-1] = -10.0, 10.0
        box = max(np.max(np.abs(normal)), abs(offset))
        x = np.concatenate([normal, [offset, slack]]) / box
        assert lp_optimal_at(union, x), sigma


def test_nnls_residual_reaches_ill_conditioned_cone_members():
    # b = (a1 + a2) / 2 for columns 1e-6 apart: the first step takes a2 alone
    # and leaves residual 5e-7, where a1's gradient is only 5e-13; a solver
    # that stops on an absolute gradient of 1e-12 reports that residual, so
    # lp_optimal_at would reject a real optimum
    for delta in (1e-6, 1e-7):
        A = np.array([[1.0, 1.0], [0.0, delta], [0.0, 0.0]])
        b = A @ [0.5, 0.5]
        assert nnls_residual(A, b) <= 1e-9 * np.linalg.norm(b), delta
        # a point off the cone keeps its distance
        assert nnls_residual(A, b + [0.0, 0.0, 1e-3]) == pytest.approx(1e-3, rel=1e-9)
        assert nnls_residual(A, -b) == pytest.approx(np.linalg.norm(b), rel=1e-9)


def test_hull_solves_see_a_few_dozen_rows(monkeypatch):
    # the S^8 24+24 proof path separates 384+384 fattened vertices, yet no
    # LP it solves has more than a few dozen rows.  The first separation
    # starts at the 8 + 8 rows the pole difference ranks worst, and they
    # already hold its optimum: one solve, with no row added, on those rows,
    # the 7 caps and the 2 * 9 box rows of P in R^9.  That optimum straddles
    # the origin with slack box caps, so it carries to every contraction
    # round, and no round solves an LP
    rows = []
    hull_solves = []

    def spy(lp, *args, **kwargs):
        rows.append(len(lp.constraints))
        if sys._getframe(1).f_code.co_name == "_separating_hyperplane_contracted":
            hull_solves.append(len(lp.constraints))
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(sphsep.separation, "solve", spy)
    b1, b2 = generate(InstanceSpec(dimension=8, k1=24, k2=24, seed=11, mode=Mode.FORCE_DISJOINT))
    cert, trace = proof_path_witness(b1, b2)
    assert cert.margin > 0 and trace.iterations == 3
    assert hull_solves == [2 * 8 + 7 + 2 * 9]
    assert max(rows) <= 48, rows


def test_proof_path_lps_come_from_two_call_sites(solve_sites):
    # LPs are attributed to the function that calls lp.solve (the solve_sites
    # fixture here, the benchmark's tracer by the same rule): every LP of a
    # proof path is the fattening search's cone LP or a hull separation
    for n in (1, 2, 3, 5):
        b1, b2 = generate(InstanceSpec(dimension=n, k1=6, k2=6, seed=11, mode=Mode.FORCE_DISJOINT))
        solve_sites.clear()
        proof_path_witness(b1, b2)
        assert "_separating_hyperplane_contracted" in solve_sites, n
        assert set(solve_sites) <= {"primal_intersect", "_separating_hyperplane_contracted"}, n


def _covers(hull, sigma):
    """Does the optimum carried by ``hull`` answer a separation at sigma?"""
    return hull.carried is not None and sigma <= hull.carried[0]


def _carried_rounds(monkeypatch, b1, b2, cfg):
    """Every contraction round of the proof path on (b1, b2) that is read
    off a carried optimum, as (a copy of the hull that round saw, sigma,
    the hyperplane's (normal, offset) it got)."""
    seen = []
    separate = sphsep.separation._separating_hyperplane_contracted

    def spy(hull, sigma, cfg):
        before = copy.deepcopy(hull) if _covers(hull, sigma) else None
        got = separate(hull, sigma, cfg)
        if before is not None:
            seen.append((before, sigma, got[:2]))
        return got

    with monkeypatch.context() as mp:
        mp.setattr(sphsep.separation, "_separating_hyperplane_contracted", spy)
        proof_path_witness(b1, b2, cfg)
    return seen


def _assert_carried_rounds_are_optima(monkeypatch, seen, cfg):
    # The carried point (P, a, b, sigma a, sigma b, tau) must be an optimum
    # of the round's LP with every vertex row, certified by LP duality, and
    # re-solving the round, with the carried optimum cleared so that it is
    # solved, must give the same hyperplane.  Optimality is
    # checked in t = sigma tau: the same LP with its tau column scaled by
    # sigma, which moves no optimum.  In tau the cap duals are 1 / (2 sigma),
    # 5e6 at the floor sigma = 1e-7, past what the nonnegative least-squares
    # check resolves at its 1e-9 tolerance; in t they are at most 1.
    for hull, sigma, (normal, offset) in seen:
        sigma0, x = hull.carried
        d = x.size - 5
        assert sigma <= sigma0 and x[d] >= 0.0 >= x[d + 1]
        point = x.copy()
        point[d + 2], point[d + 3], point[d + 4] = sigma * x[d], sigma * x[d + 1], sigma * x[d + 4]
        hull.carried = None
        solves = []

        def spy(lp, *args, **kwargs):
            solves.append(lp)
            return solve(lp, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(sphsep.separation, "solve", spy)
            again, again_offset, _ = _separating_hyperplane_contracted(hull, sigma, cfg)
        full = _hull_program(solves[-1], _vertex_rows(hull))
        full.constraints[:, d + 4] /= sigma
        assert lp_optimal_at(full, point), sigma
        assert np.max(np.abs(again - normal)) <= 1e-12, sigma
        assert abs(again_offset - offset) <= 1e-12, sigma


def test_carried_rounds_are_optima_on_the_pin_cases(monkeypatch):
    carried = 0
    for (b1, b2), cfg in _proof_path_pin_cases():
        seen = _carried_rounds(monkeypatch, b1, b2, cfg)
        _assert_carried_rounds_are_optima(monkeypatch, seen, cfg)
        carried += len(seen)
    assert carried >= 150, carried


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_carried_rounds_are_optima_near_contact(monkeypatch, n):
    cfg = ToleranceConfig()
    carried = 0
    for target in (1e-4, 1e-5):
        for b1, b2 in _near_contact_pairs(n, target, 10):
            seen = _carried_rounds(monkeypatch, b1, b2, cfg)
            _assert_carried_rounds_are_optima(monkeypatch, seen, cfg)
            carried += len(seen)
    assert carried >= 5, carried


@pytest.mark.parametrize("n, m", [(8, 24), (20, 40)])
def test_carried_rounds_are_optima_on_large_proof_paths(monkeypatch, n, m):
    cfg = ToleranceConfig()
    seen = _carried_rounds(monkeypatch, *_large_pair(n, m), cfg)
    assert seen
    _assert_carried_rounds_are_optima(monkeypatch, seen, cfg)


def _union_hull(seed, c1, c2, spread=0.5):
    """Vertex sets of three points around c1 and c2, drawn as in
    test_contracted_separation_matches_materialized_union."""
    rng = np.random.default_rng(seed)
    v1 = np.array(c1) + spread * rng.standard_normal((3, 2))
    v2 = np.array(c2) + spread * rng.standard_normal((3, 2))
    return _HullRows(v1, v2)


@pytest.mark.parametrize("c1, c2", [((0.6, 0.0), (0.2, 0.0)), ((0.2, 0.0), (0.6, 0.0))])
def test_one_sided_optimum_is_solved_again(monkeypatch, c1, c2):
    # small hulls on one side of the origin: the sigma = 1 optimum leaves
    # both box caps slack (duals 0), but a and b have one sign, so
    # (P, a, b, sigma a, sigma b, tau) is infeasible at smaller sigma
    # (sigma b < b for b > 0, sigma a > a for a < 0): it must not be
    # carried, and the next round is solved
    cfg = ToleranceConfig()
    hull = _union_hull(3, c1, c2, spread=0.05)
    solved = []

    def spy(lp, *args, **kwargs):
        out = solve(lp, *args, **kwargs)
        solved.append((lp, out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(sphsep.separation, "solve", spy)
        _separating_hyperplane_contracted(hull, 1.0, cfg)
        lp, out = solved[-1]
        _separating_hyperplane_contracted(hull, 0.5, cfg)
    assert hull.carried is None and solved[-1][0] is not lp
    x = _unsplit(out.solution)
    box_caps = out.duals[_caps(lp)][5:]
    assert np.max(box_caps) <= _TOL and not x[2] >= 0.0 >= x[3]
    point = x.copy()
    point[4], point[5] = 0.5 * x[2], 0.5 * x[3]
    assert lp_residual(_hull_program(lp), point) > 0.05


def test_overlapping_hulls_have_no_positive_slack():
    # equal vertex sets leave no room between the hulls: the optimal slack
    # is zero, and the separation refuses it
    v = np.array([[0.2, 0.1], [-0.3, 0.4], [0.1, -0.5]])
    with pytest.raises(ContractionStalled, match="no positive slack"):
        _separating_hyperplane_contracted(_HullRows(v, v.copy()), 1.0, ToleranceConfig())


def test_hull_lp_that_is_not_optimal_has_no_positive_slack(monkeypatch):
    # a relaxation is always feasible and bounded, so a solve that reports
    # otherwise is a numerical breakdown: row generation stops there and
    # the separation raises instead of reading a solution
    def breakdown(lp, *args, **kwargs):
        return LpOutcome(status=LpStatus.INFEASIBLE)

    monkeypatch.setattr(sphsep.separation, "solve", breakdown)
    hull = _union_hull(21, (3.0, 0.0), (-3.0, 0.0))
    with pytest.raises(ContractionStalled, match="no positive slack"):
        _separating_hyperplane_contracted(hull, 1.0, ToleranceConfig())


def test_zero_normal_is_refused(monkeypatch):
    # a positive slack forces a nonzero normal, so only roundoff could give
    # a zero one; its norm is made to read 0 here, and the separation
    # raises instead of dividing by it
    monkeypatch.setattr(sphsep.separation, "_norm", lambda v: 0.0)
    hull = _union_hull(21, (3.0, 0.0), (-3.0, 0.0))
    with pytest.raises(ContractionStalled, match="zero normal"):
        _separating_hyperplane_contracted(hull, 1.0, ToleranceConfig())


def test_box_capped_optimum_is_solved_again():
    # hulls on opposite sides of the origin, but the sigma = 1 optimum sits
    # on the box cap sigma tau <= alpha + 1 (dual 0.22): it is not carried,
    # and rightly so, since at sigma = 0.5 that cap has room and the
    # optimum moves to another normal
    cfg = ToleranceConfig()
    hull = _union_hull(21, (3.0, 0.0), (-3.0, 1.0))
    normal, _, _ = _separating_hyperplane_contracted(hull, 1.0, cfg)
    assert hull.carried is None
    # a carried round would have kept the sigma = 1 normal
    half, _, _ = _separating_hyperplane_contracted(
        _union_hull(21, (3.0, 0.0), (-3.0, 1.0)), 0.5, cfg
    )
    assert np.max(np.abs(half - normal)) > 0.05


def test_straddling_optimum_carries_to_smaller_sigma(monkeypatch):
    # hulls on opposite sides of the origin with slack box caps: the
    # sigma = 1 optimum is carried, the separation at sigma = 0.5 is read
    # off it without an LP and is the one a solve on a fresh hull finds,
    # while a larger sigma, which the carried optimum does not cover, is
    # solved
    cfg = ToleranceConfig()
    solved = []

    def spy(lp, *args, **kwargs):
        solved.append(lp)
        return solve(lp, *args, **kwargs)

    for seed in (3, 9):
        hull = _union_hull(seed, (3.0, 0.0), (-3.0, 1.0))
        _separating_hyperplane_contracted(hull, 1.0, cfg)
        assert hull.carried is not None and hull.carried[0] == 1.0
        with monkeypatch.context() as mp:
            mp.setattr(sphsep.separation, "solve", spy)
            got = _separating_hyperplane_contracted(hull, 0.5, cfg)
            assert not solved
            _separating_hyperplane_contracted(copy.deepcopy(hull), 1.5, cfg)
            assert solved
            solved.clear()
        want = _separating_hyperplane_contracted(
            _union_hull(seed, (3.0, 0.0), (-3.0, 1.0)), 0.5, cfg
        )
        assert np.max(np.abs(got[0] - want[0])) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12
        assert abs(got[2] - want[2]) <= 1e-12


def test_rounds_after_the_certified_round_solve_no_lp(monkeypatch):
    # on the S^8 24+24 proof path, once a separation's optimum is certified
    # for every smaller sigma, every later round is read off it: no solve
    events = []

    def solve_spy(lp, *args, **kwargs):
        events.append("solve")
        return solve(lp, *args, **kwargs)

    separate = sphsep.separation._separating_hyperplane_contracted

    def separate_spy(hull, sigma, cfg):
        covered = _covers(hull, sigma)
        got = separate(hull, sigma, cfg)
        if covered:
            events.append("carried")
        else:
            events.append("solved" if hull.carried is None else "certified")
        return got

    for module in (sphsep.convexity, sphsep.separation):
        monkeypatch.setattr(module, "solve", solve_spy)
    monkeypatch.setattr(sphsep.separation, "_separating_hyperplane_contracted", separate_spy)
    b1, b2 = generate(InstanceSpec(dimension=8, k1=24, k2=24, seed=11, mode=Mode.FORCE_DISJOINT))
    cert, trace = proof_path_witness(b1, b2)
    assert cert.margin > 0 and trace.iterations >= 1
    rounds = [e for e in events if e != "solve"]
    assert len(rounds) == trace.iterations + 1
    after = events[events.index("certified") + 1 :]
    assert after == ["carried"] * len(after) and after


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_openness_probe_matches_per_sample_loop(seed):
    b1, b2 = disjoint_pair(seed=seed, dim=1 + seed, k1=4, k2=5)
    w = dual_witness(b1, b2).witness
    got = wedge_openness_probe(b1, b2, w, 50, rng=np.random.default_rng(seed))
    want = openness_probe_oracle(b1, b2, w, 50, rng=np.random.default_rng(seed))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class _DrawsAlongFirstAxis:
    """An rng whose standard-normal draws, of any shape, all point along
    e_0: against the pole e_0 each has a tangent part of exactly zero."""

    def standard_normal(self, size):
        out = np.zeros(size)
        out[..., 0] = 1.5
        return out


def test_openness_probe_zero_tangent_raises():
    b1 = SphericalBody(np.array([[1.0, 0.0]]))
    b2 = SphericalBody(np.array([[-1.0, 0.0]]))
    for probe in (wedge_openness_probe, openness_probe_oracle):
        with pytest.raises(ZeroVector):
            probe(b1, b2, [1.0, 0.0], 50, rng=_DrawsAlongFirstAxis())


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


def test_intersecting_dual_witness_solves_one_lp(solve_sites):
    # the pole LP's duals are the intersecting certificate, and each cap's
    # generator sum is a pole, so neither a hemisphericity LP nor the cone
    # LP runs, where the cone route made 4 solves
    spec = InstanceSpec(dimension=3, k1=6, k2=5, seed=2, mode=Mode.FORCE_INTERSECTING)
    b1, b2 = generate(spec)
    solve_sites.clear()
    assert dual_witness(b1, b2).kind == "intersecting"
    assert solve_sites == ["dual_witness"]


def test_primal_intersect_solves_only_the_cone_lp(solve_sites):
    # each cap's generator sum proves its body hemispherical; on the
    # disjoint pair the normalized difference of the two sums is a wedge
    # member, which certifies disjointness without an LP, and the
    # intersecting pair takes the cone LP alone
    b1, b2 = disjoint_pair(seed=1, dim=3)
    assert primal_intersect(b1, b2) is None
    assert solve_sites == []
    spec = InstanceSpec(dimension=3, k1=4, k2=4, seed=1, mode=Mode.FORCE_INTERSECTING)
    assert primal_intersect(*generate(spec)).kind == "intersecting"
    assert solve_sites == ["primal_intersect"]


def _lopsided_s1_body():
    # 30 generators within 3e-8 rad of angle 0 and one at pi - 0.1: the
    # body spans an arc shorter than pi, so it is hemispherical, but the
    # generator sum points near angle 0 and sees the last one at a negative dot
    angles = np.append(1e-9 * np.arange(30), np.pi - 0.1)
    return SphericalBody(np.column_stack([np.cos(angles), np.sin(angles)]))


def test_generator_sum_that_is_no_pole_falls_back_to_the_lp(monkeypatch):
    body = _lopsided_s1_body()
    g = body.generators
    total = g.sum(axis=0)
    assert g.shape[0] == 31 and np.min(g @ total) < 0.0
    lps = []

    def spy(lp, *args, **kwargs):
        lps.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(sphsep.convexity, "solve", spy)

    def only_the_lopsided_body_solved():
        # the hemisphericity LPs solved since the last call: exactly one,
        # the pole LP on the lopsided body's generators
        seen = [lp.constraints for lp in lps]
        lps.clear()
        return len(seen) == 1 and np.array_equal(seen[0], _pole_lp(g).constraints)

    # the other body shares the generator at angle 0, and its own generator
    # sum is a pole: the lopsided body alone needs the LP, on the cone route
    # and on the dual one
    shared = SphericalBody(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert primal_intersect(shared, body).kind == "intersecting"
    assert only_the_lopsided_body_solved()
    cert = dual_witness(body, shared)
    assert cert.kind == "intersecting" and only_the_lopsided_body_solved()
    assert cert.lam.min() >= 0.0 and cert.mu.min() >= 0.0
    assert _dual_outcome(dual_witness_oracle, body, shared)[0] == "intersecting"
    # disjoint: the fallback runs, and the verdict is the same as before
    lps.clear()
    far = SphericalBody(np.array([[np.cos(-1.5), np.sin(-1.5)]]))
    assert primal_intersect(far, body) is None and only_the_lopsided_body_solved()
    assert _dual_outcome(dual_witness, far, body) == _dual_outcome(dual_witness_oracle, far, body)


def test_disjoint_pair_off_the_pole_difference_takes_the_cone_lp(solve_sites):
    # a point at angle -1.5 against the lopsided arc [0, pi - 0.1]: the arc's
    # pole comes from the LP (near angle 1.52), and the normalized
    # difference of the two poles sees the arc's end at angle 0 at a negative
    # dot, so it certifies nothing and the cone LP decides
    body = _lopsided_s1_body()
    far = SphericalBody(np.array([[np.cos(-1.5), np.sin(-1.5)]]))
    toward = _pole_difference(far.generators[0], sphsep.convexity.hemisphericity_witness(body))
    assert not wedge_membership(far, body, toward).member
    solve_sites.clear()
    assert primal_intersect(far, body) is None
    assert solve_sites == ["hemisphericity_witness", "primal_intersect"]
    assert primal_intersect_oracle(far, body) is None


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_cap_pairs_certify_disjointness_without_an_lp(monkeypatch, solve_sites, dim):
    # caps: the generator sums are poles and their normalized difference is
    # a wedge member, both for the bodies (check) and for the fattened
    # bodies at the proof path's accepted radius
    b1, b2 = disjoint_pair(seed=0, dim=dim, k1=6, k2=5)
    solve_sites.clear()
    assert primal_intersect(b1, b2) is None
    assert solve_sites == []
    verdicts = []
    inner = sphsep.separation.primal_intersect

    def spy(c1, c2, cfg):
        before = len(solve_sites)
        verdicts.append((inner(c1, c2, cfg), solve_sites[before:]))
        return verdicts[-1][0]

    monkeypatch.setattr(sphsep.separation, "primal_intersect", spy)
    proof_path_witness(b1, b2)
    assert verdicts[-1] == (None, [])


def _oracles_style_pairs(count, seed):
    """Pairs on S^3..S^12 with 16..64 generators per body, in each of the
    three modes, as the benchmark's oracles workload draws them."""
    modes = (Mode.FORCE_DISJOINT, Mode.FORCE_INTERSECTING, Mode.UNCONSTRAINED)
    rng = np.random.default_rng(seed)
    for i in range(count):
        k1, k2 = (int(k) for k in rng.integers(16, 65, size=2))
        yield generate(InstanceSpec(dimension=3 + i % 10, k1=k1, k2=k2,
                                    seed=int(rng.integers(2**31)), mode=modes[i % 3]))


def test_pole_lp_ray_is_a_gordan_certificate():
    # on intersecting pairs the polar pole LP is unbounded, and its ray gives
    # sum lam Q = sum mu R with lam, mu >= 0 summing to 1, without the cone LP
    seen = 0
    for b1, b2 in _oracles_style_pairs(60, seed=12):
        cert = dual_witness(b1, b2)
        if cert.kind != "intersecting":
            continue
        seen += 1
        out = solve(_pole_lp(np.vstack([b1.generators, -b2.generators])))
        assert out.status is LpStatus.UNBOUNDED
        lam, mu = cert.lam, cert.mu
        assert lam.min() >= 0.0 and mu.min() >= 0.0
        assert lam.sum() > 0.0 and mu.sum() > 0.0
        assert abs(lam.sum() + mu.sum() - 1.0) <= 1e-12
        point = lam @ b1.generators
        assert np.max(np.abs(point - mu @ b2.generators)) <= 1e-12
        assert np.allclose(cert.common_point, normalize(point), atol=1e-15)
        assert primal_intersect(b1, b2) is not None
    assert seen >= 20


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


def _dual_outcome(fn, b1, b2):
    try:
        cert = fn(b1, b2)
    except SphSepError as exc:
        return type(exc)
    fields = (cert.witness, cert.margin, cert.lam, cert.mu, cert.common_point)
    return cert.kind, tuple(None if f is None else np.asarray(f).tobytes() for f in fields)


def test_certificate_first_matches_hemisphericity_first_order():
    # disjoint verdicts and errors are those of the hemisphericity-first
    # order, bit for bit; an intersecting verdict now comes from the pole
    # LP's duals instead of the cone LP, so its coefficients differ, but it
    # must still be a certificate
    kinds = set()
    for b1, b2 in _order_cases():
        got = _dual_outcome(dual_witness, b1, b2)
        want = _dual_outcome(dual_witness_oracle, b1, b2)
        kind = got if isinstance(got, type) else got[0]
        kinds.add(kind)
        if kind != "intersecting":
            assert got == want
        else:
            assert want[0] == "intersecting"
            cert = dual_witness(b1, b2)
            assert cert.lam.min() >= 0.0 and cert.mu.min() >= 0.0
            p, q = cert.lam @ b1.generators, cert.mu @ b2.generators
            assert np.linalg.norm(p) > 0.0
            assert np.allclose(normalize(p), normalize(q), atol=1e-12)
            assert np.allclose(cert.common_point, normalize(p), atol=1e-15)
    assert kinds == {"disjoint", "intersecting", NotHemispherical, NumericallyAmbiguous}


def test_primal_intersect_matches_the_pole_scaled_cone_lp():
    # scaling the cone LP by sum lam = 1 instead of by body 1's pole changes
    # no verdict and no error, and its certificate is normalized like the
    # pole LP's duals
    kinds = set()
    pairs = itertools.chain(_order_cases(), _oracles_style_pairs(60, seed=12))
    for b1, b2 in pairs:
        try:
            got = primal_intersect(b1, b2)
        except SphSepError as exc:
            got = type(exc)
        try:
            want = primal_intersect_oracle(b1, b2)
        except SphSepError as exc:
            want = type(exc)
        if isinstance(got, SeparationCertificate):
            assert isinstance(want, SeparationCertificate)
            lam, mu = got.lam, got.mu
            assert lam.min() >= 0.0 and mu.min() >= 0.0
            assert abs(lam.sum() + mu.sum() - 1.0) <= 1e-12
            point = lam @ b1.generators
            assert np.max(np.abs(point - mu @ b2.generators)) <= 1e-12
            assert np.array_equal(got.common_point, normalize(point))
            got = "intersecting"
        else:
            assert got == want
        kinds.add(got)
    assert kinds == {None, "intersecting", NotHemispherical}


def test_polar_pole_lp_matches_the_box_form():
    # the polar pole LP (2n + 3 rows) answers as the box form (one row per
    # generator) did: the same verdict or error class, and its margin 1/v is
    # the box optimum t
    kinds = set()
    pairs = itertools.chain(_order_cases(), _oracles_style_pairs(60, seed=12))
    for b1, b2 in pairs:
        got = _dual_outcome(dual_witness, b1, b2)
        want = _dual_outcome(box_dual_witness, b1, b2)
        kind = got if isinstance(got, type) else got[0]
        assert kind == (want if isinstance(want, type) else want[0])
        kinds.add(kind)
        rows = np.vstack([b1.generators, -b2.generators])
        t, _ = _pole_margin(solve(_pole_lp(rows)), rows.shape[1])
        box = solve_box(box_pole_lp(rows))
        assert abs(t - box.objective_value) <= 1e-12
    assert kinds == {"disjoint", "intersecting", NotHemispherical, NumericallyAmbiguous}

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sphsep.convexity import (
    SphericalBody,
    TangentPolytope,
    _dedupe_rows,
    fatten,
    hemisphericity_witness,
    project_body,
    pullback,
)
from sphsep.errors import (
    DimensionMismatch,
    NegativeEpsilon,
    NotHemispherical,
    OutsideOpenHemisphere,
    ZeroVector,
)
from sphsep.geometry import ToleranceConfig, central_unproject, normalize, orthonormal_frame

from .oracles import dedupe_rows_oracle, hull_member_oracle

S = 1.0 / np.sqrt(2.0)


def cap_body(rng, center, k, spread=0.4):
    """k generators within angle spread of a unit center."""
    gens = []
    for _ in range(k):
        raw = rng.standard_normal(center.size)
        raw -= (raw @ center) * center
        t = raw / np.linalg.norm(raw)
        theta = rng.uniform(0.0, spread)
        gens.append(np.cos(theta) * center + np.sin(theta) * t)
    return SphericalBody.from_points(np.array(gens))


def test_body_validates_and_dedupes():
    body = SphericalBody(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert body.generators.shape[0] == 2
    assert body.n == 1
    with pytest.raises(DimensionMismatch):
        SphericalBody(np.array([[1.0, 1.0]]))  # not unit length


TOL = 1e-12


@pytest.mark.parametrize(
    "rows, kept",
    [
        # chain a ~ b ~ c with |a - c| > tol: b repeats a, c repeats only
        # the dropped b, so a and c stay
        ([[0.0, 0.0], [0.6 * TOL, 0.0], [1.2 * TOL, 0.0]], [0, 2]),
        # duplicates that are not adjacent
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.5 * TOL], [0.5, 0.5], [0.0, 1.0]], [0, 1, 3]),
        # a distance of exactly tol repeats, the next double above does not
        ([[0.0, 0.0], [TOL, 0.0]], [0]),
        ([[0.0, 0.0], [np.nextafter(TOL, 1.0), 0.0]], [0, 1]),
        ([[0.3, -0.4, 0.5]], [0]),
    ],
    ids=["chain", "non_adjacent", "at_tol", "above_tol", "single_row"],
)
def test_dedupe_rows_matches_pairwise_reference(rows, kept):
    rows = np.array(rows)
    got = _dedupe_rows(rows, TOL)
    assert np.array_equal(got, dedupe_rows_oracle(rows, TOL))
    assert np.array_equal(got, rows[kept])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dedupe_rows_property_planted_near_duplicates(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    rows = rng.standard_normal((int(rng.integers(1, 8)), d))
    for _ in range(int(rng.integers(0, 10))):
        # a copy of an earlier row moved by up to 2 tol per coordinate, so
        # some copies repeat it and some do not
        src = rows[int(rng.integers(rows.shape[0]))]
        near = src + rng.uniform(-2.0, 2.0, d) * TOL
        rows = np.insert(rows, int(rng.integers(rows.shape[0] + 1)), near, axis=0)
    assert np.array_equal(_dedupe_rows(rows, TOL), dedupe_rows_oracle(rows, TOL))


@pytest.mark.parametrize("seed", range(8))
def test_dedupe_rows_crowded_first_coordinate(seed):
    # every row shares coordinate 0 exactly, so the sweep's window of each
    # row holds all earlier rows; near copies and chains in the other
    # coordinates decide
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((int(rng.integers(2, 12)), 3))
    for _ in range(int(rng.integers(5, 30))):
        src = rows[int(rng.integers(rows.shape[0]))]
        near = src + rng.uniform(-2.0, 2.0, 3) * TOL
        rows = np.insert(rows, int(rng.integers(rows.shape[0] + 1)), near, axis=0)
    rows[:, 0] = 0.25
    assert np.array_equal(_dedupe_rows(rows, TOL), dedupe_rows_oracle(rows, TOL))


@pytest.mark.parametrize("start", [0.0, -1.0, 1e3])
@pytest.mark.parametrize("seed", range(4))
def test_dedupe_rows_chains_across_window_edges(start, seed):
    # chains along coordinate 0 with links of 0.5 to 1.5 tol, shuffled so
    # that a row's close earlier rows sit on both sides of it and at the
    # edges of its window; at 1e3 a tol is only a few ulps
    rng = np.random.default_rng(seed)
    steps = rng.choice([0.5, 0.7, 1.0, 1.2, 1.5], size=24) * TOL
    x0 = start + np.cumsum(steps)
    rows = np.column_stack([x0, rng.choice([0.0, 0.5 * TOL, 2.0 * TOL], size=24)])
    rows = rows[rng.permutation(24)]
    assert np.array_equal(_dedupe_rows(rows, TOL), dedupe_rows_oracle(rows, TOL))


def test_from_points_normalizes():
    body = SphericalBody.from_points(np.array([[3.0, 0.0], [0.0, 0.5]]))
    assert np.allclose(body.generators, np.eye(2))


@pytest.mark.parametrize(
    "points, error",
    [
        ([[1.0, 0.0], [0.0, 1e-13]], ZeroVector),
        ([[1.0, 0.0], [np.nan, 1.0]], ValueError),
        ([[1.0, 0.0], [np.inf, 1.0]], ValueError),
        (np.ones((2, 2, 2)), ValueError),
    ],
)
def test_from_points_rejects_malformed_rows(points, error):
    with pytest.raises(error):
        SphericalBody.from_points(np.array(points))


def test_body_generators_frozen():
    body = SphericalBody(np.eye(3))
    with pytest.raises(ValueError):
        body.generators[0, 0] = 0.5


def test_hemisphericity_singleton():
    body = SphericalBody(np.array([[0.0, 1.0, 0.0]]))
    w = hemisphericity_witness(body)
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_hemisphericity_octant_triple():
    body = SphericalBody(np.eye(3))
    w = hemisphericity_witness(body)
    assert np.isclose(np.linalg.norm(w), 1.0)
    assert np.all(body.generators @ w > 0.1)


def test_hemisphericity_rejects_antipodal_pair():
    body = SphericalBody(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(NotHemispherical):
        hemisphericity_witness(body)


def test_hemisphericity_rejects_spanning_triangle():
    # three S^1 points at 120 degrees: every open half-circle misses one
    ang = 2.0 * np.pi / 3.0
    pts = np.array(
        [[np.cos(k * ang), np.sin(k * ang)] for k in range(3)]
    )
    with pytest.raises(NotHemispherical):
        hemisphericity_witness(SphericalBody(pts))


def test_hemisphericity_judges_margin_at_unit_scale():
    # the pole (1,1)/sqrt2 sees both generators at 0.9e-9, inside the 1e-9
    # band; only the box-scale optimum (sqrt2 larger) would clear it
    th = 0.9e-9
    p, e = np.array([S, S]), np.array([S, -S])
    body = SphericalBody(
        np.array([np.cos(th) * e + np.sin(th) * p, -np.cos(th) * e + np.sin(th) * p])
    )
    with pytest.raises(NotHemispherical):
        hemisphericity_witness(body)


def test_project_body_known_coordinates():
    body = SphericalBody(np.array([[0.0, 0.0, 1.0], [0.0, S, S]]))
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    poly = project_body(body, frame)
    assert poly.vertices.shape[0] == 2
    assert np.allclose(poly.vertices, [[0.0, 0.0], [0.0, 1.0]])


def test_project_body_requires_open_hemisphere():
    body = SphericalBody(np.array([[1.0, 0.0, 0.0]]))
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(OutsideOpenHemisphere):
        project_body(body, frame)


def test_fatten_single_vertex_cross_polytope():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    poly = TangentPolytope(frame=frame, vertices=np.zeros((1, 2)))
    fat = fatten(poly, 1.0)
    assert np.allclose(
        fat.vertices, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    )


def test_fatten_zero_radius_is_identity():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    poly = TangentPolytope(frame=frame, vertices=np.array([[0.5, -0.5]]))
    assert fatten(poly, 0.0) is poly


def test_fatten_rejects_negative_radius():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    poly = TangentPolytope(frame=frame, vertices=np.zeros((1, 2)))
    with pytest.raises(NegativeEpsilon):
        fatten(poly, -0.1)


def test_fatten_originals_become_interior():
    rng = np.random.default_rng(17)
    frame = orthonormal_frame(normalize(rng.standard_normal(4)))
    poly = TangentPolytope(frame=frame, vertices=rng.standard_normal((5, 3)))
    eps = 0.1
    fat = fatten(poly, eps)
    assert fat.vertices.shape[0] == 5 * 6
    for v in poly.vertices:
        for k in range(3):
            for sign in (1.0, -1.0):
                probe = v.copy()
                probe[k] += sign * 0.9 * eps
                assert hull_member_oracle(fat.vertices, probe, tol=1e-8)


def test_pullback_inverts_projection():
    rng = np.random.default_rng(23)
    center = normalize(rng.standard_normal(4))
    body = cap_body(rng, center, 6)
    frame = orthonormal_frame(center)
    back = pullback(project_body(body, frame))
    assert back.generators.shape == body.generators.shape
    assert np.max(np.abs(back.generators - body.generators)) < 1e-12


def test_pullback_matches_per_vertex_unprojection():
    rng = np.random.default_rng(29)
    center = normalize(rng.standard_normal(5))
    frame = orthonormal_frame(center)
    poly = fatten(project_body(cap_body(rng, center, 7), frame), 0.05)
    back = pullback(poly)
    ref = np.array([central_unproject(frame, x) for x in poly.vertices])
    assert back.generators.shape == ref.shape
    assert np.max(np.abs(back.generators - ref)) < 1e-15

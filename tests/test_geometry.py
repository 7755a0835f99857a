import ast
import dataclasses
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import sphsep.geometry
from sphsep.errors import OutsideOpenHemisphere, ZeroVector
from sphsep.geometry import (
    DEFAULT_CONFIG,
    ToleranceConfig,
    _norm,
    central_project,
    central_unproject,
    normalize,
    orthonormal_frame,
)

from .oracles import gram_schmidt_frame


def test_norm_is_np_linalg_norm_bit_for_bit():
    # contiguous vectors, strided views and reversed views, whose dot may
    # round differently from their copy's, over sizes and scales
    rng = np.random.default_rng(4)
    for n in range(1, 200):
        big = rng.standard_normal(3 * n) * 10.0 ** rng.uniform(-150, 150)
        for v in (big[:n], big[::3], big[::-3], big[n - 1 :: -1]):
            got, want = _norm(v), np.linalg.norm(v)
            assert type(got) is float and got == want


finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def unit_vectors(dim_min=2, dim_max=6):
    return (
        st.integers(min_value=dim_min, max_value=dim_max)
        .flatmap(lambda d: st.lists(finite_coords, min_size=d, max_size=d))
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


def test_tolerance_config_defaults_positive():
    cfg = ToleranceConfig()
    assert cfg.margin_tol > 0 and cfg.offset_tol > 0
    assert cfg.max_iter >= 1


@pytest.mark.parametrize("field", ["margin_tol", "offset_tol"])
def test_tolerance_config_rejects_nonpositive(field):
    for value in (0.0, -1e-9, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: value})


@pytest.mark.parametrize("field", ["margin_tol", "offset_tol", "max_iter"])
def test_tolerance_config_rejects_booleans(field):
    with pytest.raises(TypeError):
        ToleranceConfig(**{field: True})


def test_tolerance_config_has_three_fields():
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == [
        "margin_tol",
        "offset_tol",
        "max_iter",
    ]
    # the pivot budget is derived, not a fourth setting
    assert ToleranceConfig(max_iter=3).max_pivots == 300


@pytest.mark.parametrize("max_iter", [1.5, 2.0])
def test_tolerance_config_rejects_non_integral_max_iter(max_iter):
    with pytest.raises(TypeError):
        ToleranceConfig(max_iter=max_iter)


def test_normalize_scales_to_unit():
    v = normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_normalize_rejects_zero():
    with pytest.raises(ZeroVector):
        normalize([0.0, 0.0, 0.0])


def test_normalize_zero_threshold_is_1e_12():
    with pytest.raises(ZeroVector):
        normalize([1e-12, 0.0])
    assert np.array_equal(normalize([2e-12, 0.0]), [1.0, 0.0])


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda d: st.lists(finite_coords, min_size=d, max_size=d)
    )
)
def test_normalize_unit_norm_property(coords):
    v = np.array(coords)
    if np.linalg.norm(v) <= 1e-9:
        return
    u = normalize(v)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    # direction preserved
    assert np.allclose(u * np.linalg.norm(v), v, atol=1e-6)


def test_frame_at_north_pole_is_axis_aligned():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    assert frame.n == 2
    assert np.allclose(frame.basis, np.eye(3)[:2])


def test_frame_is_the_gram_schmidt_frame():
    # the one-QR frame is the Gram-Schmidt frame of the same axes: random
    # bases over d = 2..9, 41 and 81, and every signed axis exactly
    rng = np.random.default_rng(20)
    for d in [*range(2, 10), 41, 81]:
        for _ in range(20):
            base = normalize(rng.standard_normal(d))
            worst = np.max(np.abs(orthonormal_frame(base).basis - gram_schmidt_frame(base)))
            assert worst < 1e-14, (d, worst)
        for axis in np.vstack([np.eye(d), -np.eye(d)]):
            assert np.array_equal(orthonormal_frame(axis).basis, gram_schmidt_frame(axis))


def test_frame_does_not_freeze_the_callers_arrays():
    base = np.array([0.0, 0.0, 1.0])
    frame = orthonormal_frame(base)
    assert base.flags.writeable
    base[0] = 0.5  # the caller's array stays theirs to change
    assert frame.base[0] == 0.0


def test_frame_deterministic():
    base = normalize([1.0, 2.0, -0.5, 0.3])
    f1 = orthonormal_frame(base)
    f2 = orthonormal_frame(base)
    assert np.array_equal(f1.basis, f2.basis)


@given(unit_vectors())
def test_frame_orthonormality_property(base):
    frame = orthonormal_frame(base)
    d = base.size
    assert frame.basis.shape == (d - 1, d)
    assert np.max(np.abs(frame.basis @ frame.basis.T - np.eye(d - 1))) < 1e-12
    assert np.max(np.abs(frame.basis @ base)) < 1e-12


def test_frame_rejects_non_unit_base():
    with pytest.raises(ValueError):
        orthonormal_frame(np.array([1.0, 1.0]))


def test_frame_arrays_are_frozen():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        frame.basis[0, 0] = 5.0


def test_project_pole_to_origin():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(central_project(frame, [0.0, 0.0, 1.0]), [0.0, 0.0])


def test_project_known_point():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(central_project(frame, [0.0, s, s]), [0.0, 1.0])


def test_project_rejects_equator_and_far_side():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(OutsideOpenHemisphere):
        central_project(frame, [1.0, 0.0, 0.0])
    with pytest.raises(OutsideOpenHemisphere):
        central_project(frame, [0.0, 0.0, -1.0])


def test_unproject_lands_on_sphere_toward_base():
    frame = orthonormal_frame(normalize([1.0, 1.0, 1.0]))
    q = central_unproject(frame, [2.0, -3.0])
    assert np.isclose(np.linalg.norm(q), 1.0)
    assert frame.base @ q > 0


def test_unproject_checks_coordinate_count():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        central_unproject(frame, [1.0, 2.0, 3.0])


@given(unit_vectors(), st.lists(finite_coords, min_size=1, max_size=5))
def test_round_trip_from_tangent_side(base, coords):
    frame = orthonormal_frame(base)
    x = np.array(coords[: frame.n])
    if x.size != frame.n or np.linalg.norm(x) > 1e3:
        return
    q = central_unproject(frame, x)
    assert np.allclose(central_project(frame, q), x, atol=1e-9 * (1 + np.sum(x * x)))


def test_round_trip_from_sphere_side():
    rng = np.random.default_rng(6)
    for _ in range(200):
        base = normalize(rng.standard_normal(4))
        frame = orthonormal_frame(base)
        q = normalize(rng.standard_normal(4))
        if base @ q <= 0.05:  # stay clearly inside the open hemisphere
            continue
        x = central_project(frame, q)
        assert np.linalg.norm(central_unproject(frame, x) - q) < 1e-12


def test_matrix_projection_pair_is_the_per_row_pair():
    rng = np.random.default_rng(21)
    for d in range(2, 10):
        frame = orthonormal_frame(normalize(rng.standard_normal(d)))
        q = rng.standard_normal((40, d))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q = q[q @ frame.base > 0.05]
        x = central_project(frame, q)
        per_row = np.array([central_project(frame, row) for row in q])
        scale = 1.0 + np.sum(x * x, axis=1, keepdims=True)
        assert np.all(np.abs(x - per_row) <= 1e-15 * scale)
        back = central_unproject(frame, x)
        assert np.max(np.abs(back - [central_unproject(frame, row) for row in x])) < 1e-15
        assert np.max(np.abs(back - q)) < 1e-12


def test_project_rejects_a_matrix_with_one_row_outside():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    q = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.8, 0.0, -0.6], [0.0, 0.6, 0.8]])
    with pytest.raises(OutsideOpenHemisphere, match="-6.000e-01"):
        central_project(frame, q)
    assert central_project(frame, q[[0, 1, 3]]).shape == (3, 2)


def test_projection_pair_checks_rows():
    frame = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    for bad in ([[0.0, 1.0]], np.ones((1, 1, 3)), [[0.0, np.nan, 1.0]]):
        with pytest.raises(ValueError):
            central_project(frame, bad)
    for bad in ([[1.0, 2.0, 3.0]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError):
            central_unproject(frame, bad)


def test_every_geometry_name_has_a_caller_in_the_package():
    # no public geometry API that only tests call: each exported name is
    # imported by some other module of the package than its re-export
    src = Path(sphsep.geometry.__file__).parent
    imported = set()
    for path in src.glob("*.py"):
        if path.name in ("geometry.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "geometry":
                imported |= {alias.name for alias in node.names}
    assert sorted(set(sphsep.geometry.__all__) - imported) == []

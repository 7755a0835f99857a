import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from sphsep.errors import OutsideOpenHemisphere, ZeroVector
from sphsep.geometry import (
    DEFAULT_CONFIG,
    TangentFrame,
    ToleranceConfig,
    central_project,
    central_unproject,
    normalize,
    orthonormal_frame,
)

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
    assert cfg.unit_tol > 0 and cfg.margin_tol > 0
    assert cfg.lp_tol > 0 and cfg.offset_tol > 0
    assert cfg.max_iter >= 1


@pytest.mark.parametrize("field", ["unit_tol", "margin_tol", "lp_tol", "offset_tol"])
def test_tolerance_config_rejects_nonpositive(field):
    with pytest.raises(ValueError):
        ToleranceConfig(**{field: 0.0})
    with pytest.raises(ValueError):
        ToleranceConfig(**{field: -1e-9})


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


def test_tangent_frame_validates_shapes():
    base = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        TangentFrame(base=base, basis=np.eye(3))  # wrong row count
    with pytest.raises(ValueError):
        TangentFrame(base=base, basis=np.array([[1.0, 0, 0], [1.0, 0, 0]]))


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

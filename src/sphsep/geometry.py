"""Primitives on the unit sphere S^n sitting in R^{n+1}.

Points on S^n are plain numpy arrays of length n+1 with unit Euclidean
norm.  Tangent spaces are realized concretely: a ``TangentFrame`` carries
an explicit orthonormal basis of the tangent space at its base point, so
central (gnomonic) projection lands in ordinary R^n coordinates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import OutsideOpenHemisphere, ZeroVector

__all__ = [
    "DEFAULT_CONFIG",
    "TangentFrame",
    "ToleranceConfig",
    "central_project",
    "central_unproject",
    "normalize",
    "orthonormal_frame",
]

# Construction-time sanity tolerance for unit/orthonormality checks.
# Looser than ToleranceConfig.unit_tol so hand-written literals pass.
_SHAPE_TOL = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the library.

    unit_tol    -- norm slack for unit vectors and duplicate detection
    margin_tol  -- threshold turning strict inequalities into decidable ones
    lp_tol      -- feasibility/optimality slack inside the simplex solver
    offset_tol  -- target for the separating-hyperplane offset contraction
    max_iter    -- cap on search/contraction rounds
    """

    unit_tol: float = 1e-12
    margin_tol: float = 1e-9
    lp_tol: float = 1e-10
    offset_tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("unit_tol", "margin_tol", "lp_tol", "offset_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        try:
            operator.index(self.max_iter)
        except TypeError:
            raise TypeError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_CONFIG = ToleranceConfig()


def _as_float_array(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def normalize(v, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Scale ``v`` to unit length.

    Raises ZeroVector when the norm is at or below ``cfg.unit_tol``.
    """
    arr = _as_float_array(v)
    nrm = float(np.linalg.norm(arr))
    if nrm <= cfg.unit_tol:
        raise ZeroVector(f"cannot normalize vector with norm {nrm:.3e}")
    return arr / nrm


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of the tangent space of S^n at ``base``.

    ``basis`` has shape (n, n+1); its rows are pairwise orthonormal and
    orthogonal to ``base``.
    """

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        base = _as_float_array(self.base, "base")
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape != (base.size - 1, base.size):
            raise ValueError(
                f"basis must have shape ({base.size - 1}, {base.size}), got {basis.shape}"
            )
        if abs(np.linalg.norm(base) - 1.0) > _SHAPE_TOL:
            raise ValueError("base point is not unit length")
        gram = basis @ basis.T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > _SHAPE_TOL:
            raise ValueError("basis rows are not orthonormal")
        if np.max(np.abs(basis @ base)) > _SHAPE_TOL:
            raise ValueError("basis rows are not orthogonal to base")
        base.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def n(self) -> int:
        """Intrinsic sphere dimension."""
        return self.basis.shape[0]


def orthonormal_frame(base) -> TangentFrame:
    """Deterministic tangent frame at ``base``.

    Gram-Schmidt over the standard basis vectors, skipping the axis most
    parallel to ``base``; the same base always yields the same frame.
    """
    b = _as_float_array(base, "base")
    if abs(np.linalg.norm(b) - 1.0) > _SHAPE_TOL:
        raise ValueError("base point must be unit length")
    d = b.size
    skip = int(np.argmax(np.abs(b)))
    rows: list[np.ndarray] = []
    for j in range(d):
        if j == skip:
            continue
        v = np.zeros(d)
        v[j] = 1.0
        v -= (v @ b) * b
        for r in rows:
            v -= (v @ r) * r
        # second pass for orthogonality at machine precision
        v -= (v @ b) * b
        for r in rows:
            v -= (v @ r) * r
        rows.append(v / np.linalg.norm(v))
    return TangentFrame(base=b, basis=np.array(rows))


def central_project(
    frame: TangentFrame, q, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Gnomonic projection of ``q`` into the tangent coordinates of ``frame``.

    Maps q to the coordinates of q/(base.q) - base in the frame basis.
    Requires base.q > cfg.margin_tol; the division blows up at the equator.
    """
    qv = _as_float_array(q, "q")
    dot = float(frame.base @ qv)
    if dot <= cfg.margin_tol:
        raise OutsideOpenHemisphere(
            f"point has base dot {dot:.3e} <= margin_tol {cfg.margin_tol:.1e}"
        )
    return (frame.basis @ qv) / dot


def central_unproject(frame: TangentFrame, x) -> np.ndarray:
    """Inverse gnomonic projection: tangent coordinates back to S^n.

    Every tangent point maps into the open hemisphere of ``frame.base``.
    """
    xv = _as_float_array(x, "x")
    if xv.size != frame.n:
        raise ValueError(f"expected {frame.n} tangent coordinates, got {xv.size}")
    v = frame.base + frame.basis.T @ xv
    return v / np.linalg.norm(v)

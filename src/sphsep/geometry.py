"""Primitives on the unit sphere S^n sitting in R^{n+1}.

Points on S^n are plain numpy arrays of length n+1 with unit Euclidean
norm, and a set of points is a matrix with one point per row.  Tangent
spaces are realized concretely: a ``TangentFrame`` (made by
orthonormal_frame) carries an explicit orthonormal basis of the tangent
space at its base point, so central (gnomonic) projection, row by row on
the last axis, lands in ordinary R^n coordinates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutsideOpenHemisphere, ZeroVector

__all__ = [
    "DEFAULT_CONFIG",
    "ToleranceConfig",
    "central_project",
    "central_unproject",
    "normalize",
    "orthonormal_frame",
]

# Norm at or below which a vector counts as zero, and the max-norm distance
# within which two generators count as one.
_UNIT_TOL = 1e-12
# Construction-time sanity tolerance for unit-length checks.
# Looser than _UNIT_TOL so hand-written literals pass.
_SHAPE_TOL = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """The thresholds a caller may set.

    margin_tol  -- threshold turning strict inequalities into decidable ones
    offset_tol  -- target for the separating-hyperplane offset contraction
    max_iter    -- cap on the proof path's fattening halvings and contraction
                   rounds; each LP also gets a budget of max_pivots
                   (100 * max_iter) pivots

    Fixed: the zero-norm and duplicate tolerance (_UNIT_TOL, 1e-12), the
    unit length SphericalBody and orthonormal_frame accept and the CLI
    reads as it is (_SHAPE_TOL, 1e-9), and the simplex's (lp._TOL, 1e-10).
    """

    margin_tol: float = 1e-9
    offset_tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("margin_tol", "offset_tol", "max_iter"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a number, not a boolean")
        for name in ("margin_tol", "offset_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        try:
            operator.index(self.max_iter)
        except TypeError:
            raise TypeError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def max_pivots(self) -> int:
        """The pivot budget of one LP (or one hull-separation row generation)."""
        return 100 * self.max_iter


DEFAULT_CONFIG = ToleranceConfig()


def _as_float_array(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _rows(x, name: str, width: int | None = None) -> np.ndarray:
    """A point or a row matrix of points, finite, of ``width`` entries if given."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or width not in (None, arr.shape[-1]):
        raise ValueError(f"{name} must be a point or rows of {width} entries, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _unit_rows(pts: np.ndarray) -> np.ndarray:
    """Rows of ``pts`` scaled to unit length; ZeroVector at a norm <= 1e-12."""
    norms = np.sqrt((pts * pts).sum(axis=-1, keepdims=True))  # np.linalg.norm's formula
    if (norms <= _UNIT_TOL).any():
        raise ZeroVector(f"cannot normalize vector with norm {norms.min():.3e}")
    return pts / norms


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D array bit for bit, without its dispatch (over
    v.ravel(order="K"): a strided view's dot may round differently)."""
    v = v.ravel(order="K")
    return math.sqrt(v @ v)


def normalize(v) -> np.ndarray:
    """Scale ``v`` to unit length.

    Raises ZeroVector when the norm is at or below 1e-12.
    """
    arr = _as_float_array(v)
    nrm = _norm(arr)
    if nrm <= _UNIT_TOL:
        raise ZeroVector(f"cannot normalize vector with norm {nrm:.3e}")
    return arr / nrm


class TangentFrame(NamedTuple):
    """Orthonormal basis of the tangent space of S^n at ``base``, built by
    orthonormal_frame only.

    ``basis`` has shape (n, n+1); its rows are pairwise orthonormal and
    orthogonal to ``base``.  Both arrays are read-only copies.
    """

    base: np.ndarray
    basis: np.ndarray

    @property
    def n(self) -> int:
        """Intrinsic sphere dimension."""
        return self.basis.shape[0]


def orthonormal_frame(base) -> TangentFrame:
    """Deterministic tangent frame at ``base``.

    One QR of the columns [base, e_j for each axis j but the one most
    parallel to base], Q's columns signed by diag(R): the Gram-Schmidt frame
    of those axes, so the same base always yields the same frame.  A base
    that is not unit length raises ValueError.
    """
    b = _as_float_array(base, "base")
    if abs(_norm(b) - 1.0) > _SHAPE_TOL:
        raise ValueError("base point is not unit length")
    cols = np.zeros((b.size, b.size))
    cols[:, 0] = b
    axis = np.arange(b.size - 1)  # column 1 + i is e_i, e_{i+1} past the skipped axis
    cols[axis + (axis >= np.abs(b).argmax()), axis + 1] = 1.0
    q, r = np.linalg.qr(cols)
    # np.array keeps the transposed layout; projection bits depend on it
    frame = TangentFrame(b.copy(), np.array((q * np.sign(np.diag(r)))[:, 1:].T, dtype=float))
    frame.base.flags.writeable = frame.basis.flags.writeable = False
    return frame


def central_project(
    frame: TangentFrame, q, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Gnomonic projection of ``q``, a point or a matrix of points as rows,
    into the tangent coordinates of ``frame``.

    Maps each q to the coordinates of q/(base.q) - base in the frame basis.
    Requires min base.q > cfg.margin_tol; the division blows up at the equator.
    """
    qv = _rows(q, "q", frame.n + 1)
    dots = qv @ frame.base
    if dots.min() <= cfg.margin_tol:
        raise OutsideOpenHemisphere(
            f"point has base dot {dots.min():.3e} <= margin_tol {cfg.margin_tol:.1e}"
        )
    return (qv @ frame.basis.T) / dots[..., None]


def central_unproject(frame: TangentFrame, x) -> np.ndarray:
    """Inverse gnomonic projection: the rows of tangent coordinates ``x``
    (a point or a matrix of points) back to unit rows on S^n.

    Every tangent point maps into the open hemisphere of ``frame.base``.
    """
    return _unit_rows(frame.base + _rows(x, "x", frame.n) @ frame.basis)

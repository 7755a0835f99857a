"""Spherical bodies and their tangent-plane images.

A body is the closed spherical hull of finitely many unit generators: the set
of normalized nonnegative combinations.  Everything here stays polytopal so
that hemisphericality and separation can be certified by small linear
programs:

  * hemisphericity_witness  -- pole with positive dot against every generator
  * project_body / pullback -- move generators through the central projection
  * fatten                  -- Minkowski sum with an epsilon cross-polytope
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeEpsilon, NotHemispherical, ZeroVector
from .geometry import (
    DEFAULT_CONFIG,
    _SHAPE_TOL,
    TangentFrame,
    ToleranceConfig,
    central_project,
    normalize,
)
from .lp import GE, LinearProgram, LpStatus, solve

__all__ = [
    "SphericalBody",
    "TangentPolytope",
    "fatten",
    "hemisphericity_witness",
    "project_body",
    "pullback",
]


def _dedupe_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows that repeat an earlier kept row within tol (max-norm),
    keeping first occurrences in order.

    A sorted sweep: rows are sorted by their first coordinate, and each row
    is compared only with the earlier rows in its window of that order,
    those whose first coordinate lies within tol of its own (the window is
    widened by a few ulps, and the max-norm test decides).  A row alone in
    its window is kept without a comparison.  A row is dropped only when a
    close earlier row was itself kept, so a chain a~b~c with |a - c| > tol
    keeps a and c.
    """
    first = rows[:, 0]
    order = np.argsort(first, kind="stable")
    ranked = first[order]
    reach = 2.0 * tol + 4.0 * np.finfo(float).eps * np.abs(first)
    lo = np.searchsorted(ranked, first - reach, side="left")
    hi = np.searchsorted(ranked, first + reach, side="right")
    keep = np.ones(rows.shape[0], dtype=bool)
    for i in np.flatnonzero(hi - lo > 1):
        near = order[lo[i] : hi[i]]
        near = near[(near < i) & keep[near]]
        keep[i] = not (np.abs(rows[near] - rows[i]).max(axis=1) <= tol).any()
    return rows[keep]


@dataclass(frozen=True)
class SphericalBody:
    """Closed spherical hull of unit generators on S^n (n = ambient - 1).

    Rows of ``generators`` must be unit vectors; duplicates within unit_tol
    are dropped at construction.  Hemisphericality is a semantic requirement
    checked on demand by hemisphericity_witness, not at construction, so that
    the failure surfaces where the certificate is actually needed.
    """

    generators: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] == 0:
            raise DimensionMismatch("generators must be a nonempty 2-D array")
        if g.shape[1] < 2:
            raise DimensionMismatch("ambient dimension must be at least 2 (points on S^1 or higher)")
        if not np.all(np.isfinite(g)):
            raise DimensionMismatch("generators contain non-finite entries")
        norms = np.linalg.norm(g, axis=1)
        if np.max(np.abs(norms - 1.0)) > _SHAPE_TOL:
            raise DimensionMismatch("generators must be unit vectors; use from_points to normalize")
        g = _dedupe_rows(g, DEFAULT_CONFIG.unit_tol)
        g.flags.writeable = False
        object.__setattr__(self, "generators", g)

    @classmethod
    def from_points(
        cls, points, cfg: ToleranceConfig = DEFAULT_CONFIG
    ) -> "SphericalBody":
        """Body of the given points, each row scaled to unit length.

        Raises ValueError on input that is not a matrix of finite numbers
        and ZeroVector when some row has norm at or below cfg.unit_tol.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError(f"vector must be one-dimensional, got shape {pts.shape[1:]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("vector contains non-finite entries")
        norms = np.linalg.norm(pts, axis=-1, keepdims=True)
        if np.any(norms <= cfg.unit_tol):
            raise ZeroVector(f"cannot normalize vector with norm {norms.min():.3e}")
        return cls(generators=pts / norms)

    @property
    def n(self) -> int:
        """Sphere dimension (ambient dimension minus one)."""
        return self.generators.shape[1] - 1


@dataclass(frozen=True)
class TangentPolytope:
    """Convex hull of finitely many points in a tangent frame's coordinates."""

    frame: TangentFrame
    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise DimensionMismatch("vertices must be a nonempty 2-D array")
        if v.shape[1] != self.frame.n:
            raise DimensionMismatch(
                f"vertices have {v.shape[1]} coordinates, frame expects {self.frame.n}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)


def _pole_lp(rows: np.ndarray) -> LinearProgram:
    """maximize t subject to x . row >= t for every row, |x_k| <= 1, t free.

    The LP behind the hemisphericity and dual poles: generator rows give
    the hemisphericity LP, rows (Q, -R) the dual pole LP.  At a
    positive optimum some |x_k| is 1, so normalizing x to the unit sphere
    can only shrink the margin t.
    """
    m, k = rows.shape
    obj = np.zeros(k + 1)
    obj[-1] = 1.0
    return LinearProgram(
        objective=obj,
        constraints=np.hstack([rows, -np.ones((m, 1))]),
        relations=GE,
        rhs=np.zeros(m),
        lower=np.concatenate([-np.ones(k), [-np.inf]]),
        upper=np.concatenate([np.ones(k), [np.inf]]),
    )


def hemisphericity_witness(
    body: SphericalBody, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Unit pole P with P . Q > 0 for every generator Q, or NotHemispherical.

    Solves the pole LP on the generator rows: maximize t subject to
    P . Q_j >= t for all j, with box bounds |P_k| <= 1 and t free.  The
    maximizing P is normalized to the sphere, and the body counts as sitting
    inside an open hemisphere only when min_j P . Q_j still exceeds
    margin_tol at unit scale.
    """
    g = body.generators
    out = solve(_pole_lp(g), tol=cfg.lp_tol, max_pivots=100 * cfg.max_iter)
    margin = out.objective_value if out.status is LpStatus.OPTIMAL else 0.0
    if margin > cfg.margin_tol:
        pole = normalize(out.solution[:-1], cfg)
        margin = float(np.min(g @ pole))
    if margin <= cfg.margin_tol:
        raise NotHemispherical(
            f"no open hemisphere contains all {g.shape[0]} generators "
            f"(best margin {margin:.3e})"
        )
    return pole


def project_body(
    body: SphericalBody,
    frame: TangentFrame,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> TangentPolytope:
    """Image of the generators under the central projection at frame.base.

    Requires every generator to lie in the open hemisphere of frame.base
    (raises OutsideOpenHemisphere otherwise).  The spherical hull of the body
    corresponds to the affine hull polytope of the output.
    """
    verts = np.array([central_project(frame, q, cfg) for q in body.generators])
    return TangentPolytope(frame=frame, vertices=verts)


def fatten(poly: TangentPolytope, eps: float) -> TangentPolytope:
    """Minkowski sum with the eps cross-polytope, as a vertex set.

    Output vertices are v +- eps e_k for every input vertex v and axis k
    (vertex-major order).  For eps > 0 every input vertex lands strictly
    inside the hull of the output; eps = 0 returns the polytope unchanged.
    """
    if eps < 0:
        raise NegativeEpsilon(f"fattening radius must be nonnegative, got {eps}")
    if eps == 0:
        return poly
    n = poly.frame.n
    offsets = np.zeros((2 * n, n))
    for k in range(n):
        offsets[2 * k, k] = eps
        offsets[2 * k + 1, k] = -eps
    fat = (poly.vertices[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    return TangentPolytope(frame=poly.frame, vertices=fat)


def pullback(
    poly: TangentPolytope, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> SphericalBody:
    """Body whose generators are the unprojections of the polytope vertices.

    Always hemispherical with witness frame.base, since every unprojected
    point has dot 1/sqrt(1 + |x|^2) > 0 against the base.
    """
    frame = poly.frame
    return SphericalBody.from_points(frame.base + poly.vertices @ frame.basis, cfg)

"""Spherical bodies and their hemisphericity poles.

A body is the closed spherical hull of finitely many unit generators: the set
of normalized nonnegative combinations.  Everything here stays polytopal so
that hemisphericality and separation can be certified by small linear
programs:

  * SphericalBody           -- unit generators, deduplicated at construction
  * hemisphericity_witness  -- pole with positive dot against every generator

Moving generators to and from a tangent plane is geometry's
central_project and central_unproject, on the row matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHemispherical
from .geometry import (
    DEFAULT_CONFIG,
    _SHAPE_TOL,
    _UNIT_TOL,
    ToleranceConfig,
    _norm,
    _rows,
    _unit_rows,
    normalize,
)
from .lp import LE, LinearProgram, LpOutcome, LpStatus, solve

__all__ = ["SphericalBody", "hemisphericity_witness"]


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
    order = first.argsort(kind="stable")
    ranked = first[order]
    reach = 2.0 * tol + 4.0 * np.finfo(float).eps * np.abs(first)
    lo = ranked.searchsorted(first - reach, side="left")
    hi = ranked.searchsorted(first + reach, side="right")
    keep = np.ones(rows.shape[0], dtype=bool)
    for i in (hi - lo > 1).nonzero()[0]:
        near = order[lo[i] : hi[i]]
        near = near[(near < i) & keep[near]]
        keep[i] = not (np.abs(rows[near] - rows[i]).max(axis=1) <= tol).any()
    return rows[keep]


@dataclass(frozen=True)
class SphericalBody:
    """Closed spherical hull of unit generators on S^n (n = ambient - 1).

    Rows of ``generators`` must be unit vectors; duplicates within 1e-12
    (max-norm) are dropped at construction.  Hemisphericality is a semantic
    requirement checked on demand by hemisphericity_witness, not at
    construction, so that the failure surfaces where the certificate is
    actually needed.
    """

    generators: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] == 0:
            raise DimensionMismatch("generators must be a nonempty 2-D array")
        if g.shape[1] < 2:
            raise DimensionMismatch("ambient dimension must be at least 2 (points on S^1 or higher)")
        if not np.isfinite(g).all():
            raise DimensionMismatch("generators contain non-finite entries")
        # np.linalg.norm's own formula along an axis, without its dispatch
        norms = np.sqrt((g * g).sum(axis=1))
        if np.abs(norms - 1.0).max() > _SHAPE_TOL:
            raise DimensionMismatch("generators must be unit vectors; use from_points to normalize")
        g = _dedupe_rows(g, _UNIT_TOL)
        g.flags.writeable = False
        object.__setattr__(self, "generators", g)

    @classmethod
    def from_points(cls, points) -> "SphericalBody":
        """Body of the given points, each row scaled by geometry._unit_rows.

        Raises ValueError on input that is not a matrix of finite numbers
        and ZeroVector when some row has norm at or below 1e-12.
        """
        return cls(generators=_unit_rows(np.atleast_2d(_rows(points, "points"))))

    @property
    def n(self) -> int:
        """Sphere dimension (ambient dimension minus one)."""
        return self.generators.shape[1] - 1


def _pole_lp(rows: np.ndarray) -> LinearProgram:
    """The pole LP in polar form: maximize sum y subject to
    -w <= rows^T y <= w, sum w <= 1, y, w >= 0.

    The LP behind the hemisphericity and dual poles: generator rows give
    the hemisphericity LP, rows (Q, -R) the dual pole LP.  It is the LP dual
    of "minimize max_k |x_k| subject to x . row >= 1 for every row", so its
    2k + 1 rows count the k coordinates, not the generators, and each is a
    "<=" row with rhs >= 0: no phase 1.  The variables are y (one per row)
    and then w (one per coordinate).  Read by _pole_margin.
    """
    m, k = rows.shape
    A = np.zeros((2 * k + 1, m + k))
    A[:k, :m] = rows.T
    A[k : 2 * k, :m] = -rows.T
    A[: 2 * k, m:] = -np.vstack([np.eye(k), np.eye(k)])
    A[-1, m:] = 1.0
    rhs = np.zeros(2 * k + 1)
    rhs[-1] = 1.0
    return LinearProgram(
        objective=np.concatenate([np.ones(m), np.zeros(k)]),
        constraints=A,
        relations=LE,
        rhs=rhs,
    )


def _pole_margin(out: LpOutcome, k: int) -> tuple[float, np.ndarray | None]:
    """(t, x) from a solved _pole_lp over k coordinates: the largest margin
    t of min_j x . row_j over the box |x_k| <= 1, and the pole x.

    A bounded optimum v gives t = 1/v, and the duals u+, u- of the two
    blocks of coordinate rows give x = u+ - u-, with x . row_j >= 1 and
    max |x_k| <= v.  An unbounded program has rows^T y = 0 for some y >= 0,
    y != 0 (Gordan's alternative): no pole, t = 0 and x None.  Near that
    alternative the optimal basis is ill-conditioned (v = 1/t grows), so
    the duals can lose the sign conditions; callers judge the normalized
    pole by direct dots.
    """
    if out.status is not LpStatus.OPTIMAL:
        return 0.0, None
    return 1.0 / out.objective_value, out.duals[:k] - out.duals[k : 2 * k]


def hemisphericity_witness(
    body: SphericalBody, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Unit pole P with P . Q > margin_tol for every generator Q, or
    NotHemispherical: the one place a hemisphericity pole is chosen.

    The normalized generator sum is tried first: one product proves the body
    hemispherical when its unit-scale margin min_j P . Q_j exceeds
    margin_tol, as it does on every cap of angular radius below pi/4 at the
    default tolerance.  Otherwise the pole LP (_pole_lp) on the generator
    rows decides: its optimum is the pole maximizing min_j P . Q_j over the
    box |P_k| <= 1, accepted when its normalization still clears margin_tol
    at unit scale.  The margin in the error is the LP's.
    """
    g = body.generators
    total = g.sum(axis=0)
    norm = _norm(total)
    if norm > _UNIT_TOL:
        pole = total / norm
        if (g @ pole).min() > cfg.margin_tol:
            return pole
    out = solve(_pole_lp(g), max_pivots=cfg.max_pivots)
    margin, x = _pole_margin(out, g.shape[1])
    if margin > cfg.margin_tol:
        pole = normalize(x)
        margin = float((g @ pole).min())
        if margin > cfg.margin_tol:
            return pole
    raise NotHemispherical(
        f"no open hemisphere contains all {g.shape[0]} generators "
        f"(best margin {margin:.3e})"
    )

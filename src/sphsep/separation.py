"""Disjointness oracles, pole witnesses, and the witness wedge.

Two spherical bodies are disjoint exactly when some pole P sees all of the
first body at positive dot and all of the second at negative dot; the set of
such poles (the witness wedge) is itself spherical convex.  This module
provides both directions of that equivalence plus an independent third
route:

  * primal_intersect    -- cone feasibility: do the spherical hulls meet?
  * dual_witness        -- margin-maximizing pole via LP
  * wedge_membership    -- direct generator dot-product test for a pole
  * proof_path_witness  -- constructive route: project to tangent planes,
                           widen by a cross-polytope, unproject, separate the
                           Euclidean hulls by a hyperplane, and contract its
                           offset to zero; one routine,
                           _separating_hyperplane_contracted, finds the
                           hyperplane of every round
  * wedge_openness_probe -- perturbation check that the wedge is open

The proof-path route never consults dual_witness, which makes the two
witness constructions independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .convexity import SphericalBody, _pole_lp, _pole_margin, hemisphericity_witness
from .errors import (
    ContractionStalled,
    DimensionMismatch,
    EpsilonSearchFailed,
    IterationLimit,
    NotHemispherical,
    NumericallyAmbiguous,
)
from .geometry import (
    DEFAULT_CONFIG,
    _UNIT_TOL,
    ToleranceConfig,
    _norm,
    _unit_rows,
    central_project,
    central_unproject,
    normalize,
    orthonormal_frame,
)
from .lp import _TOL, EQ, LE, LinearProgram, LpStatus, solve

__all__ = [
    "MembershipResult",
    "ProofTrace",
    "SeparationCertificate",
    "dual_witness",
    "primal_intersect",
    "proof_path_witness",
    "wedge_membership",
    "wedge_openness_probe",
]


class MembershipResult(NamedTuple):
    member: bool
    margin: float


@dataclass(frozen=True)
class SeparationCertificate:
    """Outcome of a disjointness query.

    kind "disjoint": ``witness`` is a unit pole with witness . Q >= margin on
    body 1 and witness . R <= -margin on body 2, margin > 0.
    kind "intersecting": ``common_point`` = normalize(sum lam Q) =
    normalize(sum mu R) with nonnegative coefficients lam and mu, normalized
    by sum lam + sum mu = 1 on every route.
    """

    kind: str
    witness: np.ndarray | None = None
    margin: float | None = None
    common_point: np.ndarray | None = None
    lam: np.ndarray | None = None
    mu: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("disjoint", "intersecting"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


@dataclass
class ProofTrace:
    """Record of the constructive separation run.

    epsilon0 is the fattening radius that kept the fattened bodies disjoint;
    offsets are the strictly decreasing |offset| of the separating
    hyperplanes, the first from the separation at sigma = 1 and one more per
    contraction round, ending below offset_tol; iterations counts the
    contraction rounds.  Every offset comes from
    _separating_hyperplane_contracted; a round that a certified earlier
    optimum carries reads it off that optimum and solves no LP.
    """

    epsilon0: float
    offsets: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.offsets) - 1


def _require_same_dimension(b1: SphericalBody, b2: SphericalBody) -> None:
    if b1.n != b2.n:
        raise DimensionMismatch(
            f"bodies live on different spheres: S^{b1.n} vs S^{b2.n}"
        )


def _pole_difference(p1: np.ndarray, p2: np.ndarray) -> np.ndarray | None:
    """normalize(p1 - p2) for hemisphericity poles p1 of body 1 and p2 of
    body 2, or None where they coincide: the direction from body 2 toward
    body 1 that the poles alone suggest."""
    diff = p1 - p2
    return None if _norm(diff) <= _UNIT_TOL else normalize(diff)


def primal_intersect(
    b1: SphericalBody,
    b2: SphericalBody,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> SeparationCertificate | None:
    """Do the closed spherical hulls meet?  None means provably disjoint;
    otherwise the intersecting certificate, with the common point and the
    cone coefficients lam and mu that build it.

    Both bodies are first shown hemispherical by hemisphericity_witness
    (NotHemispherical propagates).  When the normalized difference of the
    two poles is a wedge member (wedge_membership, at unit scale against
    margin_tol), it certifies disjointness by itself and None is returned
    without an LP.  Otherwise the cone feasibility system decides:

        lambda, mu >= 0,   sum lambda_j Q_j - sum mu_k R_k = 0,   sum lambda_j = 1:

    a common hull point is a common cone ray, and the last row pins its
    scale.  Body 1 being hemispherical keeps sum lam Q away from 0, and body
    2 being hemispherical then forces sum mu > 0, so infeasibility is the
    disjointness certificate.  The solution is divided by its sum: lam and
    mu are normalized as on every route, sum lam + sum mu = 1.  So a
    disjoint pair whose generator sums are poles and whose pole difference
    separates costs no LP, and an intersecting one only the cone LP.
    """
    _require_same_dimension(b1, b2)
    toward = _pole_difference(hemisphericity_witness(b1, cfg), hemisphericity_witness(b2, cfg))
    if toward is not None and wedge_membership(b1, b2, toward, cfg).member:
        return None
    g1, g2 = b1.generators, b2.generators
    m1, m2 = g1.shape[0], g2.shape[0]
    d = g1.shape[1]

    A = np.zeros((d + 1, m1 + m2))
    A[:d, :m1] = g1.T
    A[:d, m1:] = -g2.T
    A[d, :m1] = 1.0
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    out = solve(
        LinearProgram(objective=np.zeros(m1 + m2), constraints=A, relations=EQ, rhs=rhs),
        max_pivots=cfg.max_pivots,
    )
    if out.status is not LpStatus.OPTIMAL:
        return None
    y = out.solution / out.solution.sum()
    lam, mu = y[:m1], y[m1:]
    return SeparationCertificate(
        kind="intersecting", common_point=normalize(lam @ g1), lam=lam, mu=mu
    )


def wedge_membership(
    b1: SphericalBody,
    b2: SphericalBody,
    p,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> MembershipResult:
    """Is pole p in the witness wedge of (b1, b2)?

    Membership needs p . Q > margin_tol on every generator of b1 and
    p . R < -margin_tol on every generator of b2.  Since dots are linear,
    generator inequalities already cover the whole hulls -- no LP.  The
    reported margin min(min p.Q, -max p.R) is meaningful (negative) for
    non-members too.
    """
    pv = np.asarray(p, dtype=float)
    margin = float(min((b1.generators @ pv).min(), -(b2.generators @ pv).max()))
    return MembershipResult(member=margin > cfg.margin_tol, margin=margin)


def _wedge_margins(poles: np.ndarray, b1: SphericalBody, b2: SphericalBody) -> np.ndarray:
    """wedge_membership's margin of each row of ``poles``."""
    return np.minimum((poles @ b1.generators.T).min(1), -(poles @ b2.generators.T).max(1))


def dual_witness(
    b1: SphericalBody,
    b2: SphericalBody,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> SeparationCertificate:
    """Margin-maximizing pole, or an intersection certificate, from one LP.

    The pole LP (_pole_lp) on the rows (Q, -R), in polar form: maximize
    sum y subject to -w <= sum lam Q - sum mu R <= w, sum w <= 1, with
    y = (lam, mu) >= 0 and w >= 0.  A bounded optimum v gives the margin
    t = 1/v of the best pole in the box |P_m| <= 1, P . Q_j >= t and
    P . R_k <= -t, and the pole comes from the LP's row duals.  It is
    renormalized to the sphere (sign conditions survive), and disjointness
    is certified when it is a wedge member (wedge_membership).  That pole is
    the whole certificate: it also shows both bodies hemispherical (P for
    body 1, -P for body 2), so no hemisphericity LP is solved.

    Otherwise the same LP carries the intersecting certificate (Gordan's
    alternative): an unbounded program's recession ray has
    sum lam Q = sum mu R exactly, and in the band a bounded optimum's y
    leaves a residual of at most t.  Either is clipped of roundoff and
    divided by its sum, so sum lam + sum mu = 1, as primal_intersect
    normalizes its own.  It is accepted when both sums exceed the simplex
    tolerance, the residual sum lam Q - sum mu R is within it in max-norm
    and sum lam Q is not (near) zero; the intersecting certificate is then
    common_point = normalize(sum lam Q), after both bodies are checked
    hemispherical (hemisphericity_witness; NotHemispherical propagates).
    An intersecting pair so costs one LP plus, for a body whose generator
    sum is not a pole, a hemisphericity LP.

    When the LP gives no certificate either, primal_intersect decides: its
    intersecting certificate is returned as it is, while primal disjointness
    together with a marginal optimum is reported as NumericallyAmbiguous --
    the strict inequalities are undecidable at this tolerance.
    """
    _require_same_dimension(b1, b2)
    g1, g2 = b1.generators, b2.generators
    m1, m = g1.shape[0], g1.shape[0] + g2.shape[0]
    out = solve(_pole_lp(np.vstack([g1, -g2])), max_pivots=cfg.max_pivots)
    t, x = _pole_margin(out, g1.shape[1])
    if t > cfg.margin_tol:
        witness = normalize(x)
        unit = wedge_membership(b1, b2, witness, cfg)
        if unit.member:
            return SeparationCertificate(kind="disjoint", witness=witness, margin=unit.margin)
        t = unit.margin
    y = (out.ray if x is None else out.solution)[:m].copy()
    # simplex roundoff can leave entries just below 0; clipping it leaves
    # y >= 0, with a positive sum: v for a solution, objective . ray for a ray
    y[(y >= -_TOL) & (y < 0.0)] = 0.0
    y /= y.sum()
    lam, mu = y[:m1], y[m1:]
    point = lam @ g1
    if (
        lam.sum() > _TOL
        and mu.sum() > _TOL
        and np.abs(point - mu @ g2).max() <= _TOL
        and _norm(point) > _UNIT_TOL
    ):
        hemisphericity_witness(b1, cfg)
        hemisphericity_witness(b2, cfg)
        return SeparationCertificate(
            kind="intersecting", common_point=normalize(point), lam=lam, mu=mu
        )
    inter = primal_intersect(b1, b2, cfg)
    if inter is not None:
        return inter
    raise NumericallyAmbiguous(
        f"separation margin {t:.3e} within the tolerance band "
        f"{cfg.margin_tol:.1e} but cone feasibility says disjoint"
    )


# vertex rows a row-generation step may add to the working set, per body
_ROWS_PER_STEP = 8


def _split(rows: np.ndarray) -> np.ndarray:
    """Coefficients over variables, last axis, rewritten for the split
    columns: each variable as a (+, -) pair of nonnegative columns, in
    variable order, the - column negated (a 0.0 becomes -0.0)."""
    out = np.empty(rows.shape[:-1] + (2 * rows.shape[-1],))
    out[..., 0::2] = rows
    out[..., 1::2] = -rows
    return out


class _HullRows:
    """The fattened vertex sets of one proof path's hull separations, the
    working set of their rows that its LPs have needed so far, and the
    optimum that carries to every later contraction round, once one does.

    Over the variables (P, a, b, alpha, beta, tau) of the contracted
    separation LP, body 1's vertex y gives the row a - P . y <= 0
    (a <= P . y) and body 2's vertex y the row P . y - b <= 0 (b >= P . y);
    the alpha, beta and tau columns are zero.  Each vertex is held once, in
    ``v1`` and ``v2``; ``work`` holds one mask per body, and working_rows
    builds the masked rows only.  lp.solve takes nonnegative variables
    only, so the LP is posed on split columns (_split), with
    x = X[0::2] - X[1::2]: ``objective`` is tau on them and ``box`` the 2d
    rows of |P_m| <= 1, an upper then a lower row per coordinate.  The
    working set starts at the first row of each body or, given a direction
    ``toward`` (from body 2 toward body 1), at the _ROWS_PER_STEP rows per
    body that it ranks worst: body 1's vertices lowest along it and body
    2's highest.  It only grows, so every LP of a proof path starts from
    the rows that its earlier rounds found binding.

    ``carried`` is None until _separating_hyperplane_contracted certifies
    its optimum for every smaller sigma; it then holds (sigma, x), and
    the routine answers every later round up to that sigma off x.
    """

    def __init__(self, v1: np.ndarray, v2: np.ndarray, toward: np.ndarray | None = None):
        self.v1, self.v2 = v1, v2
        d = v1.shape[1]
        objective = np.zeros(d + 5)
        objective[-1] = 1.0
        self.objective = _split(objective)
        # P_m+ - P_m- <= 1 (P_m <= 1), then -P_m+ + P_m- <= 1 (P_m >= -1)
        self.box = np.zeros((2 * d, 2 * (d + 5)))
        m = np.arange(d)
        self.box[2 * m, 2 * m] = self.box[2 * m + 1, 2 * m + 1] = 1.0
        self.box[2 * m, 2 * m + 1] = self.box[2 * m + 1, 2 * m] = -1.0
        self.work = (np.zeros(v1.shape[0], dtype=bool), np.zeros(v2.shape[0], dtype=bool))
        self.carried: tuple[float, np.ndarray] | None = None
        if toward is None:
            self.work[0][0] = self.work[1][0] = True
        else:
            # a row's excess a - P . y (body 1) or P . y - b (body 2) at P = toward
            self._add_worst((-(v1 @ toward), v2 @ toward), -np.inf)

    def _add_worst(self, excess: tuple[np.ndarray, np.ndarray], floor: float) -> bool:
        """Add to the working set the (up to) _ROWS_PER_STEP rows of each
        body outside it with the largest excess above ``floor``; False when
        there are none."""
        added = False
        for work, part in zip(self.work, excess):
            part[work] = -np.inf
            worst = np.argsort(-part, kind="stable")[:_ROWS_PER_STEP]
            worst = worst[part[worst] > floor]
            work[worst] = True
            added |= worst.size > 0
        return added

    def add_violated(self, x: np.ndarray) -> bool:
        """Add to the working set the (up to) _ROWS_PER_STEP rows of each
        body that x violates most, by more than the simplex tolerance;
        False when no row outside the working set is violated."""
        d = self.v1.shape[1]
        return self._add_worst((x[d] - self.v1 @ x[:d], self.v2 @ x[:d] - x[d + 1]), _TOL)

    def working_rows(self) -> np.ndarray:
        """The working vertex rows on split columns, body 1's first, in vertex order."""
        u1, u2 = self.v1[self.work[0]], self.v2[self.work[1]]
        k, d = u1.shape
        rows = np.zeros((k + u2.shape[0], d + 5))
        rows[:k, :d] = -u1
        rows[:k, d] = 1.0
        rows[k:, :d] = u2
        rows[k:, d + 1] = -1.0
        return _split(rows)


def _separating_hyperplane_contracted(
    hull: _HullRows, sigma: float, cfg: ToleranceConfig
) -> tuple[np.ndarray, float, float]:
    """Max-slack hyperplane between hull(v1 u sigma v1) and hull(v2 u sigma v2).

    The proof path's one hull-separation routine: its first separation is
    the case sigma = 1, where the copies coincide with v1 and v2.  Listing
    the contracted copies as explicit vertex rows would make the tableau
    two-scale (rows at magnitude 1 and at magnitude sigma), so the union is
    solved without materializing it.  For a fixed direction P, writing
    a = min over v1 of P . y and b = max over v2 of P . y, a pair (r, t)
    separates both scales exactly when

        r + t <= min(a, sigma a)   and   r - t >= max(b, sigma b),

    capped by the |r| <= 1 box.  A min on the larger side of an inequality
    is just both of its rows, so one LP is exact for every sigma: over
    P (|P_m| <= 1), a, b, alpha, beta and tau, maximize tau subject to the
    vertex rows of ``hull`` and

        alpha <= a,  alpha <= sigma a,  b <= beta,  sigma b <= beta,
        2 sigma tau <= alpha - beta,  sigma tau <= alpha + 1,
        sigma tau <= 1 - beta,

    then t = sigma tau and r = (max(beta + t, -1) + min(alpha - t, 1)) / 2.
    The slack t is proportional to sigma; solving for tau = t / sigma
    keeps the optimum at the scale of the gap between the hulls however far
    the contraction goes, where an LP for t itself stops at t = 0 once
    sigma times the gap falls below the simplex tolerance.  The vertex rows
    are all unit-scale; sigma enters only as a coefficient of the seven cap
    rows.

    Posed to lp.solve on the split columns of ``hull``, a step's program
    is its working vertex rows (built per step), the seven caps (split per
    call, since they hold sigma) and the box rows, in that order; its
    solution X decodes as x = X[0::2] - X[1::2].

    For vertices in R^d the LP has d + 5 variables but one row per vertex
    of ``hull``, and at most d + 5 rows pin the optimum, so it is solved by
    row generation (Kelley's cutting planes): solve over the working set,
    check the solution against every vertex row, one product per body, add
    the most violated rows and solve again, until no row is violated by more
    than the simplex tolerance.  The last solution is then an optimum of
    the full LP, feasible within that tolerance like a direct solve.  The
    solves of one call share its pivot budget.  Returns
    (normal, offset, slack): the hyperplane {y : normal . y = offset}
    scaled to a unit normal, and the geometric slack, rescaled with it.

    The optimum also settles every later round.  When it straddles the
    origin (a >= 0 >= b) and the duals of the two box caps
    (sigma tau <= alpha + 1, sigma tau <= 1 - beta) are zero within the
    simplex tolerance, then for every sigma' <= sigma the point
    (P, a, b, sigma' a, sigma' b, tau) is feasible, and it is optimal: keep
    the vertex-row and box duals, and solve the stationarity of the free
    columns alpha, beta, tau for the other cap duals (those of
    alpha <= sigma' a, sigma' b <= beta and 2 sigma' tau <= alpha - beta
    become 1 / (2 sigma')).  That dual is feasible with the same objective.
    Such an optimum is stored as ``hull.carried``.  A later call whose
    sigma it covers solves no LP: it takes x = (P, a, b, sigma a, sigma b,
    tau) from the stored optimum, and its hyperplane is decoded as a
    solved one is.
    """
    d = hull.v1.shape[1]
    # variables: P_1..P_d, a, b, alpha, beta, tau
    ia, ib, ial, ibe, itau = range(d, d + 5)
    if hull.carried is not None and sigma <= hull.carried[0]:
        x = hull.carried[1].copy()
        x[ial], x[ibe] = sigma * x[ia], sigma * x[ib]
    else:
        caps = np.zeros((7, d + 5))
        caps[0, [ial, ia]] = 1.0, -1.0  # alpha <= a
        caps[1, [ial, ia]] = 1.0, -sigma  # alpha <= sigma a
        caps[2, [ib, ibe]] = 1.0, -1.0  # b <= beta
        caps[3, [ib, ibe]] = sigma, -1.0  # sigma b <= beta
        caps[4, [itau, ial, ibe]] = 2.0 * sigma, -1.0, 1.0  # 2t <= alpha - beta
        caps[5, [itau, ial]] = sigma, -1.0  # t <= alpha + 1   (r >= -1)
        caps[6, [itau, ibe]] = sigma, 1.0  # t <= 1 - beta    (r <= 1)
        tail = np.vstack([_split(caps), hull.box])
        tail_rhs = np.concatenate([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0], np.ones(2 * d)])
        budget = left = cfg.max_pivots
        while True:
            work = hull.working_rows()
            n = work.shape[0]
            # the n working rows, then the seven caps, then the box rows
            box_caps = slice(n + 5, n + 7)  # caps 5 and 6
            rhs = np.concatenate([np.zeros(n), tail_rhs])
            lp = LinearProgram(hull.objective, np.vstack([work, tail]), LE, rhs)
            try:
                out = solve(lp, max_pivots=left)
            except IterationLimit as exc:
                raise IterationLimit(
                    f"hull separation row generation, {budget - left} of {budget} "
                    f"pivots spent before this solve: {exc}"
                ) from exc
            left -= out.pivots
            # every relaxation is feasible (tau is free) and bounded (by the
            # box and one row per body), so not optimal is a numerical breakdown
            if out.status is not LpStatus.OPTIMAL:
                break
            # no X entry is -0.0, so no difference is either
            x = out.solution[0::2] - out.solution[1::2]
            if not hull.add_violated(x):
                break
        if out.status is not LpStatus.OPTIMAL or x[itau] <= _TOL:
            raise ContractionStalled(
                "contracted hull separation LP found no positive slack"
            )
        if x[ia] >= 0.0 >= x[ib] and out.duals[box_caps].max() <= _TOL:
            hull.carried = (sigma, x)
    t = sigma * x[itau]
    r = (max(x[ibe] + t, -1.0) + min(x[ial] - t, 1.0)) / 2.0
    nrm = _norm(x[:d])
    if nrm <= _TOL:
        raise ContractionStalled("degenerate zero normal in hull separation")
    return x[:d] / nrm, float(r / nrm), t / nrm


def _fatten(x: np.ndarray, eps: float) -> np.ndarray:
    """Vertices of the Minkowski sum of hull(x) with the eps cross-polytope:
    the rows x +- eps e_k for every row of tangent coordinates x and axis k,
    vertex-major.  For eps > 0 every row of x lies strictly inside their hull."""
    n = x.shape[1]
    axis = np.arange(n)
    offsets = np.zeros((2 * n, n))
    offsets[2 * axis, axis] = eps
    offsets[2 * axis + 1, axis] = -eps
    return (x[:, None, :] + offsets[None, :, :]).reshape(-1, n)


def proof_path_witness(
    b1: SphericalBody,
    b2: SphericalBody,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> tuple[SeparationCertificate, ProofTrace]:
    """Witness pole built the constructive way, for provably disjoint bodies.

    Pipeline: (1) each body's pole from hemisphericity_witness (its
    normalized generator sum when that clears margin_tol, else the pole
    LP's), the tangent frame at it and the central projection of the body.
    (2) Halving search for a fattening radius epsilon0 whose fattened
    bodies stay hemispherical and disjoint (starting at 0.5): each try
    widens the tangent coordinates by _fatten and unprojects them.
    (3) Max-slack hyperplane between the Euclidean hulls of the fattened
    generators, held once: the contracted separation at sigma = 1,
    whose row generation starts at the vertices that the pole difference
    normalize(p1 - p2) ranks worst.  (4) One contraction loop, which runs
    while the offset magnitude is >= offset_tol or the normal is not yet a
    strict member of the witness wedge of the original bodies
    (wedge_membership): adjoin a contracted copy of each vertex set
    (factor = current offset magnitude) and re-separate; the offset
    strictly decreases each round.  Every separation is one call of
    _separating_hyperplane_contracted; once a separation's optimum is
    certified for every smaller factor, each later call reads its
    hyperplane off it and solves no LP.  (5) The
    final normal, oriented toward body 1 by construction, is the witness.

    The contracted copies compose: round k's vertex set is V0 together with
    (delta_1 ... delta_k) V0, whose hull equals the iterated adjoin-and-hull
    (intermediate scales are convex combinations of the endpoints), so the
    vertex count stays at 2|V0|.

    Raises EpsilonSearchFailed when no radius keeps the fattened bodies
    disjoint (hulls touch within tolerance -- also the symptom when the
    precondition "primal_intersect is None" is violated), and
    ContractionStalled when the offset magnitude stalls, when max_iter
    rounds or a zero offset leave the normal outside the wedge, when a
    separation finds no positive slack, or when its normal is zero.
    """
    _require_same_dimension(b1, b2)
    p1, p2 = hemisphericity_witness(b1, cfg), hemisphericity_witness(b2, cfg)
    f1, f2 = orthonormal_frame(p1), orthonormal_frame(p2)
    t1 = central_project(f1, b1.generators, cfg)
    t2 = central_project(f2, b2.generators, cfg)

    # (2) fattening radius search by halving
    eps = 0.5
    for _ in range(cfg.max_iter):
        x1 = SphericalBody(central_unproject(f1, _fatten(t1, eps)))
        x2 = SphericalBody(central_unproject(f2, _fatten(t2, eps)))
        try:
            if primal_intersect(x1, x2, cfg) is None:
                break
        except NotHemispherical:
            pass  # fattened out of every hemisphere of margin margin_tol
        eps *= 0.5
    else:
        raise EpsilonSearchFailed(
            f"no fattening radius in {cfg.max_iter} halvings kept the bodies "
            "disjoint; the spherical hulls touch within tolerance"
        )

    # (3) separate the Euclidean hulls
    hull = _HullRows(x1.generators, x2.generators, _pole_difference(p1, p2))
    normal, offset, _ = _separating_hyperplane_contracted(hull, 1.0, cfg)
    trace = ProofTrace(epsilon0=eps, offsets=[abs(offset)])

    # (4) offset contraction; sigma accumulates the composed factors.  Any
    # separator of the contracted union has |offset| < sigma, so driving
    # sigma down drives the offset down.  sigma is floored at
    # min(offset_tol, 1)/10, below the first round's sigma = 1: scales below
    # that add nothing to termination (one floored round already forces the
    # offset below the floor) while they would push the LP toward its pivot
    # tolerance.  Membership is tested only once the offset is below
    # offset_tol; rounds after that squeeze it further in the rare case the
    # margins are not yet strict.
    sigma_floor = min(cfg.offset_tol, 1.0) / 10.0
    sigma = 1.0
    while (
        trace.offsets[-1] >= cfg.offset_tol
        or not (check := wedge_membership(b1, b2, normal, cfg)).member
    ):
        prev = trace.offsets[-1]
        # below offset_tol only the wedge margin keeps the loop going, and
        # squeezing the offset further need not raise it
        why = (
            f" (below offset_tol {cfg.offset_tol:.1e}; the normal's wedge "
            f"margin {check.margin:.3e} is not above margin_tol {cfg.margin_tol:.1e})"
            if prev < cfg.offset_tol
            else ""
        )
        if trace.iterations >= cfg.max_iter or prev == 0.0:
            raise ContractionStalled(
                f"no strict witness after {trace.iterations} of {cfg.max_iter} "
                f"contraction rounds; offset is {prev:.3e}{why}"
            )
        sigma = max(sigma * prev, sigma_floor)
        normal, offset, _ = _separating_hyperplane_contracted(hull, sigma, cfg)
        if abs(offset) >= prev * (1.0 - _TOL):
            raise ContractionStalled(
                f"offset magnitude stalled at {prev:.3e}{why} after "
                f"{trace.iterations + 1} contraction rounds"
            )
        trace.offsets.append(abs(offset))

    cert = SeparationCertificate(kind="disjoint", witness=normal, margin=check.margin)
    return cert, trace


def wedge_openness_probe(
    b1: SphericalBody,
    b2: SphericalBody,
    p,
    k: int,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    rng: np.random.Generator | None = None,
) -> float:
    """Minimum wedge margin over k random perturbations of member p.

    Each sample rotates p by angle margin/2 along a uniformly random tangent
    direction, so the chord displacement stays below margin/2.  For closed
    input bodies the wedge is open, which this realizes quantitatively: all
    perturbed margins must stay positive (>= margin/2 by Lipschitzness of
    dot products).  k = 0 returns +inf (vacuous).

    The k directions come from one (k, d) standard-normal draw, the same
    stream as k draws of d, and all samples are projected, normalized and
    measured against both bodies by matrix products.  A direction whose
    tangent part has norm at or below 1e-12 raises ZeroVector, from the
    geometry layer's row normalizer.
    """
    if k <= 0:
        return np.inf
    if rng is None:
        rng = np.random.default_rng(0)
    pv = normalize(np.asarray(p, dtype=float))
    base = wedge_membership(b1, b2, pv, cfg)
    if not base.member:
        raise NumericallyAmbiguous(
            "openness probe requires a wedge member with positive margin"
        )
    theta = base.margin / 2.0
    raw = rng.standard_normal((k, pv.size))
    raw -= np.outer(raw @ pv, pv)
    perturbed = np.cos(theta) * pv + np.sin(theta) * _unit_rows(raw)
    return float(_wedge_margins(perturbed, b1, b2).min())

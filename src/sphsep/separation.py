"""Disjointness oracles, pole witnesses, and the witness wedge.

Two spherical bodies are disjoint exactly when some pole P sees all of the
first body at positive dot and all of the second at negative dot; the set of
such poles (the witness wedge) is itself spherical convex.  This module
provides both directions of that equivalence plus an independent third
route:

  * primal_intersect    -- cone feasibility: do the spherical hulls meet?
  * dual_witness        -- margin-maximizing pole via LP
  * wedge_membership    -- direct generator dot-product test for a pole
  * proof_path_witness  -- constructive route: project, fatten, pull back,
                           separate the Euclidean hulls by a hyperplane, and
                           contract its offset to zero
  * wedge_openness_probe -- perturbation check that the wedge is open

The proof-path route never consults dual_witness, which makes the two
witness constructions independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .convexity import (
    SphericalBody,
    _pole_lp,
    fatten,
    hemisphericity_witness,
    project_body,
    pullback,
)
from .errors import (
    ContractionStalled,
    DimensionMismatch,
    EpsilonSearchFailed,
    IterationLimit,
    NumericallyAmbiguous,
    ZeroVector,
)
from .geometry import (
    DEFAULT_CONFIG,
    ToleranceConfig,
    normalize,
    orthonormal_frame,
)
from .lp import EQ, LE, LinearProgram, LpStatus, solve

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


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal . x = offset}, with unit normal: what one hull
    separation of the proof path finds."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        nrm = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(nrm) - 1.0) > 1e-9:
            raise DimensionMismatch("hyperplane normal must be a unit vector")
        nrm = nrm.copy()
        nrm.flags.writeable = False
        object.__setattr__(self, "normal", nrm)
        object.__setattr__(self, "offset", float(self.offset))


class MembershipResult(NamedTuple):
    member: bool
    margin: float


@dataclass(frozen=True)
class SeparationCertificate:
    """Outcome of a disjointness query.

    kind "disjoint": ``witness`` is a unit pole with witness . Q >= margin on
    body 1 and witness . R <= -margin on body 2, margin > 0.
    kind "intersecting": ``common_point`` = normalize(sum lam Q) =
    normalize(sum mu R) with nonnegative coefficients.
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
    contraction rounds.
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


def primal_intersect(
    b1: SphericalBody,
    b2: SphericalBody,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    w1: np.ndarray | None = None,
    w2: np.ndarray | None = None,
) -> SeparationCertificate | None:
    """Do the closed spherical hulls meet?  None means provably disjoint;
    otherwise the intersecting certificate, with the common point and the
    cone coefficients lam and mu that build it.

    Solves the cone feasibility system

        lambda, mu >= 0,   sum lambda_j Q_j - sum mu_k R_k = 0,
        P1 . (sum lambda_j Q_j) = 1

    where P1 is a hemisphericity witness of b1.  A common hull point is a
    common cone ray; the last row pins its scale (valid because any point of
    hull(b1) has positive dot with P1).  Infeasibility of this system is the
    disjointness certificate.

    Precomputed hemisphericity witnesses may be passed to skip their LPs;
    both bodies are otherwise checked (NotHemispherical propagates).
    """
    _require_same_dimension(b1, b2)
    p1 = hemisphericity_witness(b1, cfg) if w1 is None else w1
    if w2 is None:
        hemisphericity_witness(b2, cfg)  # precondition check only
    g1, g2 = b1.generators, b2.generators
    m1, m2 = g1.shape[0], g2.shape[0]
    d = g1.shape[1]

    A = np.zeros((d + 1, m1 + m2))
    A[:d, :m1] = g1.T
    A[:d, m1:] = -g2.T
    A[d, :m1] = g1 @ p1
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    out = solve(
        LinearProgram(objective=np.zeros(m1 + m2), constraints=A, relations=EQ, rhs=rhs),
        tol=cfg.lp_tol,
        max_pivots=100 * cfg.max_iter,
    )
    if out.status is not LpStatus.OPTIMAL:
        return None
    lam, mu = out.solution[:m1], out.solution[m1:]
    return SeparationCertificate(
        kind="intersecting", common_point=normalize(g1.T @ lam, cfg), lam=lam, mu=mu
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
    margin = float(
        min(np.min(b1.generators @ pv), -np.max(b2.generators @ pv))
    )
    return MembershipResult(member=margin > cfg.margin_tol, margin=margin)


def dual_witness(
    b1: SphericalBody,
    b2: SphericalBody,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    w1: np.ndarray | None = None,
    w2: np.ndarray | None = None,
) -> SeparationCertificate:
    """Margin-maximizing pole, or an intersection certificate.

    The pole LP comes first, on the rows (Q, -R): maximize t subject to
    P . Q_j >= t, P . R_k <= -t, |P_m| <= 1, t free.  The pole is
    renormalized to the sphere (sign conditions survive), and disjointness
    is certified when it is a wedge member (wedge_membership).  That pole
    is the whole certificate: it also shows both bodies hemispherical (P for
    body 1, -P for body 2), so no hemisphericity LP is solved.  Only when it
    does not certify are the hemisphericity witnesses found (unless passed
    as w1/w2; NotHemispherical propagates) and the primal oracle consulted:
    its intersecting certificate is returned as it is, while
    primal disjointness together with a marginal optimum is reported as
    NumericallyAmbiguous -- the strict inequalities are undecidable at this
    tolerance.
    """
    _require_same_dimension(b1, b2)
    g1, g2 = b1.generators, b2.generators
    out = solve(
        _pole_lp(np.vstack([g1, -g2])),
        tol=cfg.lp_tol,
        max_pivots=100 * cfg.max_iter,
    )
    t = out.objective_value if out.status is LpStatus.OPTIMAL else 0.0
    if t > cfg.margin_tol:
        witness = normalize(out.solution[:-1], cfg)
        unit = wedge_membership(b1, b2, witness, cfg)
        if unit.member:
            return SeparationCertificate(kind="disjoint", witness=witness, margin=unit.margin)
        t = unit.margin
    # primal_intersect finds whichever hemisphericity witness was not passed
    inter = primal_intersect(b1, b2, cfg, w1=w1, w2=w2)
    if inter is not None:
        return inter
    raise NumericallyAmbiguous(
        f"separation margin {t:.3e} within the tolerance band "
        f"{cfg.margin_tol:.1e} but cone feasibility says disjoint"
    )


# vertex rows a row-generation step may add to the working set, per body
_ROWS_PER_STEP = 8


class _HullRows:
    """Vertex rows of the proof path's hull separations, built once, and the
    working set of them that its LPs have needed so far.

    Over the variables (P, a, b, t), body 1's vertex y gives the row
    a - P . y <= 0 (a <= P . y) and body 2's vertex y the row
    P . y - b <= 0 (b >= P . y).  The working set starts at one row per
    body and only grows, so every LP of a proof path starts from the rows
    that its earlier contraction rounds and sign regimes found binding.
    """

    def __init__(self, v1: np.ndarray, v2: np.ndarray):
        m1, d = v1.shape
        rows = np.zeros((m1 + v2.shape[0], d + 3))
        rows[:m1, :d] = -v1
        rows[:m1, d] = 1.0
        rows[m1:, :d] = v2
        rows[m1:, d + 1] = -1.0
        self.rows = rows
        self.bodies = (slice(0, m1), slice(m1, rows.shape[0]))
        self.work = np.zeros(rows.shape[0], dtype=bool)
        self.work[[0, m1]] = True

    def add_violated(self, x: np.ndarray, tol: float) -> bool:
        """Add to the working set the (up to) _ROWS_PER_STEP rows of each
        body that x violates most, by more than tol; False when no row
        outside the working set is violated."""
        excess = self.rows @ x
        excess[self.work] = -np.inf
        added = False
        for body in self.bodies:
            part = excess[body]
            worst = np.argsort(-part, kind="stable")[:_ROWS_PER_STEP]
            worst = worst[part[worst] > tol]
            self.work[body.start + worst] = True
            added |= worst.size > 0
        return added


def _separating_hyperplane_contracted(
    hull: _HullRows, sigma: float, cfg: ToleranceConfig
) -> tuple[Hyperplane, float]:
    """Max-slack hyperplane between hull(v1 u sigma v1) and hull(v2 u sigma v2).

    The proof path's one hull-separation routine: its first separation is
    the case sigma = 1, where the copies coincide with v1 and v2.  Listing
    the contracted copies as explicit vertex rows makes the tableau
    two-scale (rows at magnitude 1 and at magnitude sigma), and once sigma
    is small the optimum slack -- proportional to sigma -- drowns in the
    roundoff that dividing by sigma-sized pivots produces.  So the union is
    solved without materializing it.  For a fixed direction P, writing
    a = min over v1 of P . y and b = max over v2 of P . y, a pair (r, t)
    separates both scales exactly when

        r + t <= min(a, sigma a)   and   r - t >= max(b, sigma b),

    so the best slack for that P is [min(a, sigma a) - max(b, sigma b)] / 2,
    capped by the |r| <= 1 box.  Splitting on the signs of a and b removes
    the mins: three sign regimes (a<=0 with b>=0 can never give positive
    slack) each become an LP whose vertex rows are all unit-scale and where
    sigma enters only as a coefficient on the a/b columns.  The best of the
    three equals the vertex-union optimum.  At sigma = 1 the mins are just
    a and b, so one LP with a and b free covers all three regimes.

    For vertices in R^d the LPs have d + 3 variables but one row per vertex
    of ``hull``, and at most d + 3 rows pin the optimum, so each regime is
    solved by row generation (Kelley's cutting planes): solve over the
    working set, check the solution against every vertex row with one
    product, add the most violated rows and solve again, until no row is
    violated by more than lp_tol.  The last solution is then an optimum of the full LP, feasible
    within lp_tol like a direct solve.  The solves of one regime share its
    pivot budget.  Returns the hyperplane normalized to unit normal (offset
    and slack rescale with it), plus the geometric slack.
    """
    d = hull.rows.shape[1] - 3
    # variables: P_1..P_d, a, b, t
    ia, ib, it = d, d + 1, d + 2
    nv = d + 3
    obj = np.zeros(nv)
    obj[it] = 1.0
    budget = 100 * cfg.max_iter

    def regime(ca: float, cb: float, a_sign: int, b_sign: int):
        """Solve one sign regime; alpha = ca * a, beta = cb * b there."""
        caps = np.zeros((3, nv))
        caps[0, [it, ia, ib]] = 2.0, -ca, cb  # 2t <= alpha - beta
        caps[1, [it, ia]] = 1.0, -ca  # t <= alpha + 1   (r >= -1)
        caps[2, [it, ib]] = 1.0, cb  # t <= 1 - beta    (r <= 1)
        caps_rhs = np.array([0.0, 1.0, 1.0])
        lower = np.full(nv, -np.inf)
        upper = np.full(nv, np.inf)
        lower[:d] = -1.0
        upper[:d] = 1.0
        if a_sign > 0:
            lower[ia] = 0.0
        elif a_sign < 0:
            upper[ia] = 0.0
        if b_sign > 0:
            lower[ib] = 0.0
        elif b_sign < 0:
            upper[ib] = 0.0
        left = budget
        while True:
            rows = np.vstack([hull.rows[hull.work], caps])
            rhs = np.concatenate([np.zeros(rows.shape[0] - 3), caps_rhs])
            lp = LinearProgram(obj, rows, LE, rhs, lower=lower, upper=upper)
            try:
                out = solve(lp, tol=cfg.lp_tol, max_pivots=left)
            except IterationLimit as exc:
                raise IterationLimit(
                    f"hull separation row generation, {budget - left} of {budget} "
                    f"pivots spent before this solve: {exc}"
                ) from exc
            left -= out.pivots
            # a relaxation with a row per body is bounded, so not optimal
            # means infeasible, and so is the full LP
            if out.status is not LpStatus.OPTIMAL:
                return None
            if not hull.add_violated(out.solution, cfg.lp_tol):
                return out

    # regimes: (alpha coeff, beta coeff, sign of a, sign of b; 0 leaves it
    # free); the generic disjoint-cone case a > 0 > b comes first
    if sigma == 1.0:
        regimes = ((1.0, 1.0, 0, 0),)
    else:
        regimes = ((sigma, sigma, 1, -1), (sigma, 1.0, 1, 1), (1.0, sigma, -1, -1))
    best = None
    best_coeff = None
    for ca, cb, sa, sb in regimes:
        out = regime(ca, cb, sa, sb)
        if out is not None and (best is None or out.objective_value > best.objective_value):
            best = out
            best_coeff = (ca, cb)
    if best is None or best.objective_value <= cfg.lp_tol * sigma:
        raise ContractionStalled(
            "contracted hull separation LP found no positive slack"
        )
    p, a, b, t = best.solution[:d], best.solution[ia], best.solution[ib], best.solution[it]
    alpha, beta = best_coeff[0] * a, best_coeff[1] * b
    r = (max(beta + t, -1.0) + min(alpha - t, 1.0)) / 2.0
    nrm = float(np.linalg.norm(p))
    if nrm <= cfg.lp_tol:
        raise ContractionStalled("degenerate zero normal in hull separation")
    return Hyperplane(normal=p / nrm, offset=r / nrm), t / nrm


def proof_path_witness(
    b1: SphericalBody,
    b2: SphericalBody,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    w1: np.ndarray | None = None,
    w2: np.ndarray | None = None,
) -> tuple[SeparationCertificate, ProofTrace]:
    """Witness pole built the constructive way, for provably disjoint bodies.

    Pipeline: (1) hemisphericity witnesses and tangent frames; central
    projection of both bodies.  (2) Halving search for a fattening radius
    epsilon0 whose fattened pullbacks stay disjoint (starting at 0.5).
    (3) Max-slack hyperplane between the Euclidean hulls of the fattened
    pullback generators: the contracted separation at sigma = 1.  (4) One
    contraction loop, which runs while the offset magnitude is >= offset_tol
    or the normal is not yet a strict member of the witness wedge of the
    original bodies (wedge_membership): adjoin a contracted copy of each
    vertex set (factor = current offset magnitude) and re-separate; the
    offset strictly decreases each round.  (5) The final normal, oriented
    toward body 1 by construction, is the witness.

    The contracted copies compose: round k's vertex set is V0 together with
    (delta_1 ... delta_k) V0, whose hull equals the iterated adjoin-and-hull
    (intermediate scales are convex combinations of the endpoints), so the
    vertex count stays at 2|V0|.

    Raises EpsilonSearchFailed when no radius keeps the fattened bodies
    disjoint (hulls touch within tolerance -- also the symptom when the
    precondition "primal_intersect is None" is violated) and
    ContractionStalled when offsets stop decreasing, or when max_iter rounds
    or a zero offset leave the normal outside the wedge.
    """
    _require_same_dimension(b1, b2)
    if w1 is None:
        w1 = hemisphericity_witness(b1, cfg)
    if w2 is None:
        w2 = hemisphericity_witness(b2, cfg)
    f1 = orthonormal_frame(w1)
    f2 = orthonormal_frame(w2)
    poly1 = project_body(b1, f1, cfg)
    poly2 = project_body(b2, f2, cfg)

    # (2) fattening radius search by halving
    eps = 0.5
    x1 = x2 = None
    for _ in range(cfg.max_iter):
        cand1 = pullback(fatten(poly1, eps), cfg)
        cand2 = pullback(fatten(poly2, eps), cfg)
        if primal_intersect(cand1, cand2, cfg, w1=f1.base, w2=f2.base) is None:
            x1, x2 = cand1, cand2
            break
        eps *= 0.5
    if x1 is None:
        raise EpsilonSearchFailed(
            f"no fattening radius in {cfg.max_iter} halvings kept the bodies "
            "disjoint; the spherical hulls touch within tolerance"
        )

    # (3) separate the Euclidean hulls
    hull = _HullRows(x1.generators, x2.generators)
    hyp, _ = _separating_hyperplane_contracted(hull, 1.0, cfg)
    trace = ProofTrace(epsilon0=eps, offsets=[abs(hyp.offset)])

    # (4) offset contraction; sigma accumulates the composed factors.  Any
    # separator of the contracted union has |offset| < sigma, so driving
    # sigma down drives the offset down.  sigma is floored at offset_tol/10:
    # scales below that add nothing to termination (one floored round
    # already forces the offset below the floor) while they would push the
    # LP toward its pivot tolerance.  Membership is tested only once the
    # offset is below offset_tol; rounds after that squeeze the offset
    # further in the rare case the margins are not yet strict.
    sigma_floor = cfg.offset_tol / 10.0
    sigma = 1.0
    while (
        trace.offsets[-1] >= cfg.offset_tol
        or not (check := wedge_membership(b1, b2, hyp.normal, cfg)).member
    ):
        prev = trace.offsets[-1]
        if trace.iterations >= cfg.max_iter or prev == 0.0:
            raise ContractionStalled(
                f"no strict witness after {trace.iterations} of {cfg.max_iter} "
                f"contraction rounds; offset is {prev:.3e}"
            )
        sigma = max(sigma * prev, sigma_floor)
        hyp, _ = _separating_hyperplane_contracted(hull, sigma, cfg)
        if abs(hyp.offset) >= prev * (1.0 - cfg.lp_tol):
            raise ContractionStalled(
                f"offset magnitude stalled at {prev:.3e} after "
                f"{trace.iterations + 1} contraction rounds"
            )
        trace.offsets.append(abs(hyp.offset))

    cert = SeparationCertificate(
        kind="disjoint", witness=hyp.normal, margin=check.margin
    )
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
    tangent part has norm at or below unit_tol raises ZeroVector, as
    normalize would.
    """
    if k <= 0:
        return np.inf
    if rng is None:
        rng = np.random.default_rng(0)
    pv = normalize(np.asarray(p, dtype=float), cfg)
    base = wedge_membership(b1, b2, pv, cfg)
    if not base.member:
        raise NumericallyAmbiguous(
            "openness probe requires a wedge member with positive margin"
        )
    theta = base.margin / 2.0
    raw = rng.standard_normal((k, pv.size))
    raw -= np.outer(raw @ pv, pv)
    norms = np.linalg.norm(raw, axis=1)
    if norms.min() <= cfg.unit_tol:
        raise ZeroVector(f"cannot normalize vector with norm {norms.min():.3e}")
    perturbed = np.cos(theta) * pv + np.sin(theta) * (raw / norms[:, None])
    margins = np.minimum(
        (perturbed @ b1.generators.T).min(axis=1),
        -(perturbed @ b2.generators.T).max(axis=1),
    )
    return float(margins.min())

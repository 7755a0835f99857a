"""Independent cross-checks for the test suite.

Everything here deliberately avoids the library's simplex code path:
optima come from exhaustive vertex enumeration with dense linear algebra
or, where that is out of reach, from an LP duality certificate checked by
nonnegative least squares; hull membership from Caratheodory subset
enumeration, duplicate rows from a pairwise loop, openness-probe
margins from a per-sample loop, and certificates from exact rational
arithmetic over the generators (certificate_holds).  Slow but obviously
correct at test scale.
The exceptions are earlier forms of library routes, kept on the same
solver as references the current forms must reproduce: dual_witness_oracle
keeps the earlier order of dual_witness (both hemisphericity LPs before the
pole LP), primal_intersect_oracle the cone LP scaled by body 1's
hemisphericity pole, and box_pole_lp with box_dual_witness the pole LP in
its box form, one row per generator, and dual_witness reading it.
gram_schmidt_frame is the tangent frame orthonormal_frame reproduces by one
QR factorization.  BoxProgram is a program with variable bounds, which
lp.solve does not take: solve_box solves it through its standard form
(standard_form) and maps the outcome back.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from sphsep.convexity import (
    _pole_lp,
    _pole_margin,
    hemisphericity_witness,
)
from sphsep.errors import DimensionMismatch, NumericallyAmbiguous
from sphsep.geometry import _UNIT_TOL, DEFAULT_CONFIG, normalize
from sphsep.lp import _TOL, EQ, GE, LE, LinearProgram, LpOutcome, LpStatus, solve
from sphsep.separation import SeparationCertificate, primal_intersect, wedge_membership


@dataclass
class BoxProgram:
    """maximize objective . x subject to row constraints and the bounds
    lower <= x <= upper (default 0 and +inf; -inf/+inf entries for free or
    one-sided variables).  The rows read as LinearProgram's, which checks
    them."""

    objective: np.ndarray
    constraints: np.ndarray | None = None
    relations: int | Sequence[int] = LE
    rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = LinearProgram(self.objective, self.constraints, self.relations, self.rhs)
        self.objective, self.constraints = rows.objective, rows.constraints
        self.relations, self.rhs = rows.relations, rows.rhs
        nv = rows.num_vars
        self.lower = np.zeros(nv) if self.lower is None else np.asarray(self.lower, dtype=float)
        self.upper = (
            np.full(nv, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        )
        if self.lower.shape != (nv,) or self.upper.shape != (nv,):
            raise DimensionMismatch("bounds must have one entry per variable")

    @property
    def num_vars(self) -> int:
        return self.objective.size


def standard_form(prog: BoxProgram):
    """prog over nonnegative variables, by one loop over its variables:
    (LinearProgram, owner, sign, shift), where standard column k is
    variable owner[k] times sign[k], so x_j = sum over owner[k] = j of
    sign[k] X_k, plus shift[j].

    A variable with lower bound 0 (of either sign) or above passes through,
    shifted by it; any other is split into a (+, -) column pair.  Finite
    bounds not absorbed that way become LE rows after prog's rows, in
    variable order: an upper bound before a lower one."""
    owner, sign, extra = [], [], []
    shift = np.zeros(prog.num_vars)
    for j, (lo, hi) in enumerate(zip(prog.lower.tolist(), prog.upper.tolist())):
        if lo == 0.0 or (math.isfinite(lo) and lo > 0.0):
            shift[j] = lo
            owner.append(j)
            sign.append(1.0)
            if math.isfinite(hi):
                extra.append(({len(owner) - 1: 1.0}, hi - lo))
        else:
            owner += [j, j]
            sign += [1.0, -1.0]
            p, m = len(owner) - 2, len(owner) - 1
            if math.isfinite(hi):
                extra.append(({p: 1.0, m: -1.0}, hi))
            if math.isfinite(lo):
                extra.append(({p: -1.0, m: 1.0}, -lo))
    owner, sign = np.array(owner, dtype=np.intp), np.array(sign)
    E = np.zeros((len(extra), owner.size))
    for i, (entries, _) in enumerate(extra):
        for k, v in entries.items():
            E[i, k] = v
    A0 = prog.constraints
    rhs0 = prog.rhs - np.vecdot(A0, shift) if shift.any() else prog.rhs
    lp = LinearProgram(
        prog.objective[owner] * sign,
        np.vstack([A0[:, owner] * sign, E]),
        list(prog.relations) + [LE] * len(extra),
        np.concatenate([rhs0, [b for _, b in extra]]),
    )
    return lp, owner, sign, shift


def solve_box(prog: BoxProgram, max_pivots: int = 20_000) -> LpOutcome:
    """lp.solve on standard_form(prog), mapped back to prog's variables:
    the solution, the objective value and the ray, and the duals of prog's
    own rows (the bound rows' are dropped)."""
    lp, owner, sign, shift = standard_form(prog)
    out = solve(lp, max_pivots)

    def back(v):
        return np.bincount(owner, weights=sign * v, minlength=prog.num_vars)

    if out.ray is not None:
        return replace(out, ray=back(out.ray))
    if out.solution is None:
        return out
    x = back(out.solution) + shift
    duals = None if out.duals is None else out.duals[: len(prog.constraints)]
    return replace(out, solution=x, objective_value=float(prog.objective @ x), duals=duals)


def _bounds(lp: LinearProgram | BoxProgram) -> tuple[np.ndarray, np.ndarray]:
    """lower and upper bounds of lp: a BoxProgram's own, else x >= 0."""
    if isinstance(lp, BoxProgram):
        return lp.lower, lp.upper
    return np.zeros(lp.num_vars), np.full(lp.num_vars, np.inf)


def lp_residual(lp: LinearProgram | BoxProgram, x: np.ndarray) -> float:
    """Worst violation by x of a row constraint or bound of lp (0 if none)."""
    lower, upper = _bounds(lp)
    worst = max(0.0, float(np.max(lower - x)), float(np.max(x - upper)))
    for row, rel, b in zip(lp.constraints, lp.relations, lp.rhs):
        v = float(row @ x) - b
        worst = max(worst, v if rel == LE else -v if rel == GE else abs(v))
    return worst


def lp_feasible(lp: LinearProgram | BoxProgram, x: np.ndarray, tol: float = 1e-7) -> bool:
    """Does x satisfy every row constraint and bound of lp, within tol?"""
    return lp_residual(lp, x) <= tol


def lp_vertices(lp: BoxProgram, tol: float = 1e-7) -> list[np.ndarray]:
    """Every vertex of the feasible region, by brute-force enumeration.

    Solves each nonsingular square subsystem drawn from the constraint rows
    and the finite bound hyperplanes, keeping the feasible solutions.  Only
    sensible for small, box-bounded programs.
    """
    nv = lp.num_vars
    planes: list[tuple[np.ndarray, float]] = [
        (row, float(b)) for row, b in zip(lp.constraints, lp.rhs)
    ]
    for j in range(nv):
        e = np.zeros(nv)
        e[j] = 1.0
        if np.isfinite(lp.lower[j]):
            planes.append((e.copy(), float(lp.lower[j])))
        if np.isfinite(lp.upper[j]):
            planes.append((e.copy(), float(lp.upper[j])))
    verts: list[np.ndarray] = []
    for combo in itertools.combinations(range(len(planes)), nv):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if lp_feasible(lp, x, tol):
            verts.append(x)
    return verts


def lp_oracle(lp: BoxProgram, tol: float = 1e-7):
    """(status, best objective) for a box-bounded program.

    With every variable bounded both ways the feasible region is a polytope,
    so it is nonempty exactly when it has a vertex and any optimum is
    attained at one.
    """
    assert np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper)), (
        "oracle only answers box-bounded programs"
    )
    verts = lp_vertices(lp, tol)
    if not verts:
        return "infeasible", None
    return "optimal", max(float(lp.objective @ v) for v in verts)


def nnls_residual(A: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> float:
    """min over y >= 0 of |A y - b|, by Lawson and Hanson's active-set
    method (each step is a dense least-squares solve on the passive set).

    A column joins the passive set while its gradient is positive at all,
    within the loop cap: on nearly parallel columns the gradient of a far
    from optimal y can be as small as the residual times their angle, so an
    absolute gradient threshold would stop early.  tol only decides when a
    passive entry has reached 0.  The residual is always that of a real
    y >= 0, so an extra step cannot make a non-optimum look optimal.
    """
    n = A.shape[1]
    passive = np.zeros(n, dtype=bool)
    y = np.zeros(n)
    for _ in range(3 * n + 10):
        grad = A.T @ (b - A @ y)
        grad[passive] = -np.inf
        if passive.all() or grad.max() <= 0.0:
            break
        passive[grad.argmax()] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                y = z
                break
            # step from y toward z until the first passive entry reaches 0
            shrink = passive & (z <= 0.0)
            alpha = np.min(y[shrink] / np.maximum(y[shrink] - z[shrink], 1e-300))
            y = y + alpha * (z - y)
            passive &= y > tol
            y[~passive] = 0.0
    return float(np.linalg.norm(A @ y - b))


def lp_optimal_at(lp: LinearProgram | BoxProgram, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Is x an optimum of lp?  By LP duality it is exactly when x is
    feasible and the objective is a nonnegative combination of the outward
    normals of the rows and bounds active at x; that cone membership is
    decided by nonnegative least squares, so the check scales to programs
    far too large for vertex enumeration."""
    if not lp_feasible(lp, x, tol):
        return False
    normals = []
    for row, rel, b in zip(lp.constraints, lp.relations, lp.rhs):
        v = float(row @ x) - b
        if rel in (LE, EQ) and v >= -tol:
            normals.append(row)
        if rel in (GE, EQ) and v <= tol:
            normals.append(-row)
    eye = np.eye(lp.num_vars)
    lower, upper = _bounds(lp)
    normals += [eye[j] for j in np.flatnonzero(x >= upper - tol)]
    normals += [-eye[j] for j in np.flatnonzero(x <= lower + tol)]
    if not normals:
        return not np.any(lp.objective)
    scale = max(1.0, float(np.linalg.norm(lp.objective)))
    return nnls_residual(np.array(normals).T, lp.objective) <= tol * scale


def cone_member_oracle(generators: np.ndarray, q: np.ndarray, tol: float = 1e-9) -> bool:
    """Is q a nonnegative combination of the generator rows?

    Caratheodory for cones: any member is a nonnegative combination of at
    most dim(q) linearly independent generators, so enumerating full-rank
    subsets up to that size is complete.
    """
    G = np.asarray(generators, dtype=float)
    qv = np.asarray(q, dtype=float)
    m, d = G.shape
    scale = max(1.0, float(np.linalg.norm(qv)))
    if np.linalg.norm(qv) <= tol:
        return True
    for k in range(1, min(m, d) + 1):
        for combo in itertools.combinations(range(m), k):
            A = G[list(combo)].T
            lam, _, rank, _ = np.linalg.lstsq(A, qv, rcond=None)
            if rank < k:
                continue
            if np.linalg.norm(A @ lam - qv) > tol * scale:
                continue
            if np.all(lam >= -tol):
                return True
    return False


def hull_member_oracle(vertices: np.ndarray, p: np.ndarray, tol: float = 1e-9) -> bool:
    """Is p in the convex hull of the vertex rows?  Homogenize and reuse the
    cone oracle: p in hull(V) iff (p, 1) in cone{(v, 1)}."""
    V = np.asarray(vertices, dtype=float)
    pv = np.asarray(p, dtype=float)
    ones = np.ones((V.shape[0], 1))
    return cone_member_oracle(np.hstack([V, ones]), np.append(pv, 1.0), tol)


def hull_vertex_indices(points: np.ndarray, tol: float = 1e-9) -> set[int]:
    """Indices of points that are vertices of their own convex hull: a point
    is a hull vertex iff it is outside the hull of the remaining points."""
    pts = np.asarray(points, dtype=float)
    out: set[int] = set()
    for i in range(pts.shape[0]):
        rest = np.delete(pts, i, axis=0)
        if rest.shape[0] == 0 or not hull_member_oracle(rest, pts[i], tol):
            out.add(i)
    return out


def separates(p: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> float:
    """Witness quality by direct dot products: min over body-1 generators of
    p.q and over body-2 generators of -p.r.  Positive means p separates."""
    pv = np.asarray(p, dtype=float)
    return min(float(np.min(g1 @ pv)), float(np.min(-(g2 @ pv))))


def _exact_dot(u, v) -> Fraction:
    """u . v for two sequences of floats in exact rational arithmetic: every
    float is the dyadic rational it stores, so nothing rounds."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def certificate_holds(
    cert: SeparationCertificate, g1: np.ndarray, g2: np.ndarray, tol: float = 1e-12
) -> bool:
    """Does cert hold for the bodies generated by the rows of g1 and g2,
    judged in exact arithmetic over those generators, without the simplex?

    A disjoint certificate's witness P must have a positive exact margin
    min(min P . Q, -max P . R), and its stated margin may exceed that by
    at most tol.  An intersecting certificate needs lam >= 0 and mu >= 0,
    one entry per generator of its body, |sum lam + sum mu - 1| <= tol and
    ||sum lam Q - sum mu R||_inf <= tol, all exactly."""
    signed = np.vstack([g1, -g2])  # negation is exact
    if cert.kind == "disjoint":
        w = [Fraction(x) for x in cert.witness.tolist()]
        dots = []
        for row in signed.tolist():
            dots.append(_exact_dot(w, row))
            if dots[-1] <= 0:
                return False
        return Fraction(cert.margin) - min(dots) <= tol
    lam, mu = cert.lam, cert.mu
    if lam.shape != (g1.shape[0],) or mu.shape != (g2.shape[0],):
        return False
    if lam.min() < 0.0 or mu.min() < 0.0:
        return False
    y = np.concatenate([lam, mu]).tolist()
    if abs(sum(map(Fraction, y)) - 1) > tol:
        return False
    return all(abs(_exact_dot(y, column)) <= tol for column in signed.T.tolist())


def gram_schmidt_frame(base: np.ndarray) -> np.ndarray:
    """Tangent basis at unit ``base`` (rows) by Gram-Schmidt over the
    standard axes, skipping the axis most parallel to base, two passes per
    axis for orthogonality at machine precision."""
    d = base.size
    skip = int(np.argmax(np.abs(base)))
    rows: list[np.ndarray] = []
    for j in range(d):
        if j == skip:
            continue
        v = np.zeros(d)
        v[j] = 1.0
        for _ in range(2):
            v -= (v @ base) * base
            for r in rows:
                v -= (v @ r) * r
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def dedupe_rows_oracle(rows: np.ndarray, tol: float) -> np.ndarray:
    """Rows with every repeat of an earlier kept row dropped: row i is kept
    when its max-norm distance to each row kept so far exceeds tol."""
    keep: list[int] = []
    for i in range(rows.shape[0]):
        if all(np.max(np.abs(rows[i] - rows[k])) > tol for k in keep):
            keep.append(i)
    return rows[keep]


def openness_probe_oracle(b1, b2, p, k: int, cfg=DEFAULT_CONFIG, rng=None) -> float:
    """wedge_openness_probe one sample at a time: k draws of a tangent
    direction, each normalized and measured with wedge_membership."""
    if k <= 0:
        return np.inf
    if rng is None:
        rng = np.random.default_rng(0)
    pv = normalize(np.asarray(p, dtype=float))
    theta = wedge_membership(b1, b2, pv, cfg).margin / 2.0
    worst = np.inf
    for _ in range(k):
        raw = rng.standard_normal(pv.size)
        raw -= (raw @ pv) * pv
        tangent = normalize(raw)
        perturbed = np.cos(theta) * pv + np.sin(theta) * tangent
        worst = min(worst, wedge_membership(b1, b2, perturbed, cfg).margin)
    return worst


def primal_intersect_oracle(b1, b2, cfg=DEFAULT_CONFIG):
    """primal_intersect with its earlier scale row: the cone LP
    sum lam Q - sum mu R = 0 is pinned by P1 . sum lam Q = 1, where P1 is
    body 1's hemisphericity LP witness, and body 2 need only be
    hemispherical.  lam and mu come as the LP gives them, not normalized."""
    if b1.n != b2.n:
        raise DimensionMismatch("bodies live on different spheres")
    p1 = hemisphericity_witness(b1, cfg)
    hemisphericity_witness(b2, cfg)
    g1, g2 = b1.generators, b2.generators
    m1, d = g1.shape
    A = np.zeros((d + 1, m1 + g2.shape[0]))
    A[:d, :m1] = g1.T
    A[:d, m1:] = -g2.T
    A[d, :m1] = g1 @ p1
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    out = solve(
        LinearProgram(objective=np.zeros(A.shape[1]), constraints=A, relations=EQ, rhs=rhs),
        max_pivots=cfg.max_pivots,
    )
    if out.status is not LpStatus.OPTIMAL:
        return None
    lam, mu = out.solution[:m1], out.solution[m1:]
    return SeparationCertificate(
        kind="intersecting", common_point=normalize(g1.T @ lam), lam=lam, mu=mu
    )


def dual_witness_oracle(b1, b2, cfg=DEFAULT_CONFIG):
    """dual_witness in its earlier, hemisphericity-first order: both
    witnesses, then the pole LP, read as dual_witness reads it, then the
    pole-scaled cone LP.  Kept to show that solving the pole LP first
    changes no answer."""
    if b1.n != b2.n:
        raise DimensionMismatch("bodies live on different spheres")
    hemisphericity_witness(b1, cfg)
    hemisphericity_witness(b2, cfg)
    g1, g2 = b1.generators, b2.generators
    out = solve(_pole_lp(np.vstack([g1, -g2])), max_pivots=cfg.max_pivots)
    t, x = _pole_margin(out, g1.shape[1])
    if t > cfg.margin_tol:
        witness = normalize(x)
        t = float(min(np.min(g1 @ witness), -np.max(g2 @ witness)))
        if t > cfg.margin_tol:
            return SeparationCertificate(kind="disjoint", witness=witness, margin=t)
    inter = primal_intersect_oracle(b1, b2, cfg)
    if inter is not None:
        return inter
    raise NumericallyAmbiguous(f"separation margin {t:.3e} within the tolerance band")


def box_pole_lp(rows: np.ndarray) -> BoxProgram:
    """The pole LP in its box form: maximize t subject to x . row >= t for
    every row, |x_k| <= 1, t free; one row per generator.  Its optimum t is
    1/v for the optimum v of the polar form (_pole_lp)."""
    m, k = rows.shape
    obj = np.zeros(k + 1)
    obj[-1] = 1.0
    return BoxProgram(
        objective=obj,
        constraints=np.hstack([rows, -np.ones((m, 1))]),
        relations=GE,
        rhs=np.zeros(m),
        lower=np.concatenate([-np.ones(k), [-np.inf]]),
        upper=np.concatenate([np.ones(k), [np.inf]]),
    )


def box_dual_witness(b1, b2, cfg=DEFAULT_CONFIG):
    """dual_witness on the box form: the pole is the solution's x, and the
    intersecting certificate the negated row duals (the dual of the box
    form minimizes |sum lam Q - sum mu R|_1 over sum lam + sum mu = 1)."""
    if b1.n != b2.n:
        raise DimensionMismatch("bodies live on different spheres")
    g1, g2 = b1.generators, b2.generators
    out = solve_box(box_pole_lp(np.vstack([g1, -g2])), max_pivots=cfg.max_pivots)
    t = out.objective_value if out.status is LpStatus.OPTIMAL else 0.0
    if t > cfg.margin_tol:
        witness = normalize(out.solution[:-1])
        unit = wedge_membership(b1, b2, witness, cfg)
        if unit.member:
            return SeparationCertificate(kind="disjoint", witness=witness, margin=unit.margin)
        t = unit.margin
    if out.duals is not None:
        y = -out.duals
        y[(y >= -_TOL) & (y < 0.0)] = 0.0
        lam, mu = y[: g1.shape[0]], y[g1.shape[0] :]
        point = lam @ g1
        if (
            lam.sum() > _TOL
            and mu.sum() > _TOL
            and np.max(np.abs(point - mu @ g2)) <= _TOL
            and np.linalg.norm(point) > _UNIT_TOL
        ):
            hemisphericity_witness(b1, cfg)
            hemisphericity_witness(b2, cfg)
            return SeparationCertificate(
                kind="intersecting", common_point=normalize(point), lam=lam, mu=mu
            )
    inter = primal_intersect(b1, b2, cfg)
    if inter is not None:
        return inter
    raise NumericallyAmbiguous(f"separation margin {t:.3e} within the tolerance band")

"""Independent cross-checks for the test suite.

Everything here deliberately avoids the library's simplex code path:
optima come from exhaustive vertex enumeration with dense linear algebra
or, where that is out of reach, from an LP duality certificate checked by
nonnegative least squares; hull membership from Caratheodory subset
enumeration, duplicate rows from a pairwise loop, and openness-probe
margins from a per-sample loop.  Slow but obviously correct at test scale.
The one exception is dual_witness_oracle: it keeps the earlier order of
dual_witness (both hemisphericity LPs before the pole LP) on the same
solver, as the reference the certificate-first order must reproduce.
"""

from __future__ import annotations

import itertools

import numpy as np

from sphsep.convexity import _pole_lp, hemisphericity_witness
from sphsep.errors import DimensionMismatch, NumericallyAmbiguous
from sphsep.geometry import DEFAULT_CONFIG, normalize
from sphsep.lp import EQ, GE, LE, LinearProgram, LpStatus, solve
from sphsep.separation import SeparationCertificate, primal_intersect, wedge_membership


def lp_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst violation by x of a row constraint or bound of lp (0 if none)."""
    worst = max(0.0, float(np.max(lp.lower - x)), float(np.max(x - lp.upper)))
    for row, rel, b in zip(lp.constraints, lp.relations, lp.rhs):
        v = float(row @ x) - b
        worst = max(worst, v if rel == LE else -v if rel == GE else abs(v))
    return worst


def lp_feasible(lp: LinearProgram, x: np.ndarray, tol: float = 1e-7) -> bool:
    """Does x satisfy every row constraint and bound of lp, within tol?"""
    return lp_residual(lp, x) <= tol


def lp_vertices(lp: LinearProgram, tol: float = 1e-7) -> list[np.ndarray]:
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


def lp_oracle(lp: LinearProgram, tol: float = 1e-7):
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
    method (each step is a dense least-squares solve on the passive set)."""
    n = A.shape[1]
    passive = np.zeros(n, dtype=bool)
    y = np.zeros(n)
    for _ in range(3 * n + 10):
        grad = A.T @ (b - A @ y)
        grad[passive] = -np.inf
        if passive.all() or grad.max() <= tol:
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


def lp_optimal_at(lp: LinearProgram, x: np.ndarray, tol: float = 1e-9) -> bool:
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
    normals += [eye[j] for j in np.flatnonzero(x >= lp.upper - tol)]
    normals += [-eye[j] for j in np.flatnonzero(x <= lp.lower + tol)]
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
    pv = normalize(np.asarray(p, dtype=float), cfg)
    theta = wedge_membership(b1, b2, pv, cfg).margin / 2.0
    worst = np.inf
    for _ in range(k):
        raw = rng.standard_normal(pv.size)
        raw -= (raw @ pv) * pv
        tangent = normalize(raw, cfg)
        perturbed = np.cos(theta) * pv + np.sin(theta) * tangent
        worst = min(worst, wedge_membership(b1, b2, perturbed, cfg).margin)
    return worst


def dual_witness_oracle(b1, b2, cfg=DEFAULT_CONFIG, w1=None, w2=None):
    """dual_witness in its earlier, hemisphericity-first order: both
    witnesses (unless passed), then the pole LP, then the cone LP.  Kept
    to show that solving the pole LP first changes no answer."""
    if b1.n != b2.n:
        raise DimensionMismatch("bodies live on different spheres")
    if w1 is None:
        w1 = hemisphericity_witness(b1, cfg)
    if w2 is None:
        w2 = hemisphericity_witness(b2, cfg)
    g1, g2 = b1.generators, b2.generators
    out = solve(_pole_lp(np.vstack([g1, -g2])), tol=cfg.lp_tol,
                max_pivots=100 * cfg.max_iter)
    t = out.objective_value if out.status is LpStatus.OPTIMAL else 0.0
    if t > cfg.margin_tol:
        witness = normalize(out.solution[:-1], cfg)
        t = float(min(np.min(g1 @ witness), -np.max(g2 @ witness)))
        if t > cfg.margin_tol:
            return SeparationCertificate(kind="disjoint", witness=witness, margin=t)
    inter = primal_intersect(b1, b2, cfg, w1=w1, w2=w2)
    if inter is not None:
        return inter
    raise NumericallyAmbiguous(f"separation margin {t:.3e} within the tolerance band")

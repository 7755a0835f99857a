"""Dense two-phase simplex solver: Dantzig pricing with a Bland fallback.

The entering column is the one with the most negative reduced cost, and
among rows tied at the minimum ratio the one with the largest pivot element
leaves; after a run of degenerate pivots Bland's rule takes over until the
objective moves again, which guards against cycling.  Self-contained and
deterministic: a plain tableau implementation is exactly reproducible, and
fast enough for the feasibility and pole queries of this package, which
have at most a few hundred rows and columns.  A program is handed over as
one coefficient matrix with a relation and a right-hand side per row, over
nonnegative variables only (the textbook standard form).  A relation is
its standard-form code, LE (+1), EQ (0) or GE (-1): the coefficient of
the row's slack column, which negates with the row.  A caller with free
or bounded variables poses their split columns and bound rows itself, as
the hull separation does.  Pivots are array operations; only the passes
between the phases loop over rows (leftover artificials, then basic rows
with nonzero cost).  The tableau keeps one slack column per row, so its
size grows with the square of the row count; the proof path's hull
separations, with one row per fattened vertex (2n per generator on S^n,
thousands on large bodies), are never put into it whole but solved by row
generation, a few dozen rows at a time (see
separation._separating_hyperplane_contracted), and the pole LP is posed in
its polar form, whose rows count coordinates rather than generators (see
convexity._pole_lp).  Besides the solution, an outcome carries the row
duals of a program without phase 1 and the recession ray of an unbounded
one, which is how the pole LP's two certificates are read.  No external
solver is used anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, IterationLimit
from .geometry import DEFAULT_CONFIG

__all__ = [
    "LE",
    "EQ",
    "GE",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "solve",
]

# relation codes of the standard-form rows; negating a row negates its code
LE, EQ, GE = 1, 0, -1
# feasibility, optimality and pivot-element tolerance of the simplex
_TOL = 1e-10


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """maximize objective . x  subject to row constraints and x >= 0.

    constraints: an (m, n) coefficient matrix, one row per constraint
    (default: no rows).  relations: one code LE (+1), EQ (0) or GE (-1)
    for every row, or a single code for all of them (default LE).  rhs:
    the m right-hand sides (default all 0).  So row i reads
    constraints[i] . x  relations[i]  rhs[i], and ``len(constraints)`` is
    the row count.  Every variable is nonnegative; there are no other
    bounds.  After construction ``relations`` is an int array with one
    code per row.
    """

    objective: np.ndarray
    constraints: np.ndarray | None = None
    relations: int | Sequence[int] = LE
    rhs: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise DimensionMismatch("objective must be a nonempty vector")
        nv = self.objective.size
        A = np.zeros((0, nv)) if self.constraints is None else np.asarray(
            self.constraints, dtype=float
        )
        if A.ndim != 2 or A.shape[1] != nv:
            raise DimensionMismatch(
                f"constraint matrix has shape {A.shape}, expected (m, {nv})"
            )
        m = A.shape[0]
        self.constraints = A
        rel = np.asarray(self.relations)
        if rel.ndim == 0:  # one relation for every row
            rel = np.full(m, rel)
        elif rel.shape != (m,):
            raise DimensionMismatch(f"{rel.size} relations for {m} constraint rows")
        if rel.size and (rel.dtype.kind != "i" or rel.min() < GE or rel.max() > LE):
            raise DimensionMismatch(
                f"relations must be the int codes LE, EQ or GE (1, 0, -1), "
                f"got {rel.dtype} {np.unique(rel).tolist()}"
            )
        self.relations = rel
        self.rhs = np.zeros(m) if self.rhs is None else np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (m,):
            raise DimensionMismatch(
                f"rhs has shape {self.rhs.shape}, expected ({m},)"
            )

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    """Result of ``solve``; ``pivots`` counts the pivots it spent.

    ``duals`` holds one multiplier per row of the program as given (>= 0
    on LE rows, <= 0 on GE rows), read off the optimal cost row; it is
    set only for optimal programs that needed no phase 1, whose rows all
    become LE rows with a slack once oriented to a nonnegative rhs.

    ``ray`` is set on unbounded programs: a recession direction d >= 0 of
    the program, the simplex edge along which the objective grew without
    bound.  Every row holds per relation in direction (A d <= 0 on LE
    rows, >= 0 on GE rows, = 0 on EQ rows), and objective . d > 0, all
    within the simplex tolerance.
    """

    status: LpStatus
    solution: np.ndarray | None = None
    objective_value: float | None = None
    pivots: int = 0
    duals: np.ndarray | None = None
    ray: np.ndarray | None = None


class _PivotBudget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise IterationLimit(f"simplex exceeded {self.cap} pivots")


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]


# consecutive degenerate pivots (pivot-row rhs at most _TOL, roundoff
# included) after which Bland's rule replaces Dantzig pricing until the
# next non-degenerate pivot, or after as many as the tableau has rows: a
# pole LP's opening degenerate run is about that long, and Dantzig pricing
# leaves it in far fewer pivots than Bland's rule
_BLAND_AFTER = 50


def _run_simplex(T: np.ndarray, basis: np.ndarray, budget: _PivotBudget) -> int | None:
    """Dantzig pricing with a Bland fallback.  Returns None at an optimum,
    or the entering column when no row can leave (the program is unbounded
    along that column's edge).

    The entering column has the most negative reduced cost (smallest index
    on ties).  The leaving row has the smallest ratio, ties broken by the
    largest pivot element: on degenerate vertices many rows tie at ratio 0,
    and pivoting on one whose element barely exceeds _TOL leaves the tableau
    too inaccurate to trust its optimum.  After max(_BLAND_AFTER, m)
    consecutive degenerate pivots on a tableau of m rows the entering column
    is the smallest improving one and ties leave by the smallest basic
    variable index (Bland's rule, both halves of which its anti-cycling proof
    needs) until a pivot row's rhs exceeds _TOL.  Bland's rule cannot cycle
    in exact arithmetic; judging degeneracy by _TOL keeps roundoff from
    resetting the run, and the pivot budget bounds the loop in any case.

    T is pivoted in place; ``basis`` (an intp array, one basic column per
    row) is updated in place."""
    m = T.shape[0] - 1
    cost, rhs = T[-1, :-1], T[:m, -1]  # views, kept current by _pivot
    degenerate, bland_after = 0, max(_BLAND_AFTER, m)
    while True:
        bland = degenerate >= bland_after
        col = (cost < -_TOL).argmax() if bland else cost.argmin()
        if not cost[col] < -_TOL:
            return None
        column = T[:m, col]
        pos = (column > _TOL).nonzero()[0]
        if pos.size == 0:
            return int(col)
        ratios = rhs[pos] / column[pos]
        ties = pos[ratios == ratios[ratios.argmin()]]  # the min, without its wrapper
        row = ties[basis[ties].argmin()] if bland else ties[column[ties].argmax()]
        degenerate = degenerate + 1 if rhs[row] <= _TOL else 0
        _pivot(T, row, col)
        basis[row] = col
        budget.spend()


def solve(lp: LinearProgram, max_pivots: int = DEFAULT_CONFIG.max_pivots) -> LpOutcome:
    """Solve ``lp`` by two-phase simplex.

    Optimal outcomes are feasible within _TOL (1e-10); infeasibility means
    the phase-1 optimum exceeded it.  When no row needs an artificial
    variable (every row, oriented to a nonnegative rhs, is an LE row),
    there is no phase 1, and the row duals are the optimal reduced costs
    of the slack columns, negated on rows the orientation flipped.  An
    unbounded outcome carries the edge direction of its last entering
    column as ``ray``.
    Identical inputs produce bit-identical outcomes.  Raises IterationLimit
    past ``max_pivots`` total pivots.
    """
    c, A, code, rhs = lp.objective, lp.constraints, lp.relations, lp.rhs
    m, ns = A.shape

    # orient all rows to nonnegative rhs; >= rows with rhs 0 become <= rows
    # so that they need no artificial variable.  The flipped rows are new
    # arrays, so the program itself is never written to.
    flip = (rhs < 0) | ((rhs == 0.0) & (code == -1))
    flipped = flip.any()
    if flipped:
        A = np.where(flip[:, None], -A, A)
        rhs = np.where(flip, -rhs, rhs)
        code = np.where(flip, -code, code)

    # <= rows get a slack (+1) that starts basic; >= rows a surplus (-1) and
    # an artificial; = rows an artificial only.  Slack and artificial
    # columns are numbered in row order.
    slack_rows = (code != 0).nonzero()[0]
    art_rows = (code != 1).nonzero()[0]
    n_slack, n_art = slack_rows.size, art_rows.size
    slack_cols = ns + np.arange(n_slack)
    total = ns + n_slack + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :ns] = A
    T[:m, -1] = rhs
    T[slack_rows, slack_cols] = code[slack_rows]
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = slack_cols

    budget = _PivotBudget(max_pivots)

    if n_art:
        art_cols = ns + n_slack + np.arange(n_art)
        T[art_rows, art_cols] = 1.0
        basis[art_rows] = art_cols
        # phase 1: maximize -(sum of artificials)
        T[-1, :] = -T[art_rows].sum(axis=0)
        T[-1, art_cols] += 1.0
        if _run_simplex(T, basis, budget) is not None:
            raise IterationLimit("phase 1 reported unbounded; numerical breakdown")
        if T[-1, -1] < -_TOL:
            return LpOutcome(status=LpStatus.INFEASIBLE, pivots=budget.used)
        # drive leftover artificials out of the basis on any structural or
        # slack column; a row with none left is redundant and dropped
        keep = np.ones(m + 1, dtype=bool)
        for i in (basis >= ns + n_slack).nonzero()[0]:
            candidates = np.abs(T[i, : ns + n_slack]) > _TOL
            col = candidates.argmax()
            if candidates[col]:
                _pivot(T, i, col)
                basis[i] = col
                budget.spend()
            else:
                keep[i] = False  # redundant row
        # keep the surviving rows and the objective, and drop the artificial
        # columns: the rhs moves into the first of them, the last one kept
        T[:, ns + n_slack] = T[:, -1]
        T = T[keep, : ns + n_slack + 1]
        basis = basis[keep[:m]]
        m = basis.size

    # phase 2
    c_ext = np.zeros(T.shape[1] - 1)
    c_ext[:ns] = c
    T[-1, :-1] = -c_ext
    T[-1, -1] = 0.0
    cb = c_ext[basis]
    for i in (cb != 0.0).nonzero()[0]:
        T[-1] += cb[i] * T[i]
    col = _run_simplex(T, basis, budget)
    if col is not None:
        # the edge leaving the final vertex: the entering column rises at
        # rate 1 and each basic variable at -T[i, col] >= -_TOL
        d = np.zeros(T.shape[1] - 1)
        d[col] = 1.0
        d[basis] = -T[:m, col]
        # + 0.0 turns the -0.0 of a negated zero entry into 0.0
        return LpOutcome(status=LpStatus.UNBOUNDED, pivots=budget.used, ray=d[:ns] + 0.0)

    x_std = np.zeros(T.shape[1] - 1)
    x_std[basis] = T[:m, -1]
    # + 0.0 turns a -0.0 into 0.0: a flipped zero rhs, or a phase-1 pivot on
    # a negative element, can leave one in a basic value
    x = x_std[:ns] + 0.0
    duals = None
    if not n_art:
        # slack column of row i is ns + i
        y = T[-1, ns : ns + m]
        duals = np.where(flip, -y, y) if flipped else y.copy()
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        solution=x,
        objective_value=float(lp.objective @ x),
        pivots=budget.used,
        duals=duals,
    )

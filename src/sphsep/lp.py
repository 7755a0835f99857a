"""Dense two-phase simplex solver: Dantzig pricing with a Bland fallback.

The entering column is the one with the most negative reduced cost, and
among rows tied at the minimum ratio the one with the largest pivot element
leaves; after a run of degenerate pivots Bland's rule takes over until the
objective moves again, which guards against cycling.  Self-contained and
deterministic: a plain tableau implementation is exactly reproducible, and
fast enough for the feasibility and pole queries of this package, which
have at most a few hundred rows and columns.  A program is handed over as
one coefficient matrix with a relation and a right-hand side per row, so
neither building nor standardizing it loops over rows.  The tableau keeps
one slack column per row, so its size grows with the square of the row
count; the proof path's hull separations, with one row per fattened vertex
(2n per generator on S^n, thousands on large bodies), are never put into
it whole but solved by row generation, a few dozen rows at a time (see
separation._separating_hyperplane_contracted).  No external solver is
used anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, IterationLimit

__all__ = [
    "LE",
    "EQ",
    "GE",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "solve",
]

LE = "<="
EQ = "="
GE = ">="
# relation codes of the standard-form rows; negating a row negates its code
_CODE = {LE: 1, EQ: 0, GE: -1}


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """maximize objective . x  subject to row constraints and variable bounds.

    constraints: an (m, n) coefficient matrix, one row per constraint
    (default: no rows).  relations: one of "<=", "=", ">=" for every row,
    or a single relation for all of them (default "<=").  rhs: the m
    right-hand sides (default all 0).  So row i reads
    constraints[i] . x  relations[i]  rhs[i], and ``len(constraints)`` is
    the row count.  Bounds default to the classic 0 <= x < +inf; pass
    -inf/+inf entries for free or one-sided variables.  After construction
    ``relations`` holds one relation per row and ``code`` its standard-form
    code, +1 (<=), 0 (=) or -1 (>=).
    """

    objective: np.ndarray
    constraints: np.ndarray | None = None
    relations: str | Sequence[str] = LE
    rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    code: np.ndarray = field(init=False, repr=False)

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
        if rel.ndim == 0:
            rel = np.broadcast_to(rel, (m,))
        if rel.shape != (m,):
            raise DimensionMismatch(f"{rel.size} relations for {m} constraint rows")
        code = np.full(m, 2, dtype=np.intp)
        for name, c in _CODE.items():
            code[rel == name] = c
        if (code == 2).any():
            bad = rel[(code == 2).argmax()]
            raise DimensionMismatch(f"unknown relation {bad!r}")
        self.relations, self.code = rel, code
        self.rhs = np.zeros(m) if self.rhs is None else np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (m,):
            raise DimensionMismatch(
                f"rhs has shape {self.rhs.shape}, expected ({m},)"
            )
        self.lower = (
            np.zeros(nv) if self.lower is None else np.asarray(self.lower, dtype=float)
        )
        self.upper = (
            np.full(nv, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float)
        )
        if self.lower.shape != (nv,) or self.upper.shape != (nv,):
            raise DimensionMismatch("bounds must have one entry per variable")
        finite = np.isfinite(self.lower) & np.isfinite(self.upper)
        if np.any(self.lower[finite] > self.upper[finite]):
            raise DimensionMismatch("some lower bound exceeds its upper bound")

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    """Result of ``solve``; ``pivots`` counts the pivots it spent."""

    status: LpStatus
    solution: np.ndarray | None = None
    objective_value: float | None = None
    pivots: int = 0


def _standardize(lp: LinearProgram):
    """Rewrite with all variables >= 0.

    Variables with lower bound 0 pass through; positive lower bounds are
    shifted out; anything that can go negative is split into a nonnegative
    pair.  Finite bounds not absorbed by the rewrite become explicit rows.
    Returns (c, A, code, rhs, owner, sign, shift), where code holds one
    relation per row of A as +1 (<=), 0 (=) or -1 (>=).

    Standard column k is original variable owner[k] times sign[k], so the
    rows are mapped by a signed column gather, and a standard-form solution
    maps back by summing each variable's signed columns (x_j = sum over
    owner[k] = j of sign[k] x_std[k], plus shift[j]); no dense variable map
    is built.
    """
    nv = lp.num_vars
    owner: list[int] = []
    sign: list[float] = []
    shift = np.zeros(nv)
    extra: list[tuple[dict[int, float], float]] = []  # sparse std-space <= rows

    for j, (lo, hi) in enumerate(zip(lp.lower.tolist(), lp.upper.tolist())):
        if lo == 0.0 or (math.isfinite(lo) and lo > 0.0):
            shift[j] = lo
            owner.append(j)
            sign.append(1.0)
            if math.isfinite(hi):
                extra.append(({len(owner) - 1: 1.0}, hi - lo))
        else:
            # lo < 0 or lo = -inf: split into a nonnegative pair
            owner += [j, j]
            sign += [1.0, -1.0]
            p, m = len(owner) - 2, len(owner) - 1
            if math.isfinite(hi):
                extra.append(({p: 1.0, m: -1.0}, hi))
            if math.isfinite(lo):
                extra.append(({p: -1.0, m: 1.0}, -lo))

    ns = len(owner)
    owner = np.array(owner, dtype=np.intp)
    sign = np.array(sign)

    A0 = lp.constraints
    # np.vecdot takes each row's dot the way row @ shift does, bit for bit
    rhs0 = lp.rhs - np.vecdot(A0, shift) if shift.any() else lp.rhs
    E = np.zeros((len(extra), ns))
    for i, (sparse, _) in enumerate(extra):
        for k, v in sparse.items():
            E[i, k] = v
    A = np.vstack([A0[:, owner] * sign, E])
    code = np.concatenate([lp.code, np.ones(len(extra), dtype=np.intp)])
    rhs = np.concatenate([rhs0, [b for _, b in extra]])
    return lp.objective[owner] * sign, A, code, rhs, owner, sign, shift


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


# consecutive degenerate pivots (pivot-row rhs at most tol, roundoff
# included) after which Bland's rule replaces Dantzig pricing until the
# next non-degenerate pivot
_BLAND_AFTER = 50


def _run_simplex(T: np.ndarray, basis: np.ndarray, tol: float, budget: _PivotBudget) -> str:
    """Dantzig pricing with a Bland fallback.  Returns 'optimal' or
    'unbounded'.

    The entering column has the most negative reduced cost (smallest index
    on ties).  The leaving row has the smallest ratio, ties broken by the
    largest pivot element: on degenerate vertices many rows tie at ratio 0,
    and pivoting on one whose element barely exceeds tol (1e-10, say)
    leaves the tableau too inaccurate to trust its optimum.  After
    _BLAND_AFTER consecutive degenerate pivots the entering column is the
    smallest improving one and ties leave by the smallest basic variable
    index (Bland's rule, both halves of which its anti-cycling proof needs)
    until a pivot row's rhs exceeds tol.  Bland's rule cannot cycle in exact
    arithmetic; judging degeneracy by tol keeps roundoff from resetting the
    run, and the pivot budget bounds the loop in any case.

    T is pivoted in place; ``basis`` (an intp array, one basic column per
    row) is updated in place."""
    m = T.shape[0] - 1
    cost, rhs = T[-1, :-1], T[:m, -1]  # views, kept current by _pivot
    degenerate = 0
    while True:
        bland = degenerate >= _BLAND_AFTER
        col = (cost < -tol).argmax() if bland else cost.argmin()
        if not cost[col] < -tol:
            return "optimal"
        column = T[:m, col]
        pos = (column > tol).nonzero()[0]
        if pos.size == 0:
            return "unbounded"
        ratios = rhs[pos] / column[pos]
        ties = pos[ratios == ratios.min()]
        row = ties[basis[ties].argmin()] if bland else ties[column[ties].argmax()]
        degenerate = degenerate + 1 if rhs[row] <= tol else 0
        _pivot(T, row, col)
        basis[row] = col
        budget.spend()


def solve(lp: LinearProgram, tol: float = 1e-10, max_pivots: int = 20_000) -> LpOutcome:
    """Solve ``lp`` by two-phase simplex.

    Optimal outcomes are feasible within ``tol``; infeasibility means the
    phase-1 optimum exceeded ``tol``.  Identical inputs produce bit-identical
    outcomes.  Raises IterationLimit past ``max_pivots`` total pivots.
    """
    c, A, code, rhs, owner, sign, shift = _standardize(lp)
    m, ns = A.shape

    # orient all rows to nonnegative rhs; >= rows with rhs 0 become <= rows
    # so that they need no artificial variable
    flip = (rhs < 0) | ((rhs == 0.0) & (code == -1))
    A[flip] = -A[flip]
    rhs[flip] = -rhs[flip]
    code[flip] = -code[flip]

    # <= rows get a slack (+1) that starts basic; >= rows a surplus (-1) and
    # an artificial; = rows an artificial only.  Slack and artificial
    # columns are numbered in row order.
    slack_rows = (code != 0).nonzero()[0]
    art_rows = (code != 1).nonzero()[0]
    n_slack, n_art = slack_rows.size, art_rows.size
    slack_cols = ns + np.arange(n_slack)
    art_cols = ns + n_slack + np.arange(n_art)
    total = ns + n_slack + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :ns] = A
    T[:m, -1] = rhs
    T[slack_rows, slack_cols] = code[slack_rows]
    T[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    budget = _PivotBudget(max_pivots)

    if n_art:
        # phase 1: maximize -(sum of artificials)
        T[-1, :] = -T[art_rows].sum(axis=0)
        T[-1, art_cols] += 1.0
        status = _run_simplex(T, basis, tol, budget)
        if status != "optimal":
            raise IterationLimit("phase 1 reported unbounded; numerical breakdown")
        if T[-1, -1] < -tol:
            return LpOutcome(status=LpStatus.INFEASIBLE, pivots=budget.used)
        # drive leftover artificials out of the basis on any structural or
        # slack column; a row with none left is redundant and dropped
        keep = np.ones(m + 1, dtype=bool)
        for i in np.flatnonzero(basis >= ns + n_slack):
            candidates = np.abs(T[i, : ns + n_slack]) > tol
            col = candidates.argmax()
            if candidates[col]:
                _pivot(T, i, col)
                basis[i] = col
                budget.spend()
            else:
                keep[i] = False  # redundant row
        # keep the surviving rows and the objective, remove artificial columns
        T = T[np.ix_(np.flatnonzero(keep), np.r_[: ns + n_slack, total])]
        basis = basis[keep[:m]]
        m = basis.size

    # phase 2
    c_ext = np.zeros(T.shape[1] - 1)
    c_ext[:ns] = c
    T[-1, :-1] = -c_ext
    T[-1, -1] = 0.0
    cb = c_ext[basis]
    for i in np.flatnonzero(cb != 0.0):
        T[-1] += cb[i] * T[i]
    status = _run_simplex(T, basis, tol, budget)
    if status == "unbounded":
        return LpOutcome(status=LpStatus.UNBOUNDED, pivots=budget.used)

    x_std = np.zeros(T.shape[1] - 1)
    x_std[basis] = T[:m, -1]
    x = np.bincount(owner, weights=sign * x_std[:ns], minlength=lp.num_vars) + shift
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        solution=x,
        objective_value=float(lp.objective @ x),
        pivots=budget.used,
    )

import hashlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sphsep.errors import DimensionMismatch, IterationLimit
from sphsep.lp import EQ, GE, LE, LinearProgram, LpStatus, solve

from .oracles import lp_feasible, lp_oracle


def test_box_corner():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraints=[
            (np.array([1.0, 0.0]), LE, 2.0),
            (np.array([0.0, 1.0]), LE, 3.0),
        ],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 5.0)
    assert np.allclose(out.solution, [2.0, 3.0])


def test_infeasible():
    lp = LinearProgram(
        objective=np.array([1.0]),
        constraints=[(np.array([1.0]), LE, -1.0)],
    )
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(objective=np.array([1.0, 0.0]))
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_equality_row():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        constraints=[(np.array([1.0, 1.0]), EQ, 1.0)],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 1.0)
    assert np.allclose(out.solution, [1.0, 0.0])


def test_beale_degenerate_terminates():
    # classic cycling example; Bland's rule must still reach the optimum 0.05
    lp = LinearProgram(
        objective=np.array([0.75, -150.0, 0.02, -6.0]),
        constraints=[
            (np.array([0.25, -60.0, -0.04, 9.0]), LE, 0.0),
            (np.array([0.5, -90.0, -0.02, 3.0]), LE, 0.0),
            (np.array([0.0, 0.0, 1.0, 0.0]), LE, 1.0),
        ],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 0.05)


def test_negative_lower_bounds():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
    )
    out = solve(lp)
    assert np.isclose(out.objective_value, 2.0)
    assert np.allclose(out.solution, [1.0, 1.0])

    lp = LinearProgram(
        objective=np.array([-1.0, -1.0]),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
    )
    out = solve(lp)
    assert np.allclose(out.solution, [-1.0, -1.0])


def test_free_variable_pinned_by_equality():
    lp = LinearProgram(
        objective=np.array([0.0]),
        constraints=[(np.array([1.0]), EQ, -3.0)],
        lower=np.array([-np.inf]),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.solution[0], -3.0)


def test_positive_lower_bound_shift():
    lp = LinearProgram(
        objective=np.array([-1.0]),
        lower=np.array([2.0]),
        upper=np.array([10.0]),
    )
    out = solve(lp)
    assert np.isclose(out.solution[0], 2.0)
    assert np.isclose(out.objective_value, -2.0)


def test_ge_rows_with_zero_rhs_feasible_at_origin():
    # homogeneous >= constraints: the origin is feasible, no artificial
    # variables should be needed; the optimum pushes along the cone
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraints=[(np.array([1.0, -1.0]), GE, 0.0)],
        upper=np.array([1.0, 1.0]),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 2.0)


def test_rejects_mismatched_rows():
    with pytest.raises(DimensionMismatch):
        LinearProgram(
            objective=np.array([1.0, 2.0]),
            constraints=[(np.array([1.0]), LE, 0.0)],
        )
    with pytest.raises(DimensionMismatch):
        LinearProgram(objective=np.array([1.0]), lower=np.array([2.0]), upper=np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        LinearProgram(
            objective=np.array([1.0]),
            constraints=[(np.array([1.0]), "<", 0.0)],
        )


def test_pivot_budget_enforced():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0, 1.0]),
        constraints=[
            (np.array([1.0, 1.0, 0.0]), LE, 4.0),
            (np.array([0.0, 1.0, 1.0]), LE, 4.0),
            (np.array([1.0, 0.0, 1.0]), LE, 4.0),
        ],
    )
    with pytest.raises(IterationLimit):
        solve(lp, max_pivots=1)


def test_deterministic_reruns():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 4))
    b = rng.standard_normal(5) + 2.0
    lp_args = dict(
        objective=rng.standard_normal(4),
        constraints=[(A[i], LE, float(b[i])) for i in range(5)],
        lower=-np.ones(4),
        upper=np.ones(4),
    )
    first = solve(LinearProgram(**lp_args))
    second = solve(LinearProgram(**lp_args))
    assert first.status is second.status
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.solution, second.solution)


def _random_box_lp(rng, nv, nc):
    A = rng.standard_normal((nc, nv))
    b = rng.standard_normal(nc)
    rels = rng.choice([LE, GE], size=nc)
    return LinearProgram(
        objective=rng.standard_normal(nv),
        constraints=[(A[i], str(rels[i]), float(b[i])) for i in range(nc)],
        lower=np.full(nv, -2.0),
        upper=np.full(nv, 2.0),
    )


def test_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(11)
    optimal = 0
    for _ in range(60):
        lp = _random_box_lp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        out = solve(lp)
        status, best = lp_oracle(lp)
        assert out.status is not LpStatus.UNBOUNDED  # box-bounded by design
        if status == "infeasible":
            assert out.status is LpStatus.INFEASIBLE
        else:
            assert out.status is LpStatus.OPTIMAL
            assert abs(out.objective_value - best) < 1e-8
            assert lp_feasible(lp, out.solution)
            optimal += 1
    assert optimal >= 20  # the generator should not be degenerate


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_solution_feasibility_property(seed):
    rng = np.random.default_rng(seed)
    lp = _random_box_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    out = solve(lp)
    if out.status is LpStatus.OPTIMAL:
        assert lp_feasible(lp, out.solution)
        assert np.isclose(out.objective_value, float(lp.objective @ out.solution))


def _bits_battery_lp(rng):
    """A small LP that mixes every branch of solve: LE/GE/EQ rows, zero and
    negative right-hand sides, scaled copies of earlier rows (phase 1 drops
    the redundant equalities), positive lower bounds (the shift), negative
    lower bounds and free variables (the split), and finite upper bounds."""
    nv = int(rng.integers(1, 7))
    nc = int(rng.integers(0, 8))
    lower, upper = np.zeros(nv), np.full(nv, np.inf)
    for j in range(nv):
        kind = int(rng.integers(4))
        if kind == 1:
            lower[j] = rng.uniform(0.1, 1.0)
        elif kind == 2:
            lower[j] = -rng.uniform(0.5, 2.0)
        elif kind == 3:
            lower[j] = -np.inf
        if rng.random() < 0.6:
            upper[j] = max(lower[j], 0.0) + rng.uniform(0.5, 3.0)
    # rows hold at x0 (within the bounds) unless their rhs is redrawn
    x0 = np.clip(rng.uniform(-1.0, 2.0, nv), lower, upper)
    A = rng.standard_normal((nc, nv))
    A[rng.random((nc, nv)) < 0.2] = 0.0
    rels = [str(r) for r in rng.choice([LE, GE, EQ], size=nc)]
    slack = rng.exponential(1.0, nc) * (rng.random(nc) < 0.7)
    b = A @ x0 + np.array([{LE: 1.0, GE: -1.0, EQ: 0.0}[r] for r in rels]) * slack
    redraw = rng.random(nc) < 0.15
    b[redraw] = rng.standard_normal(int(redraw.sum()))
    b[rng.random(nc) < 0.1] = 0.0
    cons = [(A[i], rels[i], float(b[i])) for i in range(nc)]
    for _ in range(int(rng.integers(0, 3)) if nc else 0):
        i = int(rng.integers(nc))
        s = float(rng.uniform(0.5, 2.0))
        cons.append((s * A[i], rels[i], s * float(b[i])))
    return LinearProgram(
        objective=rng.standard_normal(nv), constraints=cons, lower=lower, upper=upper
    )


# sha256 of the battery's outcomes: any change to a pivot, a tie-break or the
# rewrite into standard form changes it.  Update it only together with the
# golden corpus, in a change that means to move the pivot sequence.
_BATTERY_SHA256 = "d06d7c214a74fb58a24d2fa87f0870832f277d6a182b9072c9f43aae62a82238"


def test_solver_bits_pinned():
    rng = np.random.default_rng(20261018)
    h = hashlib.sha256()
    statuses = set()
    for _ in range(400):
        out = solve(_bits_battery_lp(rng))
        statuses.add(out.status)
        h.update(out.status.value.encode())
        if out.solution is not None:
            h.update(out.solution.tobytes())
            h.update(np.float64(out.objective_value).tobytes())
    assert statuses == set(LpStatus)
    assert h.hexdigest() == _BATTERY_SHA256

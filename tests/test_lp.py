import hashlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import sphsep.lp as lp_module
from sphsep.errors import DimensionMismatch, IterationLimit
from sphsep.lp import EQ, GE, LE, LinearProgram, LpStatus, solve

from .oracles import lp_feasible, lp_oracle


def test_box_corner():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraints=np.eye(2),
        relations=LE,
        rhs=np.array([2.0, 3.0]),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 5.0)
    assert np.allclose(out.solution, [2.0, 3.0])


def test_infeasible():
    lp = LinearProgram(
        objective=np.array([1.0]),
        constraints=np.array([[1.0]]),
        relations=LE,
        rhs=np.array([-1.0]),
    )
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(objective=np.array([1.0, 0.0]))
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_equality_row():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        constraints=np.array([[1.0, 1.0]]),
        relations=EQ,
        rhs=np.array([1.0]),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 1.0)
    assert np.allclose(out.solution, [1.0, 0.0])


def test_beale_degenerate_terminates():
    # Beale's cycling example; the solver must still reach the optimum 0.05
    lp = LinearProgram(
        objective=np.array([0.75, -150.0, 0.02, -6.0]),
        constraints=np.array(
            [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]
        ),
        relations=LE,
        rhs=np.array([0.0, 0.0, 1.0]),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 0.05)


def _chvatal_cycling_lp():
    # Chvatal, Linear Programming (1983), ch. 3: largest-coefficient pricing
    # with smallest-index ratio ties cycles here without reaching the optimum
    return LinearProgram(
        objective=np.array([10.0, -57.0, -9.0, -24.0]),
        constraints=np.array(
            [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]]
        ),
        relations=LE,
        rhs=np.array([0.0, 0.0, 1.0]),
    )


def test_chvatal_cycling_example_reaches_optimum():
    out = solve(_chvatal_cycling_lp(), max_pivots=500)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 1.0)
    assert lp_feasible(_chvatal_cycling_lp(), out.solution)


def test_pure_dantzig_cycles_without_bland_fallback(monkeypatch):
    # the fallback is what ends the cycle: without it the budget overruns
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", 10**9)
    with pytest.raises(IterationLimit):
        solve(_chvatal_cycling_lp(), max_pivots=500)


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
        constraints=np.array([[1.0]]),
        relations=EQ,
        rhs=np.array([-3.0]),
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
        constraints=np.array([[1.0, -1.0]]),
        relations=GE,
        rhs=np.array([0.0]),
        upper=np.array([1.0, 1.0]),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, 2.0)


def test_rejects_mismatched_rows():
    malformed = [
        # wrong column count
        dict(constraints=np.ones((2, 3)), relations=LE, rhs=np.zeros(2)),
        # rows given as a flat vector
        dict(constraints=np.ones(2), relations=LE, rhs=np.zeros(1)),
        # relation count differs from the row count
        dict(constraints=np.ones((2, 2)), relations=[LE, GE, EQ], rhs=np.zeros(2)),
        dict(constraints=np.ones((2, 2)), relations=[LE], rhs=np.zeros(2)),
        # unknown relation, alone or in a list
        dict(constraints=np.ones((2, 2)), relations="<", rhs=np.zeros(2)),
        dict(constraints=np.ones((2, 2)), relations=[LE, "=>"], rhs=np.zeros(2)),
        # rhs of the wrong length or shape
        dict(constraints=np.ones((2, 2)), relations=LE, rhs=np.zeros(3)),
        dict(constraints=np.ones((2, 2)), relations=LE, rhs=np.zeros((2, 1))),
        # bounds
        dict(lower=np.array([2.0, 0.0]), upper=np.array([1.0, 1.0])),
        dict(lower=np.zeros(3)),
    ]
    for kwargs in malformed:
        with pytest.raises(DimensionMismatch):
            LinearProgram(objective=np.array([1.0, 2.0]), **kwargs)


def test_single_relation_applies_to_every_row():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lp = LinearProgram(objective=np.array([-1.0, -1.0]), constraints=A, relations=GE,
                       rhs=np.array([1.0, 1.0, 3.0]))
    assert list(lp.relations) == [GE, GE, GE]
    assert lp.code.tolist() == [-1, -1, -1]
    assert len(lp.constraints) == 3
    spelled_out = LinearProgram(objective=lp.objective, constraints=A,
                                relations=[GE, GE, GE], rhs=lp.rhs)
    out, again = solve(lp), solve(spelled_out)
    assert out.status is LpStatus.OPTIMAL
    assert np.isclose(out.objective_value, -3.0)
    assert np.array_equal(out.solution, again.solution)


def test_mixed_relations_are_coded_per_row():
    lp = LinearProgram(objective=np.array([1.0]), constraints=np.ones((3, 1)),
                       relations=np.array([LE, EQ, GE]), rhs=np.array([2.0, 1.0, 0.0]))
    assert lp.code.tolist() == [1, 0, -1]
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL and np.isclose(out.solution[0], 1.0)


def test_zero_row_programs():
    # no rows at all: the bounds alone decide
    lp = LinearProgram(objective=np.array([1.0, -1.0]), lower=np.array([-1.0, -2.0]),
                       upper=np.array([3.0, 4.0]))
    assert lp.constraints.shape == (0, 2) and len(lp.constraints) == 0
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.array_equal(out.solution, [3.0, -2.0])
    # an explicit (0, n) matrix with an empty relation list is the same program
    empty = LinearProgram(objective=lp.objective, constraints=np.zeros((0, 2)), relations=[],
                          rhs=np.zeros(0), lower=lp.lower, upper=lp.upper)
    assert np.array_equal(solve(empty).solution, out.solution)


def test_solve_leaves_the_program_unchanged():
    # solve flips rows with a negative rhs on its own copies only
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    lp = LinearProgram(objective=np.array([1.0, 1.0]), constraints=A.copy(),
                       relations=[LE, GE], rhs=np.array([2.0, -1.0]))
    first = solve(lp)
    assert np.array_equal(lp.constraints, A)
    assert lp.rhs.tolist() == [2.0, -1.0] and lp.code.tolist() == [1, -1]
    assert np.array_equal(solve(lp).solution, first.solution)


def test_pivot_budget_enforced():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0, 1.0]),
        constraints=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
        relations=LE,
        rhs=np.full(3, 4.0),
    )
    with pytest.raises(IterationLimit):
        solve(lp, max_pivots=1)


def test_deterministic_reruns():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 4))
    b = rng.standard_normal(5) + 2.0
    lp_args = dict(
        objective=rng.standard_normal(4),
        constraints=A,
        relations=LE,
        rhs=b,
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
        constraints=A,
        relations=rels,
        rhs=b,
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


def _degenerate_pole_lp(rng, lift=False):
    """maximize t over rows x . row >= t (or <= -t), all with rhs 0, in a
    box: the origin is a vertex on every row, and small integer rows repeat,
    so the simplex starts on a highly degenerate vertex.  A positive lower
    bound on t makes some of them infeasible.

    With ``lift``, a variable z in [0, 1] with objective weight 100 joins
    every row as + c z on the left and c / 10 on the right, and d z <= d / 10
    caps it.  The first pivot raises z to (d / 10) / d, a non-degenerate
    step, and leaves the pole rows with a rhs of c / 10 - c (d / 10) / d:
    roundoff of order 1e-17 instead of an exact 0."""
    k = int(rng.integers(1, 4))
    m = int(rng.integers(2, 7))
    rows = rng.integers(-2, 3, size=(m, k)).astype(float)
    rows[rng.random(m) < 0.3] = rows[0]
    c = rng.integers(1, 4, size=m).astype(float) if lift else np.zeros(m)
    ge = np.array([rng.random() < 0.75 for _ in range(m)])
    A = np.column_stack([rows, np.where(ge, -1.0, 1.0)])
    rels, b = [GE if g else LE for g in ge], np.zeros(m)
    lower = np.append(np.full(k, -1.0), rng.choice([-2.0, 0.0, 0.5]))
    upper = np.append(np.ones(k), 2.0)
    obj = np.zeros(k + 1)
    obj[-1] = 1.0
    if lift:
        d = float(rng.choice([3.0, 6.0, 7.0]))
        A = np.vstack([np.column_stack([A, c]), np.append(np.zeros(k + 1), d)])
        rels, b = rels + [LE], np.append(c / 10, d / 10)
        lower, upper, obj = np.append(lower, 0.0), np.append(upper, 1.0), np.append(obj, 100.0)
    return LinearProgram(obj, A, rels, b, lower=lower, upper=upper)


@pytest.mark.parametrize("lift", [False, True])
def test_degenerate_pole_lps_match_oracle(lift):
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(150):
        lp = _degenerate_pole_lp(rng, lift)
        out = solve(lp)
        status, best = lp_oracle(lp)
        seen.add(status)
        if status == "infeasible":
            assert out.status is LpStatus.INFEASIBLE
        else:
            assert out.status is LpStatus.OPTIMAL
            assert abs(out.objective_value - best) < 1e-8
            assert lp_feasible(lp, out.solution)
    assert seen == {"optimal", "infeasible"}


def test_roundoff_degenerate_pivots_hand_over_to_bland(monkeypatch):
    # with a run length of 1, every pivot whose row had rhs <= tol (exact 0
    # or roundoff) must be followed by Bland's choice within the same phase
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", 1)
    run_simplex, pivot = lp_module._run_simplex, lp_module._pivot
    runs = []
    live = [False]

    def spy_run(T, basis, tol, budget):
        runs.append([])
        live[0] = True
        try:
            return run_simplex(T, basis, tol, budget)
        finally:
            live[0] = False

    def spy_pivot(T, row, col):
        if live[0]:
            cost = T[-1, :-1]
            runs[-1].append((T[row, -1], col, (cost < -1e-10).argmax(), cost.argmin()))
        pivot(T, row, col)

    monkeypatch.setattr(lp_module, "_run_simplex", spy_run)
    monkeypatch.setattr(lp_module, "_pivot", spy_pivot)
    rng = np.random.default_rng(5)
    for _ in range(150):
        solve(_degenerate_pole_lp(rng, lift=True))
    roundoff = decisive = 0
    for run in runs:
        for (rhs, _, _, _), (_, col, bland, dantzig) in zip(run, run[1:]):
            if rhs <= 1e-10:
                assert col == bland
                roundoff += rhs != 0.0
                decisive += rhs != 0.0 and bland != dantzig
    # the battery reaches roundoff-degenerate vertices, and at one of them
    # the two rules disagree, so an exact-zero test would fail here
    assert roundoff > 0 and decisive > 0


def test_phase_one_keeps_rows_that_pin_slacks():
    # x1 - x2 <= 1 and x1 - x2 >= 1 pin x1 - x2 = 1; after phase 1 the
    # artificial of the >= row is basic at 0 in a row with no structural
    # entry, only slack ones.  Dropping it as redundant lost the constraint
    # and returned the infeasible optimum x = 0.
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0]),
        constraints=np.array([[1.0, -1.0], [1.0, -1.0]]),
        relations=[LE, GE],
        rhs=np.array([1.0, 1.0]),
        upper=np.full(2, 2.0),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert np.allclose(out.solution, [1.0, 0.0])
    assert np.isclose(out.objective_value, -1.0)


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
    for _ in range(int(rng.integers(0, 3)) if nc else 0):
        i = int(rng.integers(nc))
        s = float(rng.uniform(0.5, 2.0))
        A, b = np.vstack([A, s * A[i]]), np.append(b, s * b[i])
        rels.append(rels[i])
    return LinearProgram(
        objective=rng.standard_normal(nv), constraints=A, relations=rels, rhs=b,
        lower=lower, upper=upper,
    )


# sha256 of the battery's outcomes: any change to a pivot, a tie-break or the
# rewrite into standard form changes it.  Update it only together with the
# golden corpus, in a change that means to move the pivot sequence.
_BATTERY_SHA256 = "63960a40f8c799351831a6526e4562a5ad5f952166a434eb6b4f26a24c5ecbcf"


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

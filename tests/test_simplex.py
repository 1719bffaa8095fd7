"""Canonical-form simplex solver.

scipy.optimize.linprog (HiGHS) serves as the independent reference on
randomized instances; it is a test-only dependency.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import nomaopt.simplex as S
from nomaopt.simplex import SimplexError, solve_canonical_max


def test_single_variable():
    sol = solve_canonical_max(c=[2.0], A=[[1.0]], b=[3.0])
    assert sol.x == pytest.approx([3.0])
    assert sol.value == pytest.approx(6.0)


def test_two_variable_hand_lp():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> vertex (8/5, 6/5), value 14/5
    sol = solve_canonical_max(c=[1.0, 1.0], A=[[1.0, 2.0], [3.0, 1.0]], b=[4.0, 6.0])
    assert sol.x == pytest.approx([8.0 / 5.0, 6.0 / 5.0], rel=1e-12)
    assert sol.value == pytest.approx(14.0 / 5.0, rel=1e-12)


def test_zero_rhs_starts_degenerate():
    sol = solve_canonical_max(c=[1.0], A=[[1.0], [1.0]], b=[0.0, 5.0])
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_negative_objective_keeps_origin():
    sol = solve_canonical_max(c=[-1.0, -2.0], A=[[1.0, 1.0]], b=[2.0])
    assert sol.x == pytest.approx([0.0, 0.0])
    assert sol.value == 0.0


def test_beale_cycling_example_terminates():
    # classic cycling instance for Dantzig's rule; Bland's rule must finish
    c = [0.75, -150.0, 0.02, -6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    sol = solve_canonical_max(c, A, b)
    assert sol.value == pytest.approx(0.05, rel=1e-9)


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        solve_canonical_max(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[1.0])


def test_input_validation():
    with pytest.raises(SimplexError, match="shape"):
        solve_canonical_max(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
    with pytest.raises(SimplexError, match="non-negative"):
        solve_canonical_max(c=[1.0], A=[[1.0]], b=[-1.0])
    with pytest.raises(SimplexError, match="finite"):
        solve_canonical_max(c=[np.nan], A=[[1.0]], b=[1.0])


def test_tiny_negative_rhs_is_round_off():
    sol = solve_canonical_max(c=[1.0], A=[[1.0]], b=[-1e-12])
    assert sol.value == pytest.approx(0.0, abs=1e-11)


def test_matches_reference_solver_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = rng.uniform(0.0, 2.0, size=(m, n))
        # keep every column bounded so the LP has a finite optimum
        A[rng.integers(0, m), :] += 0.1
        b = rng.uniform(0.1, 5.0, size=m)
        c = rng.uniform(-1.0, 2.0, size=n)
        sol = solve_canonical_max(c, A, b)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0, f"reference failed on trial {trial}"
        assert sol.value == pytest.approx(-ref.fun, rel=1e-8, abs=1e-10), trial
        assert np.all(A @ sol.x <= b + 1e-8 * np.maximum(1.0, np.abs(b)))
        assert np.all(sol.x >= -1e-12)


def test_badly_scaled_rows():
    # same hand LP as above with one row scaled by 1e8
    sol = solve_canonical_max(
        c=[1.0, 1.0],
        A=[[1e8, 2e8], [3.0, 1.0]],
        b=[4e8, 6.0],
    )
    assert sol.value == pytest.approx(14.0 / 5.0, rel=1e-10)


def test_pivot_budget(monkeypatch):
    monkeypatch.setattr(S, "_MAX_PIVOTS", 0)
    # the all-slack start is optimal: no pivot is needed
    assert solve_canonical_max(c=[-1.0], A=[[1.0]], b=[1.0]).iterations == 0
    with pytest.raises(SimplexError, match="pivot budget of 0 exhausted"):
        solve_canonical_max(c=[2.0], A=[[1.0]], b=[3.0])

"""Property test of ``solve`` over adversarial drops.

Drops span gains from 1e-16 to 1e-2 against thermal-scale noise, zero
caps, exact ties and identical carriers, at K 1-4 and L 1-2. Every solve
must return without raising, with a feasible allocation, an upper bound
at or above both baselines, a certified gap within epsilon, and the same
result bit for bit on a rerun. Every result's ``z`` is the shifted SINRs
its powers achieve, bit for bit. On every drop (all have at most 4
cells), the solve's interval [rate, bound] meets the grid oracle's
[value, value + error_bound]: both hold the optimum, certified or not.
Non-unit weights raise ``UnsupportedWeightsError`` from every solver and
baseline.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nomaopt.model import Scenario
from nomaopt.oracle import baseline_full_power, baseline_greedy, grid_optimum
from nomaopt.polyblock import solve
from nomaopt.reduction import UnsupportedWeightsError, reduce_scenario, z_from_p

import hard_drops

BUDGET = 200
# grid points per axis by cells: at most 10^4 points per carrier
GRID = {1: 10_000, 2: 100, 3: 21, 4: 10}

_gain = st.one_of(
    st.sampled_from([1e-16, 1e-12, 1e-8, 1e-4, 1e-2]),
    st.floats(min_value=-16.0, max_value=-2.0).map(lambda e: 10.0**e),
)
_cap = st.sampled_from([0.0, 0.0, 1e-6, 1e-4, 1e-2, 1.0])


@st.composite
def _drops(draw):
    K = draw(st.integers(1, 4))
    L = draw(st.integers(1, 2))
    users = tuple(draw(st.lists(st.integers(1, 2), min_size=K, max_size=K)))
    U = sum(users)
    n = 1 if draw(st.booleans()) else L  # carriers with their own data
    gains = np.array(draw(st.lists(_gain, min_size=K * U * n, max_size=K * U * n))).reshape(K, U, n)
    caps = np.array(draw(st.lists(_cap, min_size=K * n, max_size=K * n))).reshape(K, n)
    if n < L:  # identical carriers
        gains, caps = np.repeat(gains, L, axis=2), np.repeat(caps, L, axis=1)
    s = Scenario(
        num_cells=K,
        num_subcarriers=L,
        users_per_cell=users,
        sic_limit=draw(st.integers(1, 2)),
        gains=gains,
        noise_power=draw(st.sampled_from([1e-15, 6.3e-15, 1e-13])),
        subcarrier_cap=caps,
        cell_cap=caps.sum(axis=1),
    )
    return s, draw(st.sampled_from([1e-3, 0.01, 0.05])), BUDGET


def _fields(res):
    return (
        res.status,
        res.iterations,
        res.sum_rate_nats,
        res.upper_bound,
        res.z.tobytes(),
        res.allocation.p.tobytes(),
        res.trace,
    )


# one projection starts so far below its bound that a clamped step rounds
# onto the bound before any upper end is evaluated
_UNBRACKETED = Scenario(
    num_cells=2,
    num_subcarriers=1,
    users_per_cell=(1, 1),
    sic_limit=1,
    gains=[[[8.9e-3], [2.2e-4]], [[7.1e-4], [8.3e-8]]],
    noise_power=6.3e-15,
    subcarrier_cap=[[1.4e-4], [3.5e-4]],
    cell_cap=[1.4e-4, 3.5e-4],
)
# a projection whose lower end sits just under the scale where a cell
# switches on, where tangent and chord steps crawl; its 283rd projection
_SWITCH_ON_KINK = hard_drops.scenario("slow K=4 [0, 1]")


def _tiny_gains():
    """Serving gains far below the cross gains: a system past the pole
    solves to powers near -1e-13 W, which an absolute round-off tolerance
    took for zero, so the solver reported an SINR of 1.1 at zero power."""
    g = np.full((3, 4, 2), 1e-16)
    g[0, 3, 0] = g[2, 0, 0] = 1e-2
    g[2, 3, 0] = 1e-12
    caps = np.array([[1e-6, 0.0], [0.0, 0.0], [1e-4, 0.0]])
    return Scenario(
        num_cells=3,
        num_subcarriers=2,
        users_per_cell=(1, 1, 2),
        sic_limit=1,
        gains=g,
        noise_power=1e-15,
        subcarrier_cap=caps,
        cell_cap=caps.sum(axis=1),
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_drops())
@example((_UNBRACKETED, 0.01, BUDGET))
@example((_SWITCH_ON_KINK, 0.01, 300))
@example((_tiny_gains(), 1e-3, BUDGET))
def test_solve_is_sound_on_adversarial_drops(drop):
    s, eps, budget = drop
    res = solve(s, eps, max_iterations=budget)
    assert res.feasibility.feasible
    bases = (baseline_full_power(s), baseline_greedy(s))
    for base in bases:
        assert res.upper_bound >= base.sum_rate_nats - 1e-9
    r = reduce_scenario(s)
    for out in (res, *bases):
        assert out.z.tobytes() == z_from_p(r, out.allocation.p[list(r.active)]).tobytes()
    if res.certified:
        assert res.upper_bound - res.sum_rate_nats <= eps + 1e-12 * max(1.0, abs(res.upper_bound))
    g = grid_optimum(s, GRID[s.num_cells])
    tol = 1e-9 * max(1.0, g.value)
    assert g.value <= res.upper_bound + tol
    assert res.sum_rate_nats <= g.value + g.error_bound + tol
    assert _fields(solve(s, eps, max_iterations=budget)) == _fields(res)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_drops(), st.data())
def test_non_unit_weights_raise_from_every_solver(drop, data):
    s = drop[0]
    U = sum(s.users_per_cell)
    weights = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=U, max_size=U)
    s = dataclasses.replace(s, weights=data.draw(weights.filter(lambda w: w != [1.0] * U)))
    for call in (lambda: solve(s, 0.01), lambda: grid_optimum(s, 2), lambda: baseline_full_power(s),
                 lambda: baseline_greedy(s)):
        with pytest.raises(UnsupportedWeightsError):
            call()

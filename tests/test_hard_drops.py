"""The solver on the drops of ``hard_drops``, at a small iteration budget.

Most of them run out of it. Whether a drop certifies or not, the result
must be sound: a bound at or above both baselines, an incumbent at least
full power's, a feasible allocation, a status that says whether the gap
closed, and a trace whose bound never rises and whose incumbent never
falls. Greedy's point may beat the incumbent (by up to 0.16 nats on
region B), so the incumbent is not held to it.
"""

import pytest

from nomaopt.model import check_feasible
from nomaopt.oracle import baseline_full_power, baseline_greedy
from nomaopt.polyblock import solve

from hard_drops import EPSILON, HARD_DROPS, scenario

BUDGET = 200


@pytest.mark.parametrize("name", list(HARD_DROPS))
def test_solve_is_sound_within_its_budget(name):
    s = scenario(name)
    res = solve(s, EPSILON, max_iterations=BUDGET)
    full, greedy = baseline_full_power(s), baseline_greedy(s)
    assert res.upper_bound >= greedy.sum_rate_nats
    assert res.upper_bound >= full.sum_rate_nats
    assert res.sum_rate_nats >= full.sum_rate_nats - 1e-9
    assert check_feasible(s, res.allocation).feasible
    assert (res.status == "budget_exceeded") == (not res.certified)
    if not res.certified:
        assert res.iterations == BUDGET
        assert res.upper_bound >= res.sum_rate_nats
    uppers = [row.upper_bound for row in res.trace]
    incumbents = [row.incumbent for row in res.trace]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert all(a <= b for a, b in zip(incumbents, incumbents[1:]))

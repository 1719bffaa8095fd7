"""The ray projection is a bracketed line search on lambda. The normalized
Dinkelbach loop it replaced (Crouzeix, Ferland and Schaible, JOTA 1985),
one max-min LP per step, is kept here as the reference. Both certify the
boundary scale to 1e-9 relative, so they must agree to 1e-8, from a cold
start and from the warm starts the solver uses."""

import numpy as np
import pytest

from nomaopt.fractional import build_maximin_lp, compute_nd, dinkelbach_project, solve_maximin_lp
from nomaopt.reduction import reduce_scenario

from conftest import extreme_ray, random_scenario, sym2_scenario


def _dinkelbach_lambda(r, z0, start=None, max_outer=200):
    """Reference: the LP loop, stopped once lam * max(t, 0) * max(d_prev) / N,
    which bounds how far the boundary can still be, is at most
    1e-9 * max(1, lam)."""
    q = np.zeros(r.dim) if start is None else np.asarray(start, dtype=float)
    _, d, ratios = compute_nd(r, q)
    lam = float(np.min(ratios / z0))
    for _ in range(max_outer):
        q, t = solve_maximin_lp(build_maximin_lp(r, lam, z0, d))
        done = lam * max(t, 0.0) * float(np.max(d)) / r.scenario.noise_power <= 1e-9 * max(1.0, lam)
        _, d_q, ratios = compute_nd(r, q)
        lam_q = float(np.min(ratios / z0))
        if lam_q > lam:
            lam, d = lam_q, d_q
        if done:
            return lam
    raise AssertionError("the reference loop did not converge")


def _agrees(r, z0, parent):
    """Cold start, and a warm start at the projection powers of a dominating ray."""
    cold = dinkelbach_project(r, z0)
    assert cold.lam == pytest.approx(_dinkelbach_lambda(r, z0), rel=1e-8)
    start = dinkelbach_project(r, parent).powers
    warm = dinkelbach_project(r, z0, start=start)
    assert warm.lam == pytest.approx(_dinkelbach_lambda(r, z0, start), rel=1e-8)


def test_line_search_matches_dinkelbach_on_random_rays():
    rng = np.random.default_rng(71)
    for _ in range(60):
        K, L = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        r = reduce_scenario(random_scenario(rng, num_cells=K, num_subcarriers=L))
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        _agrees(r, z0, z0 * rng.uniform(1.0, 2.0, size=r.dim))


@pytest.mark.parametrize("seed", range(100))
def test_line_search_matches_dinkelbach_on_extreme_rays(seed):
    r, z0 = extreme_ray(seed)
    _agrees(r, z0, z0 * 10.0 ** np.random.default_rng(seed).uniform(0.0, 1.0, size=r.dim))


def test_line_search_matches_dinkelbach_on_all_ones_rays():
    # the silent point lies strictly inside the set; both methods scale it up
    for r, z0 in (extreme_ray(1435), (reduce_scenario(sym2_scenario()), np.ones(2))):
        assert np.all(z0 == 1.0)
        _agrees(r, z0, 2.0 * z0)

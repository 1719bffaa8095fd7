"""The ray projection is a bracketed line search on lambda. The normalized
Dinkelbach loop it replaced (Crouzeix, Ferland and Schaible, JOTA 1985),
one max-min LP per step, is kept here as the reference. Both certify the
boundary scale to 1e-9 relative, so they must agree to 1e-8, from a cold
start and from the warm starts the solver uses.

Each step of the search evaluates one scale (``fractional._evaluate``).
For a one-carrier problem, the solver's only case, it passes the power
system its one row and multiplies by the one inverse directly; the body
it replaced, which transposes (K, L) arrays and runs a stacked product
for every problem, is kept here too. The arithmetic is the same, so every
field of the projection must agree bit for bit."""

import math

import numpy as np
import pytest

import nomaopt.fractional as F
from nomaopt.fractional import build_maximin_lp, compute_nd, dinkelbach_project, solve_maximin_lp
from nomaopt.reduction import power_systems, reduce_scenario

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


# -- the reference: one evaluation through the (K, L) layout ---------------------


def ref_evaluate(r, zc, caps, limit, lam):
    gamma = [max(lam * c, 1.0) - 1.0 for c in zc]
    K, L = r.gain_active.shape
    x, singular, negative = power_systems(r, np.array(gamma).reshape(K, L).T)
    if any(singular) or any(negative):
        return F._Point(lam, None, math.nan, False)
    q, inv = x[:, :, 0].T.reshape(-1), x[:, :, 1:]
    qs = q.tolist()
    if min(qs) < 0.0:
        q = np.maximum(q, 0.0)
        qs = q.tolist()
    h = max([a / b for a, b in zip(qs, limit)]) - 1.0
    if any([a > c for a, c in zip(qs, caps)]):
        return F._Point(lam, q, h, False)
    rate = np.array([c * a / g if g > 0.0 else 0.0 for c, a, g in zip(zc, qs, gamma)])
    dq = np.matmul(inv, rate.reshape(K, L).T[:, :, None])[:, :, 0].T.reshape(-1).tolist()
    reach = min([(c - a) / d for c, a, d in zip(caps, qs, dq) if d > 0.0], default=math.inf)
    step = 0.5 * min(F._LAM_RTOL * lam, F._Q_ATOL / max(max(dq), 1e-300))
    return F._Point(lam, q, h, True, lam + reach, max(step, math.ulp(lam)))


def _fields(res):
    return (res.z_proj.tobytes(), res.z_proj.shape, res.lam, res.lam_upper,
            res.powers.tobytes(), res.powers.shape, res.lambdas, res.iterations)


def _projections(r, z0, parent):
    """A cold projection of z0 and a warm one from a dominating ray's powers."""
    cold = dinkelbach_project(r, z0)
    warm = dinkelbach_project(r, z0, start=dinkelbach_project(r, parent).powers)
    return [_fields(cold), _fields(warm)]


def _reference_cases():
    rng = np.random.default_rng(72)
    for _ in range(60):
        K, L = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        r = reduce_scenario(random_scenario(rng, num_cells=K, num_subcarriers=L))
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        yield r, z0, z0 * rng.uniform(1.0, 2.0, size=r.dim)
    for seed in range(100):
        r, z0 = extreme_ray(seed)
        yield r, z0, z0 * 10.0 ** np.random.default_rng(seed).uniform(0.0, 1.0, size=r.dim)


def test_projection_matches_the_transposing_evaluation_bit_for_bit(monkeypatch):
    cases = list(_reference_cases())
    got = [_projections(*case) for case in cases]
    monkeypatch.setattr(F, "_evaluate", ref_evaluate)
    ref = [_projections(*case) for case in cases]
    assert got == ref
    # both paths ran: one-carrier problems and the public multi-carrier layout
    assert {r.gain_active.shape[1] for r, _, _ in cases} == {1, 2, 3}

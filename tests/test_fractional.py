"""Ratio bookkeeping, the inner max-min LP, and the ray projection.

Closed forms used below (single cell, gain g, noise N, cap P):
the realizable shifted SINR is z = 1 + g q / N for q in [0, P], so the
boundary along the ray through z0 sits at scale (1 + g P / N) / z0.
With g = 1, N = 1, P = 2 the boundary is z = 3; projecting z0 = 11
must return scale 3/11 and powers (2,).
"""

import numpy as np
import pytest

from nomaopt.fractional import (
    ProjectionError,
    build_maximin_lp,
    compute_nd,
    dinkelbach_project,
    solve_maximin_lp,
)
from nomaopt.reduction import membership, reduce_scenario, z_from_p

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


# -- numerators, denominators, ratios ---------------------------------------


def test_compute_nd_at_zero_power():
    r = reduce_scenario(sym2_scenario())
    n, d, ratios = compute_nd(r, [0.0, 0.0])
    assert np.array_equal(n, [1.0, 1.0])
    assert np.array_equal(d, [1.0, 1.0])
    assert np.array_equal(ratios, [1.0, 1.0])


def test_compute_nd_single_cell_has_constant_denominator():
    r = reduce_scenario(k1_scenario(gain=3.0, noise=2.0, cap=2.0))
    n, d, ratios = compute_nd(r, [1.5])
    assert d == pytest.approx([2.0])
    assert n == pytest.approx([3.0 * 1.5 + 2.0])
    assert ratios == pytest.approx([(4.5 + 2.0) / 2.0])


def test_compute_nd_symmetric_two_cell():
    r = reduce_scenario(sym2_scenario())
    _, _, ratios = compute_nd(r, [1.0, 1.0])
    assert np.allclose(ratios, [2.0, 2.0], rtol=1e-15)


def test_ratios_equal_shifted_sinr():
    rng = np.random.default_rng(23)
    for _ in range(50):
        s = random_scenario(rng, num_cells=3, num_subcarriers=2)
        r = reduce_scenario(s)
        q = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
        n, d, ratios = compute_nd(r, q)
        assert np.all(d > 0)
        assert np.all(n >= d)
        assert np.allclose(ratios, z_from_p(r, q).active_z, rtol=1e-12)


def test_compute_nd_input_checks():
    r = reduce_scenario(sym2_scenario())
    with pytest.raises(ValueError):
        compute_nd(r, [1.0])


# -- inner max-min LP --------------------------------------------------------


def test_lp_single_cell_unit_lambda():
    # margin reduces to q itself: maximize over [0, 2]
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    q, t = solve_maximin_lp(build_maximin_lp(r, lam=1.0, z=[1.0]))
    assert q == pytest.approx([2.0], rel=1e-12)
    assert t == pytest.approx(2.0, rel=1e-12)


def test_lp_huge_lambda_is_negative():
    r = reduce_scenario(sym2_scenario())
    q, t = solve_maximin_lp(build_maximin_lp(r, lam=1e6, z=[2.0, 2.0]))
    assert t < 0


def test_lp_never_below_silent_point():
    # q = 0 is always feasible with margin N * min(1 - lam z)
    r = reduce_scenario(sym2_scenario())
    for lam in (0.3, 1.0, 4.0):
        z = np.array([2.0, 1.5])
        _, t = solve_maximin_lp(build_maximin_lp(r, lam=lam, z=z))
        assert t >= r.scenario.noise_power * float(np.min(1.0 - lam * z)) - 1e-12


def test_lp_matches_grid_search_two_cells():
    gains = np.zeros((2, 2, 1))
    gains[0, 0, 0] = 2.0
    gains[1, 0, 0] = 0.5
    gains[0, 1, 0] = 0.8
    gains[1, 1, 0] = 3.0
    s = make_scenario(gains, noise=1.0, subcarrier_cap=[[2.0], [1.5]])
    r = reduce_scenario(s)
    lam, z = 0.7, np.array([2.5, 1.8])
    q_lp, t_lp = solve_maximin_lp(build_maximin_lp(r, lam, z))

    pts = 200
    g0 = np.linspace(0.0, 2.0, pts)
    g1 = np.linspace(0.0, 1.5, pts)
    Q0, Q1 = np.meshgrid(g0, g1, indexing="ij")
    # margins m_i = g_i q_i + (1 - lam z_i)(cross_i q_other + N)
    c0, c1 = 1.0 - lam * z[0], 1.0 - lam * z[1]
    m0 = 2.0 * Q0 + c0 * (0.5 * Q1 + 1.0)
    m1 = 3.0 * Q1 + c1 * (0.8 * Q0 + 1.0)
    t_grid = np.minimum(m0, m1).max()

    # per-coordinate Lipschitz bound of the min of affine margins
    lip0 = max(2.0, abs(c1) * 0.8)
    lip1 = max(3.0, abs(c0) * 0.5)
    bound = lip0 * 2.0 / (pts - 1) + lip1 * 1.5 / (pts - 1)
    assert t_grid <= t_lp + 1e-9
    assert t_lp <= t_grid + bound


def test_lp_respects_caps():
    rng = np.random.default_rng(31)
    for _ in range(20):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        z = 1.0 + rng.uniform(0.0, 3.0, size=r.dim)
        lam = rng.uniform(0.2, 2.0)
        q, _ = solve_maximin_lp(build_maximin_lp(r, lam, z))
        qm = q.reshape(r.gain_active.shape)
        assert np.all(qm <= r.cap_carrier + 1e-12)
        assert np.all(qm.sum(axis=1) <= s.cell_cap + 1e-9)
        assert np.all(q >= 0)


def test_lp_builder_input_checks():
    r = reduce_scenario(sym2_scenario())
    with pytest.raises(ValueError):
        build_maximin_lp(r, lam=0.0, z=[2.0, 2.0])
    with pytest.raises(ValueError):
        build_maximin_lp(r, lam=1.0, z=[0.5, 2.0])
    with pytest.raises(ValueError):
        build_maximin_lp(r, lam=1.0, z=[2.0])


# -- ray projection ----------------------------------------------------------


def test_projection_single_cell_closed_form():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    res = dinkelbach_project(r, r.vector([11.0]))
    assert res.lam == pytest.approx(3.0 / 11.0, rel=1e-9)
    assert res.z_proj.active_z == pytest.approx([3.0], rel=1e-9)
    assert res.powers == pytest.approx([2.0], rel=1e-9)


def test_projection_scales_up_interior_points():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    res = dinkelbach_project(r, r.vector([2.0]))
    assert res.lam == pytest.approx(1.5, rel=1e-9)
    assert res.z_proj.active_z == pytest.approx([3.0], rel=1e-9)


def test_projection_all_ones_is_fixed_point():
    r = reduce_scenario(sym2_scenario())
    res = dinkelbach_project(r, r.vector([1.0, 1.0]))
    assert res.lam == 1.0
    assert np.array_equal(res.powers, [0.0, 0.0])
    assert res.iterations == 0


def test_projection_floors_coordinates_at_one():
    # carrier 1 has no power budget: its coordinate pins at 1
    s = make_scenario([[[1.0, 1.0]]], noise=1.0, subcarrier_cap=[[2.0, 0.0]])
    r = reduce_scenario(s)
    res = dinkelbach_project(r, r.vector([5.0, 1.0]))
    assert res.lam == pytest.approx(3.0 / 5.0, rel=1e-9)
    assert res.z_proj.active_z == pytest.approx([3.0, 1.0], rel=1e-9)
    assert res.powers == pytest.approx([2.0, 0.0], abs=1e-12)


def test_projection_symmetric_two_cell_hand_value():
    # by symmetry both cells transmit at cap 2: z = 1 + 2*2/(2+1) = 7/3
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    res = dinkelbach_project(r, r.vector([4.0, 4.0]))
    assert res.z_proj.active_z == pytest.approx([7.0 / 3.0, 7.0 / 3.0], rel=1e-8)
    assert res.powers == pytest.approx([2.0, 2.0], rel=1e-8)


def test_projection_lambda_sequence_strictly_increases():
    rng = np.random.default_rng(41)
    for _ in range(25):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        res = dinkelbach_project(r, r.vector(z0))
        seq = np.array(res.lambdas)
        assert np.all(np.diff(seq) > 0)
        assert res.iterations >= 1


def test_projection_lands_on_boundary():
    rng = np.random.default_rng(43)
    for _ in range(25):
        s = random_scenario(rng, num_cells=3, num_subcarriers=1, users_per_cell=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        res = dinkelbach_project(r, r.vector(z0))
        assert membership(r, res.z_proj)
        outside = r.vector(res.z_proj.active_z * (1.0 + 1e-4))
        assert not membership(r, outside)


def test_projection_powers_realize_output():
    rng = np.random.default_rng(47)
    for _ in range(25):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        res = dinkelbach_project(r, r.vector(z0))
        achieved = z_from_p(r, res.powers)
        assert np.allclose(achieved.active_z, res.z_proj.active_z, rtol=1e-9, atol=1e-12)
        # the recorded inner state dominates the output componentwise
        assert np.all(res.state.ratios >= res.z_proj.active_z * (1.0 - 1e-9))


def test_projection_idempotent_on_boundary_points():
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = random_scenario(rng, num_cells=2, num_subcarriers=1)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.5, 4.0, size=r.dim)
        first = dinkelbach_project(r, r.vector(z0))
        if np.all(first.z_proj.active_z <= 1.0 + 1e-12):
            continue
        second = dinkelbach_project(r, first.z_proj)
        assert second.lam == pytest.approx(1.0, abs=1e-6)


def test_projection_budget_error_carries_lambdas():
    r = reduce_scenario(sym2_scenario())
    with pytest.raises(ProjectionError) as info:
        dinkelbach_project(r, r.vector([4.0, 4.0]), max_outer=1)
    assert len(info.value.lambdas) >= 1

"""Ratio bookkeeping, the inner max-min LP, and the ray projection.

Closed forms used below (single cell, gain g, noise N, cap P):
the realizable shifted SINR is z = 1 + g q / N for q in [0, P], so the
boundary along the ray through z0 sits at scale (1 + g P / N) / z0.
With g = 1, N = 1, P = 2 the boundary is z = 3; projecting z0 = 11
must return scale 3/11 and powers (2,).
"""

import numpy as np
import pytest

import nomaopt.fractional as F
from nomaopt.fractional import (
    ProjectionError,
    build_maximin_lp,
    compute_nd,
    dinkelbach_project,
    solve_maximin_lp,
)
from nomaopt.experiments import RadioConfig, generate_scenario
from nomaopt.model import Scenario
from nomaopt.reduction import (
    InconsistentSinrError,
    initial_vertex,
    membership,
    p_from_z,
    power_systems,
    reduce_scenario,
    z_from_p,
)

from conftest import extreme_ray, k1_scenario, make_scenario, random_scenario, sym2_scenario


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


def test_compute_nd_input_checks():
    r = reduce_scenario(sym2_scenario())
    with pytest.raises(ValueError):
        compute_nd(r, [1.0])


# -- inner max-min LP --------------------------------------------------------


def test_lp_single_cell_unit_lambda():
    # margin reduces to q / d_prev: maximize over [0, 2]
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    q, t = solve_maximin_lp(build_maximin_lp(r, lam=1.0, z=[1.0], d_prev=[1.0]))
    assert q == pytest.approx([2.0], rel=1e-12)
    assert t == pytest.approx(2.0, rel=1e-12)
    # the row is divided by lam * z * d_prev; the maximizer does not move
    q, t = solve_maximin_lp(build_maximin_lp(r, lam=0.5, z=[1.0], d_prev=[4.0]))
    assert q == pytest.approx([2.0], rel=1e-12)
    assert t == pytest.approx((2.0 + 0.5 * 1.0) / (0.5 * 4.0), rel=1e-12)


def test_lp_huge_lambda_is_negative():
    r = reduce_scenario(sym2_scenario())
    q, t = solve_maximin_lp(build_maximin_lp(r, lam=1e6, z=[2.0, 2.0], d_prev=[1.0, 1.0]))
    assert t < 0


def test_lp_never_below_silent_point():
    # q = 0 is always feasible with margin min N (1 - lam z) / (lam z d_prev)
    r = reduce_scenario(sym2_scenario())
    N = r.scenario.noise_power
    z = np.array([2.0, 1.5])
    for d_prev in ([1.0, 1.0], [1.0, 3.0], [2.5, 1.0]):
        for lam in (0.3, 1.0, 4.0):
            _, t = solve_maximin_lp(build_maximin_lp(r, lam=lam, z=z, d_prev=d_prev))
            silent = float(np.min(N * (1.0 - lam * z) / (lam * z * np.array(d_prev))))
            assert t >= silent - 1e-12


def test_lp_matches_grid_search_two_cells():
    gains = np.zeros((2, 2, 1))
    gains[0, 0, 0] = 2.0
    gains[1, 0, 0] = 0.5
    gains[0, 1, 0] = 0.8
    gains[1, 1, 0] = 3.0
    s = make_scenario(gains, noise=1.0, subcarrier_cap=[[2.0], [1.5]])
    r = reduce_scenario(s)
    lam, z, d_prev = 0.7, np.array([2.5, 1.8]), np.array([1.5, 2.2])
    q_lp, t_lp = solve_maximin_lp(build_maximin_lp(r, lam, z, d_prev))

    pts = 200
    g0 = np.linspace(0.0, 2.0, pts)
    g1 = np.linspace(0.0, 1.5, pts)
    Q0, Q1 = np.meshgrid(g0, g1, indexing="ij")
    # margins m_i = (g_i q_i + (1 - lam z_i)(cross_i q_other + N)) / (lam z_i d_prev_i)
    c0, c1 = 1.0 - lam * z[0], 1.0 - lam * z[1]
    s0, s1 = 1.0 / (lam * z[0] * d_prev[0]), 1.0 / (lam * z[1] * d_prev[1])
    m0 = (2.0 * Q0 + c0 * (0.5 * Q1 + 1.0)) * s0
    m1 = (3.0 * Q1 + c1 * (0.8 * Q0 + 1.0)) * s1
    t_grid = np.minimum(m0, m1).max()

    # per-coordinate Lipschitz bound of the min of affine margins
    lip0 = max(2.0 * s0, abs(c1) * 0.8 * s1)
    lip1 = max(3.0 * s1, abs(c0) * 0.5 * s0)
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
        _, d_prev, _ = compute_nd(r, rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1))
        q, _ = solve_maximin_lp(build_maximin_lp(r, lam, z, d_prev))
        qm = q.reshape(r.gain_active.shape)
        assert np.all(qm <= r.cap_carrier + 1e-12)
        assert np.all(qm.sum(axis=1) <= s.cell_cap + 1e-9)
        assert np.all(q >= 0)


def test_lp_builder_input_checks():
    r = reduce_scenario(sym2_scenario())
    d_prev = [1.0, 1.0]
    with pytest.raises(ValueError):
        build_maximin_lp(r, lam=0.0, z=[2.0, 2.0], d_prev=d_prev)
    with pytest.raises(ValueError):
        build_maximin_lp(r, lam=1.0, z=[0.5, 2.0], d_prev=d_prev)
    with pytest.raises(ValueError):
        build_maximin_lp(r, lam=1.0, z=[2.0], d_prev=d_prev)
    for bad in ([1.0], [1.0, 0.0], [1.0, -2.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError):
            build_maximin_lp(r, lam=1.0, z=[2.0, 2.0], d_prev=bad)


# -- ray projection ----------------------------------------------------------


def test_projection_single_cell_closed_form():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    res = dinkelbach_project(r, [11.0])
    assert res.lam == pytest.approx(3.0 / 11.0, rel=1e-9)
    assert res.z_proj == pytest.approx([3.0], rel=1e-9)
    assert res.powers == pytest.approx([2.0], rel=1e-9)


def test_projection_scales_up_interior_points():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    res = dinkelbach_project(r, [2.0])
    assert res.lam == pytest.approx(1.5, rel=1e-9)
    assert res.z_proj == pytest.approx([3.0], rel=1e-9)


def test_projection_scales_up_all_ones_ray():
    # the all-ones ray is the silent point, strictly inside the set: by
    # symmetry its boundary point is both cells at cap 2, z = 7/3
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    res = dinkelbach_project(r, [1.0, 1.0])
    assert res.lam == pytest.approx(7.0 / 3.0, rel=1e-9)
    assert res.z_proj == pytest.approx([7.0 / 3.0, 7.0 / 3.0], rel=1e-9)
    assert res.powers == pytest.approx([2.0, 2.0], rel=1e-8)


def test_projection_all_ones_ray_with_zero_caps_stays_silent():
    # every cap zero: the interference-free bound is 1, reached at once
    r = reduce_scenario(sym2_scenario(q_cap=0.0))
    res = dinkelbach_project(r, [1.0, 1.0])
    assert res.lam == res.lam_upper == 1.0
    assert res.iterations == 1
    assert np.array_equal(res.powers, [0.0, 0.0])
    assert np.array_equal(res.z_proj, [1.0, 1.0])


def test_projection_rejects_bad_rays():
    r = reduce_scenario(sym2_scenario())
    for z in ([2.0], [2.0, 2.0, 2.0], [0.5, 2.0], [1.0 - 1e-12, 2.0], [np.inf, 2.0], [np.nan, 2.0]):
        with pytest.raises(ValueError):
            dinkelbach_project(r, z)


def test_projection_floors_coordinates_at_one():
    # carrier 1 has no power budget: its coordinate pins at 1
    s = make_scenario([[[1.0, 1.0]]], noise=1.0, subcarrier_cap=[[2.0, 0.0]])
    r = reduce_scenario(s)
    res = dinkelbach_project(r, [5.0, 1.0])
    assert res.lam == pytest.approx(3.0 / 5.0, rel=1e-9)
    assert res.z_proj == pytest.approx([3.0, 1.0], rel=1e-9)
    assert res.powers == pytest.approx([2.0, 0.0], abs=1e-12)


def test_projection_symmetric_two_cell_hand_value():
    # by symmetry both cells transmit at cap 2: z = 1 + 2*2/(2+1) = 7/3
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    res = dinkelbach_project(r, [4.0, 4.0])
    assert res.z_proj == pytest.approx([7.0 / 3.0, 7.0 / 3.0], rel=1e-8)
    assert res.powers == pytest.approx([2.0, 2.0], rel=1e-8)


def test_projection_lambda_sequence_strictly_increases():
    rng = np.random.default_rng(41)
    for _ in range(25):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        res = dinkelbach_project(r, z0)
        seq = np.array(res.lambdas)
        assert np.all(np.diff(seq) > 0)
        assert res.iterations >= 1


def test_projection_lands_on_boundary():
    rng = np.random.default_rng(43)
    for _ in range(25):
        s = random_scenario(rng, num_cells=3, num_subcarriers=1, users_per_cell=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        res = dinkelbach_project(r, z0)
        assert membership(r, res.z_proj)
        outside = res.z_proj * (1.0 + 1e-4)
        assert not membership(r, outside)


def test_projection_powers_realize_output():
    rng = np.random.default_rng(47)
    for _ in range(25):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        res = dinkelbach_project(r, z0)
        achieved = z_from_p(r, res.powers)
        assert np.allclose(achieved, res.z_proj, rtol=1e-9, atol=1e-12)
        # the ratios at the returned powers dominate the output componentwise
        assert np.all(compute_nd(r, res.powers)[2] >= res.z_proj * (1.0 - 1e-9))


def test_projection_idempotent_on_boundary_points():
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = random_scenario(rng, num_cells=2, num_subcarriers=1)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.5, 4.0, size=r.dim)
        first = dinkelbach_project(r, z0)
        if np.all(first.z_proj <= 1.0 + 1e-12):
            continue
        second = dinkelbach_project(r, first.z_proj)
        assert second.lam == pytest.approx(1.0, abs=1e-6)


def test_projection_budget_error_carries_lambdas(monkeypatch):
    r = reduce_scenario(sym2_scenario())
    monkeypatch.setattr(F, "_MAX_EVALUATIONS", 1)
    with pytest.raises(ProjectionError) as info:
        dinkelbach_project(r, [4.0, 4.0])
    assert len(info.value.lambdas) >= 1


def test_evaluation_clamps_round_off_below_zero():
    # three cells, one user each: at scale 1 the first entry of this ray
    # sits 1.5e-12 above 1, and its power comes out at -8.2e-26 W, round-off
    # that sets neither verdict of the power system
    gains = [
        [0.008453924292293358, 3.269519746423355e-05, 3.68311416688007e-08],
        [8.020914581900822e-08, 1.2569697231736036e-06, 0.0001564175721087229],
        [7.069846118227751e-08, 7.99959724396793e-06, 2.809930305187442e-07],
    ]
    s = make_scenario([[[g] for g in row] for row in gains], noise=2.607822048353922e-16,
                      subcarrier_cap=1e-3)
    r = reduce_scenario(s)
    zc = [1.000000000001489, 1.0000000000014804, 10.242984759111387]
    x, singular, negative = power_systems(r, np.array([[c - 1.0 for c in zc]]))
    assert x[0, 0, 0] < 0.0 and singular == [False] and negative == [False]
    caps = r.cap_carrier.reshape(-1).tolist()
    pt = F._evaluate(r, zc, caps, caps, 1.0)  # no zero cap: h divides by the caps
    assert pt.ok
    assert pt.q[0] == 0.0
    assert (pt.q >= 0.0).all()


# beyond 0-99: seeds where the LP projection stopped short of the boundary
# or left it (637 and 1286 also once hit a singular p_from_z), and 1435,
# an all-ones ray that an early return once left at scale 1
_EXTREME_SEEDS = [*range(100), 341, 342, 513, 536, 632, 637, 703, 785, 872, 894, 913, 937,
                  1016, 1063, 1169, 1286, 1382, 1435, 1446, 1501, 1565, 1640, 1907, 1979]


@pytest.mark.parametrize("seed", _EXTREME_SEEDS)
def test_projection_extreme_range_lands_on_boundary(seed):
    r, z0 = extreme_ray(seed)
    res = dinkelbach_project(r, z0)
    assert membership(r, res.z_proj)
    beyond = np.maximum(res.lam * (1.0 + 1e-6) * z0, 1.0)
    if np.any(beyond > 1.0):
        assert not membership(r, beyond)
    assert np.all(np.diff(res.lambdas) > 0)
    assert np.all(res.powers <= r.cap_carrier.reshape(-1))


@pytest.mark.parametrize("seed", range(100))
def test_projection_warm_start_matches_cold_start(seed):
    # the solver starts a child's projection at its parent's boundary powers
    r, z0 = extreme_ray(seed)
    parent = z0 * 10.0 ** np.random.default_rng(seed).uniform(0.0, 1.0, size=r.dim)
    start = dinkelbach_project(r, parent).powers
    cold = dinkelbach_project(r, z0)
    warm = dinkelbach_project(r, z0, start=start)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-8)
    assert membership(r, warm.z_proj)
    assert np.all(np.diff(warm.lambdas) > 0)
    assert np.all(warm.powers <= r.cap_carrier.reshape(-1))


def _within_caps(r, z):
    """z is realizable with no round-off slack on the carrier caps."""
    try:
        q = p_from_z(r, z)
    except InconsistentSinrError:
        return False
    return bool((q <= r.cap_carrier.reshape(-1)).all())


def _upper_scale_is_certified(r, z0, res):
    assert res.lam <= res.lam_upper <= res.lam * (1.0 + 1e-9)
    # the search tests realizability exactly, so no slack: the output is
    # realizable and, unless a cap binds at lam, lam_upper * z0 is not
    assert _within_caps(r, res.z_proj)
    if res.lam_upper != res.lam:
        assert not _within_caps(r, np.maximum(res.lam_upper * z0, 1.0))


def test_projection_upper_scale_is_certified():
    rng = np.random.default_rng(59)
    for _ in range(40):
        s = random_scenario(rng, num_cells=int(rng.integers(1, 5)), num_subcarriers=2)
        r = reduce_scenario(s)
        z0 = 1.0 + rng.uniform(0.1, 5.0, size=r.dim)
        _upper_scale_is_certified(r, z0, dinkelbach_project(r, z0))
    for seed in range(100):
        r, z0 = extreme_ray(seed)
        _upper_scale_is_certified(r, z0, dinkelbach_project(r, z0))


def test_projection_evaluates_the_bound_when_a_step_rounds_onto_it():
    # from full power the lower end starts near 3e-8 with a step near
    # 1.5e-17, so a tangent step clamped one step below the bound hi = 1
    # rounds onto hi; with no upper end evaluated yet, hi itself is tried
    s = Scenario(
        num_cells=2,
        num_subcarriers=1,
        users_per_cell=(1, 1),
        sic_limit=1,
        gains=[[[8.9e-3], [2.2e-4]], [[7.1e-4], [8.3e-8]]],
        noise_power=6.3e-15,
        subcarrier_cap=[[1.4e-4], [3.5e-4]],
        cell_cap=[1.4e-4, 3.5e-4],
    )
    r = reduce_scenario(s)
    z0 = initial_vertex(r)
    _upper_scale_is_certified(r, z0, dinkelbach_project(r, z0, start=r.cap_carrier.reshape(-1)))


def test_projection_bisects_where_a_cell_switches_on():
    # cell 1 is silent below lambda = 1 / 1.1963 = 0.8359 and the start
    # puts the lower end just under that kink, where the tangent ignores
    # cell 1; tangent and chord steps alone move it by about 2.5e-8 a pair
    # and run out of evaluations, bisection closes the bracket
    s = generate_scenario(
        RadioConfig(num_cells=4, users_per_cell=2, fading=True, cell_radius_m=10.0, subcarrier_cap_w=1e-5),
        seed=[0, 1],
    )
    r = reduce_scenario(s)
    z0 = np.array([4175535.1481881314, 1.196300851053209, 46.94278512310315, 8049.678778639743])
    start = [9.999999968658947e-06, 0.0, 2.728016163863932e-07, 7.698620710774628e-07]
    res = dinkelbach_project(r, z0, start=start)
    _upper_scale_is_certified(r, z0, res)
    assert res.iterations <= 40


def test_projection_upper_scale_is_lam_when_a_cap_binds():
    # single cell: q is linear in lambda, so the search lands on the cap
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    res = dinkelbach_project(r, [11.0], start=[2.0])
    assert res.lam_upper == res.lam == 3.0 / 11.0


def test_projection_rejects_start_outside_caps():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    for start in ([2.5], [-1.0], [1.0, 1.0]):
        with pytest.raises(ValueError):
            dinkelbach_project(r, [11.0], start=start)
    # a start on the boundary certifies it with one solve
    res = dinkelbach_project(r, [11.0], start=[2.0])
    assert res.lam == pytest.approx(3.0 / 11.0, rel=1e-12)
    assert res.iterations == 1

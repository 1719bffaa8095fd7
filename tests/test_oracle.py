"""Grid search reference and the two heuristic baselines."""

import math

import numpy as np
import pytest

from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt import oracle
from nomaopt.model import ScenarioError
from nomaopt.oracle import baseline_full_power, baseline_greedy, grid_optimum
from nomaopt.polyblock import solve
from nomaopt.reduction import reduce_scenario, sum_rate_from_powers

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


# -- grid oracle ---------------------------------------------------------------


def test_grid_single_cell_hits_endpoint_exactly():
    s = k1_scenario(gain=1.0, noise=1.0, cap=2.0)
    ref = grid_optimum(s, grid_points_per_dim=11)
    # the optimum sits at the cap, which is a grid endpoint
    assert ref.value == pytest.approx(math.log(3.0), rel=1e-15)
    assert ref.q == pytest.approx([2.0])
    assert ref.evaluated == 11
    assert ref.spacing == pytest.approx([0.2])
    # one cell has no interferers, so the grid value is the optimum
    assert ref.error_bound == 0.0


def test_grid_zero_caps_gives_silence():
    s = make_scenario([[[1.0]]], subcarrier_cap=[[0.0]], cell_cap=[0.0])
    ref = grid_optimum(s, grid_points_per_dim=5)
    assert ref.value == 0.0
    assert np.array_equal(ref.q, [0.0])
    assert ref.error_bound == 0.0


def test_grid_input_validation():
    with pytest.raises(ValueError, match="grid points"):
        grid_optimum(k1_scenario(), grid_points_per_dim=1)
    big = make_scenario(np.ones((5, 5, 1)), subcarrier_cap=1.0)
    with pytest.raises(ValueError, match="at most 4"):
        grid_optimum(big, grid_points_per_dim=3)


def test_grid_point_count_must_be_an_integer():
    # 3.0 once failed inside np.linspace with a bare TypeError
    s = sym2_scenario()
    for points in (True, 3.5, "3", None):
        with pytest.raises(ScenarioError, match="grid_points_per_dim must be an integer"):
            grid_optimum(s, points)
    with pytest.raises(ValueError, match="grid points"):
        grid_optimum(s, -3)
    a, b = grid_optimum(s, 3.0), grid_optimum(s, 3)
    assert (a.value, a.q.tolist(), a.evaluated) == (b.value, b.q.tolist(), b.evaluated)


def test_grid_refinement_self_consistency():
    rng = np.random.default_rng(97)
    for _ in range(5):
        s = random_scenario(rng, num_cells=2, num_subcarriers=1, users_per_cell=2)
        coarse = grid_optimum(s, grid_points_per_dim=100)
        fine = grid_optimum(s, grid_points_per_dim=400)
        # both undershoot the continuous optimum, each by at most its bound
        assert coarse.value <= fine.value + fine.error_bound + 1e-12
        assert fine.value <= coarse.value + coarse.error_bound + 1e-12
        assert fine.value >= coarse.value - 1e-9  # denser grid cannot lose much


_GRID_SHAPES = [(K, L) for K in range(1, 5) for L in (1, 2) if K * L <= 4]


def _certified_cases(K, L):
    """Generated drops with fading off and on (caps 1e-9..1e-3 W, radii
    10 m..1 km), and one drop with gains over twelve decades, noise 1e-13
    and at least one zero cap."""
    rng = np.random.default_rng(117 + 10 * K + L)
    for fading in (False, True):
        cfg = RadioConfig(
            num_cells=K, num_subcarriers=L, users_per_cell=2, fading=fading,
            subcarrier_cap_w=float(10.0 ** rng.uniform(-9.0, -3.0)),
            cell_radius_m=float(10.0 ** rng.uniform(1.0, 3.0)),
        )
        yield generate_scenario(cfg, seed=[K, L, int(fading)])
    g = 10.0 ** rng.uniform(-16.0, -4.0, size=(K, 2 * K, L))
    caps = rng.uniform(0.0, 1e-3, size=(K, L)) * (rng.uniform(size=(K, L)) > 0.3)
    caps.flat[rng.integers(K * L)] = 0.0
    yield make_scenario(g, noise=1e-13, subcarrier_cap=caps)


@pytest.mark.parametrize("K,L", _GRID_SHAPES)
def test_grid_bound_is_certified(K, L):
    # value + error_bound caps every rate seen: the solver's, both
    # baselines' and a much finer grid's, on coarse grids too
    for s in _certified_cases(K, L):
        r = reduce_scenario(s)
        seen = {
            "solve": solve(s, 1e-2).sum_rate_nats,
            "full power": baseline_full_power(s).sum_rate_nats,
            "greedy": baseline_greedy(s).sum_rate_nats,
            "33-point grid": grid_optimum(s, 33).value,
        }
        for points in (2, 3, 5, 9):
            ref = grid_optimum(s, points)
            spacing = r.cap_carrier / (points - 1)
            spread = (r.gain_cross * spacing.T[None]).sum(axis=2) / s.noise_power
            assert ref.error_bound == pytest.approx(np.log1p(spread).sum(), rel=1e-12, abs=0.0)
            for name, rate in seen.items():
                assert rate <= ref.value + ref.error_bound + 1e-9, (points, name)


def test_grid_reports_achievable_point():
    rng = np.random.default_rng(101)
    s = random_scenario(rng, num_cells=2, num_subcarriers=2)
    ref = grid_optimum(s, grid_points_per_dim=20)
    r = reduce_scenario(s)
    assert sum_rate_from_powers(r, ref.q) == pytest.approx(ref.value, rel=1e-12)
    qm = ref.q.reshape(r.gain_active.shape)
    assert np.all(qm <= r.cap_carrier + 1e-15)
    assert np.all(qm.sum(axis=1) <= s.cell_cap * (1 + 1e-12))
    assert ref.evaluated == 20**4


def test_grid_counts_every_box_point():
    # carrier caps summing to the cell cap: all 3 x 3 points of the box count
    s = make_scenario([[[1.0, 1.0]]], subcarrier_cap=[[1.0, 1.0]], cell_cap=[2.0])
    ref = grid_optimum(s, grid_points_per_dim=3)
    assert ref.evaluated == 9  # full box satisfies the cell cap here
    assert ref.q == pytest.approx([1.0, 1.0])


# -- full power baseline --------------------------------------------------------


def test_full_power_single_cell():
    res = baseline_full_power(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    assert res.algorithm == "full-power"
    assert res.status == "heuristic"
    assert not res.certified
    assert res.epsilon is None
    assert res.upper_bound is None
    assert res.sum_rate_nats == pytest.approx(math.log(3.0), rel=1e-12)
    assert res.sum_rate_bits == pytest.approx(math.log2(3.0), rel=1e-12)
    assert np.array_equal(res.allocation.p, [2.0])
    assert res.feasibility.feasible


def test_full_power_hits_every_carrier_cap():
    # carrier caps sum to the cell cap exactly: no scaling needed, all caps hit
    s = make_scenario([[[1.0, 2.0]]], subcarrier_cap=[[2.0, 1.0]], cell_cap=[3.0])
    res = baseline_full_power(s)
    assert np.array_equal(res.allocation.p[res.allocation.a == 1], [2.0, 1.0])


def test_full_power_is_feasible_on_random_instances():
    rng = np.random.default_rng(103)
    for _ in range(10):
        s = random_scenario(rng, num_cells=3, num_subcarriers=2)
        res = baseline_full_power(s)
        assert res.feasibility.feasible, res.feasibility.violations


# -- greedy baseline -------------------------------------------------------------


def test_greedy_never_below_full_power():
    rng = np.random.default_rng(107)
    for _ in range(10):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        fp = baseline_full_power(s)
        gr = baseline_greedy(s)
        assert gr.sum_rate_nats >= fp.sum_rate_nats - 1e-12
        assert gr.feasibility.feasible
        assert gr.status == "heuristic"
        assert gr.algorithm == "greedy"


def test_greedy_silences_a_hurt_cell():
    # strong cross gain: cell 1 transmitting mostly destroys cell 0's rate
    gains = np.zeros((2, 2, 1))
    gains[0, 0, 0] = 10.0
    gains[1, 0, 0] = 50.0  # BS 1 hammers user 0
    gains[0, 1, 0] = 0.01
    gains[1, 1, 0] = 0.1
    s = make_scenario(gains, noise=1.0, subcarrier_cap=2.0)
    gr = baseline_greedy(s)
    fp = baseline_full_power(s)
    assert gr.sum_rate_nats > fp.sum_rate_nats
    # the weak cell should end up (near) silent
    assert gr.allocation.p[1] < 1e-3


def test_greedy_iteration_count_and_stall(monkeypatch):
    s = sym2_scenario()
    res = baseline_greedy(s)
    assert 1 <= res.iterations <= 50
    monkeypatch.setattr(oracle, "_SWEEPS", 1)
    one = baseline_greedy(s)
    assert one.iterations == 1
    assert one.sum_rate_nats <= res.sum_rate_nats + 1e-12


# -- two cells: binary power is optimal ------------------------------------------


def _corner_optimum(r) -> float:
    """Best sum rate of a two-cell reduced problem. With two links on a
    carrier the optimal powers are binary, one link at its cap and the
    other at its cap or silent (Gjendemsjoe, Gesbert, Oien and Kiani,
    IEEE TWC 7(8), 2008), and carriers do not interact."""
    N = r.scenario.noise_power
    total = 0.0
    for l in range(r.gain_active.shape[1]):
        (g0, g1), (p0, p1) = r.gain_active[:, l], r.cap_carrier[:, l]
        both = math.log1p(g0 * p0 / (N + r.gain_cross[0, l, 1] * p1)) + math.log1p(
            g1 * p1 / (N + r.gain_cross[1, l, 0] * p0)
        )
        total += max(both, math.log1p(g0 * p0 / N), math.log1p(g1 * p1 / N))
    return total


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("fading", [False, True])
def test_two_cell_corner_optimum_lies_in_every_certified_interval(L, fading):
    for seed in range(4):
        base = generate_scenario(RadioConfig(num_subcarriers=L, fading=fading), seed=[seed, L])
        for cap in (1e-7, 1e-6, 1e-5, 1e-4):
            s = scenario_with_caps(base, cap)
            best = _corner_optimum(reduce_scenario(s))
            res = solve(s, 0.01)
            assert res.certified
            assert res.sum_rate_nats <= best + 1e-9
            assert best <= res.upper_bound + 1e-9
            assert baseline_greedy(s).sum_rate_nats <= best + 1e-9


def test_greedy_can_stall_at_a_local_optimum():
    # after two sweeps greedy silences cell 0 on carrier 0 and stops there,
    # about 0.24 nats below the best corner; the certified solve finds it
    s = scenario_with_caps(generate_scenario(RadioConfig(num_subcarriers=2, fading=True), seed=[2, 2]), 1e-4)
    best = _corner_optimum(reduce_scenario(s))
    greedy = baseline_greedy(s)
    assert greedy.iterations == 2
    assert greedy.sum_rate_nats <= best - 0.2
    eps = 0.01
    res = solve(s, eps)
    assert res.certified
    assert best - eps <= res.sum_rate_nats <= best + 1e-9
    assert best <= res.upper_bound + 1e-9


# -- the shared result builder ---------------------------------------------------


def test_baselines_carry_the_fixed_heuristic_fields():
    rng = np.random.default_rng(109)
    for _ in range(4):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        for res in (baseline_full_power(s), baseline_greedy(s)):
            assert res.status == "heuristic"
            assert res.certified is False
            assert res.upper_bound is None
            assert res.epsilon is None
            assert res.projections == 0
            assert res.trace == ()


def test_solve_and_full_power_agree_where_full_power_is_optimal():
    # with one cell there is no interference, so full power is the optimum
    # and both runs score the same allocation through the same builder
    for L in (1, 2, 3):
        for users in (1, 3):
            s = generate_scenario(
                RadioConfig(num_cells=1, num_subcarriers=L, users_per_cell=users, fading=True), seed=[L, users]
            )
            pb, fp = solve(s, 0.01), baseline_full_power(s)
            assert np.array_equal(pb.allocation.a, fp.allocation.a)
            assert np.array_equal(pb.allocation.p, fp.allocation.p)
            assert pb.sum_rate_nats == fp.sum_rate_nats
            assert pb.sum_rate_bits == fp.sum_rate_bits
            assert pb.sic_flag == fp.sic_flag
            assert pb.feasibility.to_json_dict() == fp.feasibility.to_json_dict()


"""Grid search reference and the two heuristic baselines."""

import math

import numpy as np
import pytest

from nomaopt.oracle import baseline_full_power, baseline_greedy, grid_optimum
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
    assert ref.covering_radius == pytest.approx(0.1)
    assert ref.error_bound == pytest.approx(ref.lipschitz * 0.1)
    assert ref.lipschitz > 0


def test_grid_zero_caps_gives_silence():
    s = make_scenario([[[1.0]]], subcarrier_cap=[[0.0]], cell_cap=[0.0])
    ref = grid_optimum(s, grid_points_per_dim=5)
    assert ref.value == 0.0
    assert np.array_equal(ref.q, [0.0])
    assert ref.covering_radius == 0.0
    assert ref.error_bound == 0.0


def test_grid_input_validation():
    with pytest.raises(ValueError, match="grid points"):
        grid_optimum(k1_scenario(), grid_points_per_dim=1)
    big = make_scenario(np.ones((5, 5, 1)), subcarrier_cap=1.0)
    with pytest.raises(ValueError, match="at most 4"):
        grid_optimum(big, grid_points_per_dim=3)


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


def test_grid_reports_achievable_point():
    rng = np.random.default_rng(101)
    s = random_scenario(rng, num_cells=2, num_subcarriers=2)
    ref = grid_optimum(s, grid_points_per_dim=20)
    r = reduce_scenario(s)
    assert sum_rate_from_powers(r, ref.q) == pytest.approx(ref.value, rel=1e-12)
    qm = ref.q.reshape(r.gain_active.shape)
    assert np.all(qm <= r.cap_carrier + 1e-15)
    assert np.all(qm.sum(axis=1) <= s.cell_cap * (1 + 1e-12))
    assert ref.evaluated <= 20**4


def test_grid_respects_cell_cap_filter():
    # cell cap equal to one carrier cap: only points with q0 + q1 <= 2 count
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


def test_full_power_scales_into_cell_cap():
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


def test_greedy_iteration_count_and_stall():
    s = sym2_scenario()
    res = baseline_greedy(s, sweeps=50)
    assert 1 <= res.iterations <= 50
    one = baseline_greedy(s, sweeps=1)
    assert one.iterations == 1
    assert one.sum_rate_nats <= res.sum_rate_nats + 1e-12

"""Best-user reduction, the shifted-SINR change of variables and its inverse.

The sym2 instance is small enough to solve by hand: own gain 2, cross
gain 1, noise 1 in both cells. Powers (1, 1) give shifted SINRs (2, 2);
inverting (2, 2) means solving
    2 q0 - 1 q1 = 1
   -1 q0 + 2 q1 = 1
which has the unique solution q = (1, 1).
"""

import math

import numpy as np
import pytest

from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt.model import Allocation, ScenarioError, build_decoding_order, check_feasible, sum_rate
from nomaopt.reduction import (
    InconsistentSinrError,
    ReducedProblem,
    SinrVector,
    SinrVectorError,
    UnsupportedWeightsError,
    allocation_from_powers,
    membership,
    objective,
    p_from_z,
    reduce_scenario,
    sum_rate_from_powers,
    z_from_p,
)

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


# -- SinrVector ------------------------------------------------------------


def test_sinr_vector_validation():
    SinrVector(z=[2.0, 0.0], active=(0,))
    with pytest.raises(SinrVectorError):
        SinrVector(z=[[2.0]], active=(0,))
    with pytest.raises(SinrVectorError):
        SinrVector(z=[2.0, 1.0], active=(0,))  # inactive not 0
    with pytest.raises(SinrVectorError):
        SinrVector(z=[0.5, 0.0], active=(0,))  # active below 1
    with pytest.raises(SinrVectorError):
        SinrVector(z=[float("nan"), 0.0], active=(0,))
    with pytest.raises(SinrVectorError):
        SinrVector(z=[2.0, 2.0], active=(1, 0))  # unsorted
    with pytest.raises(SinrVectorError):
        SinrVector(z=[2.0], active=(0, 1))  # out of range


def test_sinr_vector_snaps_round_off_below_one():
    sv = SinrVector(z=[1.0 - 1e-10, 0.0], active=(0,))
    assert sv.z[0] == 1.0
    with pytest.raises(SinrVectorError):
        SinrVector(z=[1.0 - 1e-8, 0.0], active=(0,))


def test_sinr_vector_active_z():
    sv = SinrVector(z=[0.0, 3.0, 0.0, 2.0], active=(1, 3))
    assert np.array_equal(sv.active_z, [3.0, 2.0])
    assert not sv.z.flags.writeable


# -- reduce_scenario -------------------------------------------------------


def test_reduction_picks_best_gain_user():
    # cell 0: user1 is best on carrier 0, user0 on carrier 1
    gains = [[[1.0, 5.0], [3.0, 2.0]]]
    s = make_scenario(gains, subcarrier_cap=1.0)
    r = reduce_scenario(s)
    assert r.best_user[0, 0] == 1
    assert r.best_user[0, 1] == 0
    assert np.array_equal(r.gain_active, [[3.0, 5.0]])
    assert r.active == (s.flat_index(0, 0, 1), s.flat_index(0, 1, 0))
    assert r.dim == 2


def test_reduction_ties_go_to_lowest_index():
    s = make_scenario([[[4.0], [4.0]]])
    r = reduce_scenario(s)
    assert r.best_user[0, 0] == 0


def test_reduction_collects_cross_gains():
    s = sym2_scenario()
    r = reduce_scenario(s)
    assert np.array_equal(r.gain_active, [[2.0], [2.0]])
    assert r.gain_cross[0, 0, 1] == 1.0
    assert r.gain_cross[1, 0, 0] == 1.0
    assert r.gain_cross[0, 0, 0] == 0.0
    assert np.array_equal(r.cap_carrier, s.subcarrier_cap)


def test_reduction_rejects_non_unit_weights():
    s = make_scenario([[[1.0], [2.0]]], weights=[1.0, 2.0])
    with pytest.raises(UnsupportedWeightsError):
        reduce_scenario(s)


def test_vector_and_active_values_round_trip():
    s = make_scenario([[[1.0, 5.0], [3.0, 2.0]]], subcarrier_cap=1.0)
    r = reduce_scenario(s)
    sv = r.vector([2.0, 4.0])
    assert np.array_equal(r.active_values(sv), [2.0, 4.0])
    assert sv.z[r.active[0]] == 2.0 and sv.z[r.active[1]] == 4.0
    with pytest.raises(SinrVectorError):
        r.vector([2.0])
    other = SinrVector(z=np.zeros(s.size), active=())
    with pytest.raises(SinrVectorError):
        r.active_values(other)


# -- change of variables ---------------------------------------------------


def test_z_from_p_single_cell():
    s = k1_scenario(gain=1.0, noise=1.0, cap=2.0)
    r = reduce_scenario(s)
    assert np.array_equal(z_from_p(r, [2.0]).active_z, [3.0])
    assert np.array_equal(z_from_p(r, [0.0]).active_z, [1.0])


def test_z_from_p_hand_value_with_interference():
    r = reduce_scenario(sym2_scenario())
    sv = z_from_p(r, [1.0, 1.0])
    assert np.allclose(sv.active_z, [2.0, 2.0], rtol=1e-15)


def test_p_from_z_hand_value():
    r = reduce_scenario(sym2_scenario())
    q = p_from_z(r, r.vector([2.0, 2.0]))
    assert np.allclose(q, [1.0, 1.0], rtol=1e-12)


def test_p_from_z_zero_power_entries():
    r = reduce_scenario(sym2_scenario())
    q = p_from_z(r, r.vector([1.0, 1.0]))
    assert np.array_equal(q, [0.0, 0.0])
    # one silent cell: the other is interference-free
    q = p_from_z(r, r.vector([3.0, 1.0]))
    assert np.allclose(q, [1.0, 0.0])


def test_p_from_z_rejects_unrealizable_targets():
    r = reduce_scenario(sym2_scenario())
    # gamma = 2 each: the interference balance matrix loses rank
    with pytest.raises(InconsistentSinrError) as info:
        p_from_z(r, r.vector([3.0, 3.0]))
    assert info.value.reason == "singular"
    # beyond the boundary the unique solution needs negative power
    with pytest.raises(InconsistentSinrError) as info:
        p_from_z(r, r.vector([4.0, 4.0]))
    assert info.value.reason == "negative"


def test_round_trip_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_scenario(rng, num_cells=3, num_subcarriers=2, users_per_cell=2)
        r = reduce_scenario(s)
        q = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
        sv = z_from_p(r, q)
        back = p_from_z(r, sv)
        assert np.allclose(back, q, rtol=1e-9, atol=1e-12)
        again = z_from_p(r, back)
        assert np.allclose(again.active_z, sv.active_z, rtol=1e-12)


def test_power_input_validation():
    r = reduce_scenario(sym2_scenario())
    with pytest.raises(ValueError):
        z_from_p(r, [1.0])
    with pytest.raises(ValueError):
        z_from_p(r, [-1.0, 0.0])
    with pytest.raises(ValueError):
        z_from_p(r, [float("inf"), 0.0])


# -- objective -------------------------------------------------------------


def test_objective_is_log_sum():
    sv = SinrVector(z=[3.0, 0.0, 2.0], active=(0, 2))
    assert objective(sv) == pytest.approx(math.log(3.0) + math.log(2.0), rel=1e-15)
    assert objective(sv, weights=[2.0, 0.0]) == pytest.approx(2 * math.log(3.0), rel=1e-15)
    with pytest.raises(ValueError):
        objective(sv, weights=[1.0])
    with pytest.raises(ValueError):
        objective(sv, weights=[-1.0, 1.0])


def test_objective_matches_direct_sum_rate():
    rng = np.random.default_rng(11)
    for _ in range(30):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        q = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
        lhs = objective(z_from_p(r, q))
        rhs = sum_rate_from_powers(r, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# -- membership ------------------------------------------------------------


def test_membership_inside_boundary_outside():
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    assert membership(r, r.vector([2.0, 2.0]))
    # both cells at full power: 1 + 2*2 / (2 + 1) = 7/3 on each entry
    assert membership(r, r.vector([7.0 / 3.0, 7.0 / 3.0]))
    assert not membership(r, r.vector([2.4, 2.4]))
    assert not membership(r, r.vector([4.0, 4.0]))  # unrealizable entirely


def test_membership_with_tight_cell_cap():
    # a valid scenario never has a cell cap below its carrier-cap sum, so
    # the boundary case is both tight at once: full power is still a member
    s = make_scenario([[[1.0, 1.0]]], subcarrier_cap=[[2.0, 2.0]], cell_cap=[4.0], noise=1.0)
    r = reduce_scenario(s)
    full = z_from_p(r, [2.0, 2.0])
    assert membership(r, full) is True
    over = r.vector(full.active_z * 1.001)
    assert membership(r, over) is False


def test_full_carrier_power_never_breaks_a_cell_cap():
    # the solver reads only carrier caps; this pins why that is enough,
    # including carrier counts where the float sum of the caps and L * cap
    # (the generated cell cap) differ in the last bit
    sum_above = 0
    for L in (3, 5, 6, 7):
        for cap in (1e-7, 3e-7, 4e-7, 1e-6, 1e-5, 1e-4):
            s = generate_scenario(RadioConfig(num_subcarriers=L, subcarrier_cap_w=cap))
            sum_above += int(s.subcarrier_cap.sum(axis=1)[0] > s.cell_cap[0])
            r = reduce_scenario(s)
            report = check_feasible(s, allocation_from_powers(r, r.cap_carrier))
            assert report.feasible, (L, cap, report.violations)
            tight = s.subcarrier_cap.sum(axis=1).max() * (1.0 - 1e-11)
            with pytest.raises(ScenarioError, match="cell cap"):
                scenario_with_caps(s, cap, cell_cap_w=tight)
    assert sum_above > 0


# -- full-length allocations ------------------------------------------------


def test_allocation_from_powers_is_feasible_and_consistent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2, users_per_cell=3)
        r = reduce_scenario(s)
        q = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
        alloc = allocation_from_powers(r, q)
        assert isinstance(alloc, Allocation)
        report = check_feasible(s, alloc)
        assert report.feasible, report.violations
        # independent route: the full model's SIC sum rate must agree,
        # since one user per (cell, carrier) leaves no intra-cell term
        order = build_decoding_order(s)
        assert sum_rate(s, order, alloc) == pytest.approx(
            sum_rate_from_powers(r, q), rel=1e-12
        )


def test_allocation_from_powers_layout():
    s = make_scenario([[[1.0, 5.0], [3.0, 2.0]]], subcarrier_cap=1.0)
    r = reduce_scenario(s)
    alloc = allocation_from_powers(r, [0.5, 0.25])
    assert alloc.a[s.flat_index(0, 0, 1)] == 1
    assert alloc.p[s.flat_index(0, 0, 1)] == 0.5
    assert alloc.a[s.flat_index(0, 1, 0)] == 1
    assert alloc.p[s.flat_index(0, 1, 0)] == 0.25
    assert alloc.a.sum() == 2

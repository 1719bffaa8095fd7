"""Scenario, allocation and SIC machinery.

Hand-checked values: every frozen constant below comes from a by-hand
derivation or an independent one-off computation (plain arithmetic on the
SINR formula), never from running the code under test first.
"""

import json
import math

import numpy as np
import pytest

from nomaopt.model import (
    LN2,
    Allocation,
    AllocationError,
    Scenario,
    ScenarioError,
    build_decoding_order,
    check_feasible,
    sic_always_feasible,
    sic_pair_margin,
    sinr,
    sum_rate,
)

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


def test_ln2_constant():
    assert LN2 == math.log(2.0)


# -- construction and validation ------------------------------------------


def test_scenario_basic_shapes():
    s = make_scenario([[[1.0, 2.0], [3.0, 4.0]]], subcarrier_cap=1.0)
    assert s.num_cells == 1
    assert s.num_subcarriers == 2
    assert s.users_per_cell == (2,)
    assert s.total_users == 2
    assert s.size == 4
    assert s.gains.shape == (1, 2, 2)


def test_scenario_rejects_bad_inputs():
    good = dict(
        num_cells=1,
        num_subcarriers=1,
        users_per_cell=(1,),
        sic_limit=2,
        gains=[[[1.0]]],
        noise_power=1.0,
        subcarrier_cap=[[1.0]],
        cell_cap=[1.0],
    )
    Scenario(**good)  # sanity: the base case is valid

    with pytest.raises(ScenarioError):
        Scenario(**{**good, "num_cells": 0})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "users_per_cell": (0,)})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "sic_limit": 0})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "gains": [[[1.0, 2.0]]]})  # wrong shape
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "gains": [[[-1.0]]]})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "gains": [[[0.0]]]})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "noise_power": 0.0})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "noise_power": float("nan")})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "subcarrier_cap": [[-1.0]]})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "cell_cap": [-1.0]})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "weights": [-1.0]})
    with pytest.raises(ScenarioError):
        Scenario(**{**good, "weights": [1.0, 2.0]})


def test_scenario_rejects_carrier_caps_above_cell_cap():
    with pytest.raises(ScenarioError, match="cell cap"):
        make_scenario(
            [[[1.0, 1.0]]],
            subcarrier_cap=[[2.0, 2.0]],
            cell_cap=[3.0],
        )
    # equal sum is fine
    make_scenario([[[1.0, 1.0]]], subcarrier_cap=[[2.0, 2.0]], cell_cap=[4.0])


def test_scenario_arrays_are_frozen():
    s = k1_scenario()
    with pytest.raises(ValueError):
        s.gains[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        s.subcarrier_cap[0, 0] = 5.0


def test_default_weights_are_ones():
    s = make_scenario([[[1.0], [2.0]]])
    assert np.array_equal(s.weights, [1.0, 1.0])


def test_nested_weights_are_flattened():
    gains = np.ones((2, 4, 1))
    s = make_scenario(gains, weights=[[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(s.weights, [1.0, 2.0, 3.0, 4.0])


# -- canonical indexing ----------------------------------------------------


def test_flat_index_layout_is_cell_then_carrier_then_user():
    # 2 cells x 2 carriers, 2 users in cell 0 and 1 user in cell 1
    g = [
        [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
    ]
    s = make_scenario(g, users_per_cell=(2, 1), subcarrier_cap=1.0)
    assert s.size == 2 * 2 + 1 * 2
    expected = {
        (0, 0, 0): 0,
        (0, 0, 1): 1,
        (0, 1, 0): 2,
        (0, 1, 1): 3,
        (1, 0, 0): 4,
        (1, 1, 0): 5,
    }
    for (k, l, u), i in expected.items():
        assert s.flat_index(k, l, u) == i
        assert s.triplet(i) == (k, l, u)
    sl = s.carrier_slice(0, 1)
    assert (sl.start, sl.stop) == (2, 4)


def test_index_bounds_are_checked():
    s = k1_scenario()
    with pytest.raises(IndexError):
        s.flat_index(1, 0, 0)
    with pytest.raises(IndexError):
        s.flat_index(0, 1, 0)
    with pytest.raises(IndexError):
        s.global_user(0, 1)
    with pytest.raises(IndexError):
        s.triplet(1)


def test_canonical_weights_repeat_per_carrier():
    s = make_scenario(
        [[[1.0, 1.0], [1.0, 1.0]]],
        weights=[2.0, 3.0],
        subcarrier_cap=1.0,
    )
    assert np.array_equal(s.canonical_weights(), [2.0, 3.0, 2.0, 3.0])


# -- serialization ---------------------------------------------------------


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(7)
    s = random_scenario(rng, num_cells=2, num_subcarriers=2)
    t = Scenario.from_json(s.to_json())
    assert t.num_cells == s.num_cells
    assert t.users_per_cell == s.users_per_cell
    assert np.array_equal(t.gains, s.gains)
    assert np.array_equal(t.subcarrier_cap, s.subcarrier_cap)
    assert np.array_equal(t.cell_cap, s.cell_cap)
    assert np.array_equal(t.weights, s.weights)
    assert t.noise_power == s.noise_power


def test_from_json_rejects_unknown_and_missing_fields():
    doc = k1_scenario().to_json_dict()
    bad = dict(doc)
    bad["extra"] = 1
    with pytest.raises(ScenarioError, match="unknown"):
        Scenario.from_json_dict(bad)
    bad = dict(doc)
    del bad["gains"]
    with pytest.raises(ScenarioError, match="missing"):
        Scenario.from_json_dict(bad)
    with pytest.raises(ScenarioError, match="JSON"):
        Scenario.from_json("not json{")
    with pytest.raises(ScenarioError):
        Scenario.from_json_dict([1, 2, 3])


def test_to_json_nests_weights_per_cell():
    gains = np.ones((2, 4, 1))
    s = make_scenario(gains, weights=[1.0, 2.0, 3.0, 4.0])
    doc = json.loads(s.to_json())
    assert doc["weights"] == [[1.0, 2.0], [3.0, 4.0]]


# -- allocations -----------------------------------------------------------


def test_allocation_validation():
    Allocation(a=[1, 0], p=[2.0, 0.0])
    with pytest.raises(AllocationError):
        Allocation(a=[2, 0], p=[1.0, 0.0])
    with pytest.raises(AllocationError):
        Allocation(a=[1, 0], p=[-1.0, 0.0])
    with pytest.raises(AllocationError):
        Allocation(a=[0, 1], p=[1.0, 1.0])  # inactive entry carries power
    with pytest.raises(AllocationError):
        Allocation(a=[1, 1], p=[1.0])
    with pytest.raises(AllocationError):
        Allocation(a=[1], p=[float("inf")])


# -- decoding order --------------------------------------------------------


def test_decoding_order_sorts_by_ascending_gain():
    # own gains on the single carrier: user0 -> 3, user1 -> 1, user2 -> 2
    s = make_scenario([[[3.0], [1.0], [2.0]]], sic_limit=3)
    order = build_decoding_order(s)
    assert order.order[0][0] == (1, 2, 0)
    assert order.position[0][0] == (2, 0, 1)


def test_decoding_order_ties_keep_index_order():
    s = make_scenario([[[2.0], [2.0]]])
    order = build_decoding_order(s)
    assert order.order[0][0] == (0, 1)


def test_decoding_order_is_per_carrier():
    s = make_scenario([[[3.0, 1.0], [1.0, 3.0]]], subcarrier_cap=1.0)
    order = build_decoding_order(s)
    assert order.order[0][0] == (1, 0)
    assert order.order[0][1] == (0, 1)


# -- SINR and rates --------------------------------------------------------


def test_sinr_single_user_full_power():
    s = k1_scenario(gain=1.0, noise=1.0, cap=2.0)
    alloc = Allocation(a=[1], p=[2.0])
    order = build_decoding_order(s)
    # g p / N = 1 * 2 / 1
    assert sinr(s, order, alloc, 0) == pytest.approx(2.0, rel=1e-15)
    assert sum_rate(s, order, alloc) == pytest.approx(math.log(3.0), rel=1e-15)


def test_sinr_zero_power_entry_is_zero():
    s = k1_scenario()
    alloc = Allocation(a=[0], p=[0.0])
    order = build_decoding_order(s)
    assert sinr(s, order, alloc, 0) == 0.0


def test_sinr_two_user_noma_hand_value():
    # one cell, gains 1 (weak) and 4 (strong), noise 1
    s = make_scenario([[[1.0], [4.0]]], subcarrier_cap=[[3.5]])
    order = build_decoding_order(s)
    alloc = Allocation(a=[1, 1], p=[3.0, 0.5])
    # weak is decoded first, sees the strong user's power:
    #   1 * 3 / (1 * 0.5 + 1) = 2
    # strong decodes last, interference-free:
    #   4 * 0.5 / 1 = 2
    assert sinr(s, order, alloc, 0) == pytest.approx(2.0, rel=1e-15)
    assert sinr(s, order, alloc, 1) == pytest.approx(2.0, rel=1e-15)
    assert sum_rate(s, order, alloc) == pytest.approx(2 * math.log(3.0), rel=1e-15)


def test_sinr_cross_cell_interference_hand_value():
    s = sym2_scenario()
    order = build_decoding_order(s)
    alloc = Allocation(a=[1, 1], p=[1.0, 1.0])
    # per user: 2 * 1 / (1 * 1 + 1) = 1
    assert sinr(s, order, alloc, 0) == pytest.approx(1.0, rel=1e-15)
    assert sinr(s, order, alloc, 1) == pytest.approx(1.0, rel=1e-15)
    assert sum_rate(s, order, alloc) == pytest.approx(2 * math.log(2.0), rel=1e-15)


def test_sum_rate_respects_weights_and_assignment():
    s = make_scenario([[[1.0], [4.0]]], subcarrier_cap=[[3.5]], weights=[2.0, 0.0])
    order = build_decoding_order(s)
    alloc = Allocation(a=[1, 1], p=[3.0, 0.5])
    assert sum_rate(s, order, alloc) == pytest.approx(2 * math.log(3.0), rel=1e-15)
    solo = Allocation(a=[1, 0], p=[3.0, 0.0])
    # inactive strong user: weak sees no intra-cell interference
    assert sum_rate(s, order, solo) == pytest.approx(2 * math.log(4.0), rel=1e-15)


def test_sinr_rejects_length_mismatch():
    s = sym2_scenario()
    order = build_decoding_order(s)
    alloc = Allocation(a=[1], p=[1.0])
    with pytest.raises(AllocationError):
        sinr(s, order, alloc, 0)
    with pytest.raises(AllocationError):
        check_feasible(s, alloc)


# -- SIC pair margin -------------------------------------------------------


def _decode_margin_direct(s, k, l, weak_u, strong_u, p_own, p_cross):
    """Independent route: compare the two decode SINRs of the weak user's
    signal directly from the raw formula (at the strong vs the weak user)."""
    gw = s.gains[k, s.global_user(k, weak_u), l]
    gs = s.gains[k, s.global_user(k, strong_u), l]
    iw = sum(
        s.gains[j, s.global_user(k, weak_u), l] * p_cross[j]
        for j in range(s.num_cells)
        if j != k
    )
    is_ = sum(
        s.gains[j, s.global_user(k, strong_u), l] * p_cross[j]
        for j in range(s.num_cells)
        if j != k
    )
    p_w, p_s = p_own
    at_weak = gw * p_w / (gw * p_s + iw + s.noise_power)
    at_strong = gs * p_w / (gs * p_s + is_ + s.noise_power)
    return at_strong - at_weak


def test_sic_pair_margin_hand_value():
    gains = [
        [[1.0], [2.0], [1.0]],  # BS 0: own users 0 (weak) and 1 (strong), cross to cell-1 user
        [[0.5], [3.0], [1.0]],  # BS 1: cross gains to cell-0 users, own user
    ]
    s = make_scenario(gains, users_per_cell=(2, 1), subcarrier_cap=1.0)
    # margin = (gs*cw - gw*cs) * P_1 + (gs - gw) * N
    #        = (2*0.5 - 1*3) * 0.7 + 1 * 1 = -1.4 + 1 = -0.4
    m = sic_pair_margin(s, 0, 0, 0, 1, p_cross=[0.0, 0.7])
    assert m == pytest.approx(-0.4, rel=1e-15)
    # with no cross power the noise term keeps the pair decodable
    assert sic_pair_margin(s, 0, 0, 0, 1, p_cross=[0.0, 0.0]) == pytest.approx(1.0)


def test_sic_pair_margin_input_checks():
    s = make_scenario([[[1.0], [2.0]]])
    with pytest.raises(ValueError, match="ordered"):
        sic_pair_margin(s, 0, 0, 1, 0, p_cross=[0.0])  # strong listed as weak
    with pytest.raises(ValueError, match="p_cross"):
        sic_pair_margin(s, 0, 0, 0, 1, p_cross=[0.0, 0.0])


def test_sic_pair_margin_sign_matches_direct_sinr_comparison():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        s = random_scenario(rng, num_cells=2, num_subcarriers=1, users_per_cell=2)
        p_cross = rng.uniform(0.0, 4.0, size=2)
        p_own = rng.uniform(0.1, 2.0, size=2)
        for k in range(2):
            own = [s.gains[k, s.global_user(k, u), 0] for u in range(2)]
            if own[0] == own[1]:
                continue
            weak, strong = (0, 1) if own[0] < own[1] else (1, 0)
            margin = sic_pair_margin(s, k, 0, weak, strong, p_cross)
            direct = _decode_margin_direct(s, k, 0, weak, strong, p_own, p_cross)
            if abs(direct) > 1e-12:
                assert (margin > 0) == (direct > 0), (margin, direct)
                checked += 1
    assert checked > 300


def test_sic_always_feasible_flags_coefficients():
    # all gain products favour the strong user -> always decodable
    good = make_scenario(
        [[[1.0], [2.0], [1.0]], [[1.0], [2.0], [1.0]]],
        users_per_cell=(2, 1),
        subcarrier_cap=1.0,
    )
    assert sic_always_feasible(good)
    # cross gain towards the strong user dominates -> some power breaks SIC
    bad = make_scenario(
        [[[1.0], [2.0], [1.0]], [[0.5], [3.0], [1.0]]],
        users_per_cell=(2, 1),
        subcarrier_cap=1.0,
    )
    assert not sic_always_feasible(bad)


def test_sic_always_feasible_single_cell():
    s = make_scenario([[[1.0], [2.0]]])
    assert sic_always_feasible(s)


# -- feasibility report ----------------------------------------------------


def test_check_feasible_clean_allocation():
    s = sym2_scenario()
    report = check_feasible(s, Allocation(a=[1, 1], p=[1.0, 1.0]))
    assert report.feasible
    assert report.violations == ()
    assert np.allclose(report.carrier_power, [[1.0], [1.0]])
    assert np.allclose(report.cell_power, [1.0, 1.0])
    doc = report.to_json_dict()
    assert doc["feasible"] is True
    assert doc["violations"] == []


def test_check_feasible_reports_power_violations():
    s = k1_scenario(cap=2.0)
    report = check_feasible(s, Allocation(a=[1], p=[5.0]))
    kinds = {v.constraint for v in report.violations}
    assert "subcarrier_power" in kinds
    assert "cell_power" in kinds
    sub = next(v for v in report.violations if v.constraint == "subcarrier_power")
    assert sub.magnitude == pytest.approx(3.0)
    assert sub.cell == 0 and sub.subcarrier == 0


def test_check_feasible_cap_slack_is_relative():
    # caps far below 1 W: an excess of 2e-6 of the cap (8e-13 W) is a
    # violation, while round-off of 1e-13 of the cap is not
    cap = 4e-7
    s = make_scenario([[[1.0, 1.0]]], noise=1e-13, subcarrier_cap=cap)
    over = check_feasible(s, Allocation(a=[1, 1], p=[cap * (1 + 2e-6), cap]))
    assert [v.constraint for v in over.violations] == ["subcarrier_power", "cell_power"]
    assert over.violations[0].cell == 0 and over.violations[0].subcarrier == 0
    ok = check_feasible(s, Allocation(a=[1, 1], p=[cap * (1 + 1e-13), cap]))
    assert ok.feasible, ok.violations


def test_check_feasible_reports_multiplex_violation():
    s = make_scenario([[[1.0], [2.0]]], sic_limit=1)
    report = check_feasible(s, Allocation(a=[1, 1], p=[0.5, 0.5]))
    kinds = [v.constraint for v in report.violations]
    assert kinds == ["multiplex_limit"]
    assert report.violations[0].magnitude == 1.0


def test_check_feasible_reports_sic_violation():
    gains = [
        [[1.0], [2.0], [1.0]],
        [[0.5], [3.0], [1.0]],
    ]
    s = make_scenario(gains, users_per_cell=(2, 1), subcarrier_cap=1.0)
    alloc = Allocation(a=[1, 1, 1], p=[0.4, 0.4, 1.0])
    report = check_feasible(s, alloc)
    kinds = [v.constraint for v in report.violations]
    assert kinds == ["sic_condition"]
    # same configuration with the interferer silent is feasible
    ok = check_feasible(s, Allocation(a=[1, 1, 0], p=[0.4, 0.4, 0.0]))
    assert ok.feasible

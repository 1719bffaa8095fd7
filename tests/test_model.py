"""Scenario, allocation and SIC machinery.

Hand-checked values: every frozen constant below comes from a by-hand
derivation or an independent one-off computation (plain arithmetic on the
SINR formula), never from running the code under test first.
"""

import dataclasses
import json
import math
import pickle
import re

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
from nomaopt.reduction import UnsupportedWeightsError, _reduce_scenario, reduce_scenario

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


_GOOD = dict(
    num_cells=1,
    num_subcarriers=1,
    users_per_cell=(1,),
    sic_limit=2,
    gains=[[[1.0]]],
    noise_power=1.0,
    subcarrier_cap=[[1.0]],
    cell_cap=[1.0],
)


def test_scenario_rejects_bad_inputs():
    good = _GOOD
    Scenario(**good)  # sanity: the base case is valid

    caps = "sub-carrier caps of cell 0 sum to 2 W, above its cell cap 1 W"
    for field, value, message in (
        ("num_cells", 0, "need at least one cell and one sub-carrier"),
        ("num_subcarriers", 0, "need at least one cell and one sub-carrier"),
        ("users_per_cell", (0,), "users_per_cell must list one positive count per cell"),
        ("users_per_cell", 1, "users_per_cell must be a sequence of integers"),
        ("sic_limit", 0, "sic_limit must be a positive integer"),
        ("gains", [[[1.0, 2.0]]],  # wrong shape
         "gains must have shape (cells, total users, sub-carriers) = (1, 1, 1), got (1, 1, 2)"),
        ("gains", [[[-1.0]]], "gains must be strictly positive and finite"),
        ("gains", [[[0.0]]], "gains must be strictly positive and finite"),
        ("gains", [[[np.inf]]], "gains must be strictly positive and finite"),
        ("noise_power", 0.0, "noise_power must be positive and finite"),
        ("noise_power", float("nan"), "noise_power must be a finite number, got nan"),
        ("subcarrier_cap", [[-1.0]], "subcarrier_cap must be a (K, L) array of non-negative watts"),
        ("subcarrier_cap", [[np.nan]], "subcarrier_cap must be a (K, L) array of non-negative watts"),
        ("subcarrier_cap", [1.0], "subcarrier_cap must be a (K, L) array of non-negative watts"),
        ("subcarrier_cap", [[2.0]], caps),
        ("cell_cap", [-1.0], "cell_cap must be a (K,) array of non-negative watts"),
        ("cell_cap", [np.inf], "cell_cap must be a (K,) array of non-negative watts"),
        ("cell_cap", [[1.0]], "cell_cap must be a (K,) array of non-negative watts"),
        ("weights", [-1.0], "weights must be one finite non-negative value per user"),
        ("weights", [np.nan], "weights must be one finite non-negative value per user"),
        ("weights", [1.0, 2.0], "weights must be one finite non-negative value per user"),
        ("meta", [], "meta must be a JSON object, got list"),
    ):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            Scenario(**{**good, field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_cells", True),
        ("num_cells", 1.5),
        ("num_subcarriers", "1"),
        ("users_per_cell", (True,)),
        ("users_per_cell", ("1",)),
        ("sic_limit", 1.5),
        ("sic_limit", "2"),
        ("noise_power", "1.0"),
        ("noise_power", True),
        ("gains", [[["1.0"]]]),
        ("gains", [[[True]]]),
        ("subcarrier_cap", [["1"]]),
        ("cell_cap", [None]),
        ("weights", ["1"]),
        ("meta", None),
        ("meta", [1, 2]),
        ("meta", "provenance"),
    ],
)
def test_scenario_rejects_mistyped_fields(field, value):
    with pytest.raises(ScenarioError, match=field):
        Scenario(**{**_GOOD, field: value})


def test_scenario_takes_integral_counts_as_int():
    s = Scenario(**{**_GOOD, "num_cells": np.int64(1), "users_per_cell": (1.0,), "sic_limit": 2.0})
    assert (s.num_cells, s.users_per_cell, s.sic_limit) == (1, (1,), 2)
    assert type(s.num_cells) is int and type(s.sic_limit) is int


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


def test_from_json_rejects_mistyped_counts():
    doc = k1_scenario().to_json_dict()
    for field, value in (("num_cells", True), ("sic_limit", 1.5), ("users_per_cell", 1)):
        with pytest.raises(ScenarioError, match=field):
            Scenario.from_json_dict({**doc, field: value})


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
    # these were once stored as a = [0, 1, 1] and accepted as strings
    with pytest.raises(AllocationError, match="0 or 1"):
        Allocation(a=[0.5, 1.7, True], p=[0, 1, 2])
    with pytest.raises(AllocationError, match="numbers only"):
        Allocation(a=["1", 0], p=["1e-3", 0])
    alloc = Allocation(a=[1.0, 0.0], p=[2, 0])
    assert (alloc.a.dtype, alloc.p.dtype) == (np.int64, np.float64)


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


def test_scenario_only_results_are_kept_per_instance():
    # the "bad" instance above: cell 0 decodes user 0 first, and BS 1 breaks SIC
    s = make_scenario([[[1.0], [2.0], [1.0]], [[0.5], [3.0], [1.0]]], users_per_cell=(2, 1), subcarrier_cap=1.0)
    order, flag = build_decoding_order(s), sic_always_feasible(s)
    assert build_decoding_order(s) is order and sic_always_feasible(s) is flag
    fresh = Scenario.from_json(s.to_json())
    assert (build_decoding_order(fresh), sic_always_feasible(fresh)) == (order, flag)
    assert (order.order, flag) == ((((0, 1),), ((0,),)), False)

    # BS 0's gains to cell 0's users swapped: user 1 is decoded first, and SIC always holds
    gains = s.gains.copy()
    gains[0, [0, 1]] = gains[0, [1, 0]]
    swapped = dataclasses.replace(s, gains=gains)
    assert build_decoding_order(swapped).order == (((1, 0),), ((0,),))
    assert sic_always_feasible(swapped)
    assert (build_decoding_order(s), sic_always_feasible(s)) == (order, flag)

    # sweep workers receive their scenarios pickled, with or without kept values
    for sc in (s, swapped, Scenario.from_json(swapped.to_json())):
        back = pickle.loads(pickle.dumps(sc))
        assert build_decoding_order(back) == build_decoding_order(sc)
        assert sic_always_feasible(back) == sic_always_feasible(sc)


def _reduced_fields(r):
    arrays = (r.best_user, r.gain_active, r.gain_cross, r.cap_carrier)
    return (r.active, *(a.tobytes() for a in arrays))


def test_reduced_problem_is_kept_per_instance():
    s = make_scenario([[[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]], [[0.5, 1.0], [3.0, 1.0], [1.0, 4.0]]],
                      users_per_cell=(2, 1), subcarrier_cap=1.0)
    r = reduce_scenario(s)
    assert reduce_scenario(s) is r and r.scenario is s
    assert _reduced_fields(r) == _reduced_fields(_reduce_scenario(s))
    assert r.best_user.tolist() == [[1, 0], [0, 0]]

    # cell 0's users swapped on carrier 0: user 0 is served there
    gains = s.gains.copy()
    gains[:, [0, 1], 0] = gains[:, [1, 0], 0]
    swapped = dataclasses.replace(s, gains=gains)
    assert reduce_scenario(swapped).best_user.tolist() == [[0, 0], [0, 0]]
    assert reduce_scenario(s) is r

    # a pickled scenario brings its kept problem, which refers back to it
    back = pickle.loads(pickle.dumps(s))
    assert "_reduced" in vars(back) and reduce_scenario(back).scenario is back
    assert _reduced_fields(reduce_scenario(back)) == _reduced_fields(r)
    fresh = pickle.loads(pickle.dumps(Scenario.from_json(swapped.to_json())))
    assert _reduced_fields(reduce_scenario(fresh)) == _reduced_fields(reduce_scenario(swapped))

    # the weights are checked on every call, not only the first
    weighted = make_scenario([[[1.0]]], weights=[2.0])
    for _ in range(2):
        with pytest.raises(UnsupportedWeightsError):
            reduce_scenario(weighted)


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


def test_violations_serialize_with_the_documented_keys():
    s = make_scenario([[[1.0], [2.0]]], subcarrier_cap=1.0, sic_limit=1)
    report = check_feasible(s, Allocation(a=[1, 1], p=[1.0, 1.0]))
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert [v["constraint"] for v in doc["violations"]] == [
        "subcarrier_power", "multiplex_limit", "cell_power"
    ]
    for v in doc["violations"]:
        assert set(v) == {"constraint", "cell", "subcarrier", "magnitude", "detail"}
        assert v["cell"] == 0
        assert v["subcarrier"] == (None if v["constraint"] == "cell_power" else 0)
        assert v["magnitude"] == 1.0 and isinstance(v["detail"], str)


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

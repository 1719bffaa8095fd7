"""The model layer forms each decode-ordered pair's gain products in one
helper and each (cell, carrier) power sum once. The per-entry versions it
replaced are kept here as the reference. The float operations and their
order are the same in both, so decode orders, SINRs, sum rates, the SIC
flag, the power totals and the violation lists must agree bit for bit."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nomaopt.model import (
    Allocation,
    AllocationError,
    DecodingOrder,
    FeasibilityReport,
    Scenario,
    Violation,
    _frozen_array,
    build_decoding_order,
    check_feasible,
    sic_always_feasible,
    sic_pair_margin,
    sinr,
    sum_rate,
)

# -- the reference: per-entry loops ---------------------------------------------


def ref_build_decoding_order(s: Scenario) -> DecodingOrder:
    order = []
    position = []
    for k in range(s.num_cells):
        off = s.global_user(k, 0)
        m = s.users_per_cell[k]
        own = s.gains[k, off : off + m, :]
        per_l = []
        pos_l = []
        for l in range(s.num_subcarriers):
            pi = tuple(int(u) for u in np.argsort(own[:, l], kind="stable"))
            inv = [0] * m
            for slot, u in enumerate(pi):
                inv[u] = slot
            per_l.append(pi)
            pos_l.append(tuple(inv))
        order.append(tuple(per_l))
        position.append(tuple(pos_l))
    return DecodingOrder(order=tuple(order), position=tuple(position))


def ref_sinr(s: Scenario, order: DecodingOrder, alloc: Allocation, i: int) -> float:
    if alloc.size != s.size:
        raise AllocationError(f"allocation length {alloc.size} does not match scenario size {s.size}")
    k, l, u = s.triplet(i)
    p_i = alloc.p[i]
    if p_i == 0.0:
        return 0.0
    gu = s.global_user(k, u)
    g_own = s.gains[k, gu, l]
    slot = order.position[k][l][u]
    block = alloc.p[s.carrier_slice(k, l)]
    intra = 0.0
    for v in order.order[k][l][slot + 1 :]:
        intra += block[v]
    inter = 0.0
    for j in range(s.num_cells):
        if j == k:
            continue
        inter += s.gains[j, gu, l] * float(np.sum(alloc.p[s.carrier_slice(j, l)]))
    return g_own * p_i / (g_own * intra + inter + s.noise_power)


def ref_sum_rate(s: Scenario, order: DecodingOrder, alloc: Allocation) -> float:
    w = s.canonical_weights()
    total = 0.0
    for i in range(s.size):
        if alloc.a[i]:
            total += w[i] * math.log1p(ref_sinr(s, order, alloc, i))
    return total


def ref_pair_margin(s: Scenario, k: int, l: int, weak_u: int, strong_u: int, p_cross) -> float:
    gw = s.gains[k, s.global_user(k, weak_u), l]
    gs = s.gains[k, s.global_user(k, strong_u), l]
    total = (gs - gw) * s.noise_power
    for j in range(s.num_cells):
        if j == k:
            continue
        cw = s.gains[j, s.global_user(k, weak_u), l]
        cs = s.gains[j, s.global_user(k, strong_u), l]
        total += (gs * cw - gw * cs) * p_cross[j]
    return float(total)


def ref_sic_always_feasible(s: Scenario) -> bool:
    order = ref_build_decoding_order(s)
    for k in range(s.num_cells):
        m = s.users_per_cell[k]
        for l in range(s.num_subcarriers):
            pi = order.order[k][l]
            for ai in range(m):
                for bi in range(ai + 1, m):
                    weak, strong = pi[ai], pi[bi]
                    gw = s.gains[k, s.global_user(k, weak), l]
                    gs = s.gains[k, s.global_user(k, strong), l]
                    for j in range(s.num_cells):
                        if j == k:
                            continue
                        cw = s.gains[j, s.global_user(k, weak), l]
                        cs = s.gains[j, s.global_user(k, strong), l]
                        t1 = gs * cw
                        t2 = gw * cs
                        if t1 - t2 < -1e-12 * (t1 + t2):
                            return False
    return True


def ref_check_feasible(s: Scenario, alloc: Allocation) -> FeasibilityReport:
    if alloc.size != s.size:
        raise AllocationError(f"allocation length {alloc.size} does not match scenario size {s.size}")
    K, L = s.num_cells, s.num_subcarriers
    carrier_power = np.zeros((K, L))
    active_count = np.zeros((K, L), dtype=int)
    for k in range(K):
        for l in range(L):
            sl = s.carrier_slice(k, l)
            carrier_power[k, l] = float(np.sum(alloc.p[sl]))
            active_count[k, l] = int(np.sum(alloc.a[sl]))
    cell_power = carrier_power.sum(axis=1)

    violations: list[Violation] = []
    for k in range(K):
        for l in range(L):
            cap = s.subcarrier_cap[k, l]
            excess = carrier_power[k, l] - cap
            if excess > 1e-12 * cap:
                violations.append(
                    Violation(
                        "subcarrier_power", k, l, float(excess),
                        f"carrier power {carrier_power[k, l]:.6g} W exceeds cap {cap:.6g} W",
                    )
                )
            if active_count[k, l] > s.sic_limit:
                violations.append(
                    Violation(
                        "multiplex_limit", k, l, float(active_count[k, l] - s.sic_limit),
                        f"{active_count[k, l]} active users exceed the limit of {s.sic_limit}",
                    )
                )
        excess = cell_power[k] - s.cell_cap[k]
        if excess > 1e-12 * s.cell_cap[k]:
            violations.append(
                Violation(
                    "cell_power", k, None, float(excess),
                    f"cell power {cell_power[k]:.6g} W exceeds cap {s.cell_cap[k]:.6g} W",
                )
            )

    order = ref_build_decoding_order(s)
    for k in range(K):
        for l in range(L):
            sl = s.carrier_slice(k, l)
            active = [u for u in range(s.users_per_cell[k]) if alloc.a[sl][u]]
            if len(active) < 2:
                continue
            by_slot = sorted(active, key=lambda u: order.position[k][l][u])
            for ai in range(len(by_slot)):
                for bi in range(ai + 1, len(by_slot)):
                    weak, strong = by_slot[ai], by_slot[bi]
                    margin = ref_pair_margin(s, k, l, weak, strong, carrier_power[:, l])
                    gw = s.gains[k, s.global_user(k, weak), l]
                    gs = s.gains[k, s.global_user(k, strong), l]
                    scale = (gs + gw) * s.noise_power
                    for j in range(K):
                        if j != k:
                            cw = s.gains[j, s.global_user(k, weak), l]
                            cs = s.gains[j, s.global_user(k, strong), l]
                            scale += (gs * cw + gw * cs) * carrier_power[j, l]
                    if margin < -1e-12 * scale:
                        violations.append(
                            Violation(
                                "sic_condition", k, l, float(-margin),
                                f"users ({weak}, {strong}) cannot be jointly decoded "
                                f"(margin {margin:.6g})",
                            )
                        )
    return FeasibilityReport(
        violations=tuple(violations),
        carrier_power=_frozen_array(carrier_power),
        cell_power=_frozen_array(cell_power),
    )


# -- random instances ------------------------------------------------------------

# a few exact values, so that gains tie within and across users and cells
_TIED = [0.25, 0.5, 1.0, 2.0, 3.0]
_gain = st.one_of(
    st.sampled_from(_TIED),
    st.floats(min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _instances(draw):
    K = draw(st.integers(1, 4))
    L = draw(st.integers(1, 3))
    users = tuple(draw(st.lists(st.integers(1, 4), min_size=K, max_size=K)))
    U = sum(users)
    gains = np.array(draw(st.lists(_gain, min_size=K * U * L, max_size=K * U * L))).reshape(K, U, L)
    noise = draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0]))
    caps = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=K * L, max_size=K * L)))
    caps = caps.reshape(K, L)
    s = Scenario(
        num_cells=K,
        num_subcarriers=L,
        users_per_cell=users,
        sic_limit=draw(st.integers(1, 3)),
        gains=gains,
        noise_power=noise,
        subcarrier_cap=caps,
        cell_cap=caps.sum(axis=1) * draw(st.sampled_from([1.0, 1.5])),
        weights=draw(st.sampled_from([None, np.linspace(0.5, 2.0, U)])),
    )
    # several active users per (cell, carrier), zero powers on some of
    # them and powers up to three times the caps
    a = np.array(draw(st.lists(st.sampled_from([0, 1, 1]), min_size=s.size, max_size=s.size)))
    power = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    p = a * np.array(draw(st.lists(power, min_size=s.size, max_size=s.size)))
    return s, Allocation(a=a, p=p)


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


def _violation_fields(report: FeasibilityReport) -> list[tuple]:
    return [(v.constraint, v.cell, v.subcarrier, _bits(v.magnitude), v.detail) for v in report.violations]


def _round_off_pair(weak, strong, weak_cross, strong_cross):
    """Two cells, cell 0 serving a decode-ordered pair of users with the
    given gains from their own and from the other base station."""
    gains = np.array([[[weak], [strong], [0.5]], [[weak_cross], [strong_cross], [1.0]]])
    s = Scenario(
        num_cells=2,
        num_subcarriers=1,
        users_per_cell=(2, 1),
        sic_limit=2,
        gains=gains,
        noise_power=1.0,
        subcarrier_cap=np.full((2, 1), 2.0),
        cell_cap=np.full(2, 2.0),
    )
    return s, Allocation(a=[1, 1, 1], p=[0.5, 0.5, 2.0])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_instances())
# gain products that differ by round-off alone, 1.0 * 0.3 < 0.1 * 3.0:
# the SIC flag holds, and with tied serving gains the margin is -1.1e-16
# and no violation
@example(_round_off_pair(0.1, 1.0, 0.3, 3.0))
@example(_round_off_pair(1.0, 1.0, 0.3, 0.1 * 3.0))
def test_model_matches_the_per_entry_reference(instance):
    s, alloc = instance
    order = build_decoding_order(s)
    ref_order = ref_build_decoding_order(s)
    assert order == ref_order

    for i in range(s.size):
        assert _bits(sinr(s, order, alloc, i)) == _bits(ref_sinr(s, ref_order, alloc, i))
    assert _bits(sum_rate(s, order, alloc)) == _bits(ref_sum_rate(s, ref_order, alloc))
    assert sic_always_feasible(s) == ref_sic_always_feasible(s)

    report, ref = check_feasible(s, alloc), ref_check_feasible(s, alloc)
    assert report.carrier_power.tobytes() == ref.carrier_power.tobytes()
    assert report.cell_power.tobytes() == ref.cell_power.tobytes()
    assert _violation_fields(report) == _violation_fields(ref)

    for k in range(s.num_cells):
        for l in range(s.num_subcarriers):
            pi = order.order[k][l]
            for ai, weak in enumerate(pi):
                for strong in pi[ai + 1 :]:
                    if s.gains[k, s.global_user(k, weak), l] < s.gains[k, s.global_user(k, strong), l]:
                        margin = sic_pair_margin(s, k, l, weak, strong, ref.carrier_power[:, l])
                        expected = ref_pair_margin(s, k, l, weak, strong, ref.carrier_power[:, l])
                        assert _bits(margin) == _bits(expected)


def _cap_instance():
    """Two cells on two carriers; cell 0 has slack under its cell cap, cell
    1's cap is the sum of its carrier caps, and carrier (1, 1) is capped at
    0. On carrier 0, users 1 and 0 of cell 0 cannot both be decoded while
    cell 1 transmits there at full power."""
    gains = np.array([
        [[1.0, 2.0], [0.5, 0.25], [3.0, 1.0], [0.1, 0.2], [0.2, 0.1]],
        [[1.0, 0.2], [0.01, 0.1], [0.2, 0.3], [1.0, 2.0], [2.0, 0.5]],
    ])
    return Scenario(
        num_cells=2,
        num_subcarriers=2,
        users_per_cell=(3, 2),
        sic_limit=2,
        gains=gains,
        noise_power=0.5,
        subcarrier_cap=np.array([[1.0, 1.0], [2.0, 0.0]]),
        cell_cap=np.array([3.0, 2.0]),
    )


def _allocation(s, powers):
    """Canonical allocation from {(cell, carrier, user): power}; a listed
    user is active, also at zero power."""
    a, p = np.zeros(s.size, dtype=int), np.zeros(s.size)
    for (k, l, u), w in powers.items():
        i = s.carrier_slice(k, l).start + u
        a[i], p[i] = 1, w
    return Allocation(a=a, p=p)


_CLEAN = {(0, 0, 0): 0.5, (0, 1, 2): 1.0, (1, 0, 1): 2.0}


@pytest.mark.parametrize("changes, broken", [
    ({}, set()),
    # within the 1e-12 relative slack, and just beyond it
    ({(0, 0, 0): 1.0 + 1e-13}, set()),
    ({(0, 0, 0): 1.0 + 2e-12}, {"subcarrier_power"}),
    # cell 0 stays under its cell cap; cell 1 does not
    ({(0, 1, 2): 1.5}, {"subcarrier_power"}),
    ({(1, 0, 1): 2.5}, {"subcarrier_power", "cell_power"}),
    ({(1, 1, 0): 1e-9}, {"subcarrier_power", "cell_power"}),
    ({(0, 0, 1): 0.1, (0, 0, 2): 0.0}, {"multiplex_limit", "sic_condition"}),
    ({(0, 0, 1): 0.5, (0, 0, 2): 0.5, (0, 1, 2): 3.0, (1, 0, 0): 0.5, (1, 1, 1): 0.5},
     {"subcarrier_power", "cell_power", "multiplex_limit", "sic_condition"}),
])
def test_cap_screen_matches_the_per_entry_loop(changes, broken):
    # check_feasible screens the caps and the limit with whole-array
    # comparisons; its report must be that of ref_check_feasible's loop
    s = _cap_instance()
    alloc = _allocation(s, {**_CLEAN, **changes})
    report, ref = check_feasible(s, alloc), ref_check_feasible(s, alloc)
    assert {v.constraint for v in report.violations} == broken
    assert report.carrier_power.tobytes() == ref.carrier_power.tobytes()
    assert report.cell_power.tobytes() == ref.cell_power.tobytes()
    assert _violation_fields(report) == _violation_fields(ref)

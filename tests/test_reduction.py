"""Best-user reduction, the shifted-SINR change of variables and its inverse.

The sym2 instance is small enough to solve by hand: own gain 2, cross
gain 1, noise 1 in both cells. Powers (1, 1) give shifted SINRs (2, 2);
inverting (2, 2) means solving
    2 q0 - 1 q1 = 1
   -1 q0 + 2 q1 = 1
which has the unique solution q = (1, 1).
"""

import dataclasses
import math

import numpy as np
import pytest

from nomaopt.experiments import RadioConfig, generate_scenario
from nomaopt.model import Allocation, ScenarioError, build_decoding_order, check_feasible, sum_rate
from nomaopt.reduction import (
    InconsistentSinrError,
    ReducedProblem,
    UnsupportedWeightsError,
    allocation_from_powers,
    membership,
    objective,
    p_from_z,
    power_systems,
    reduce_scenario,
    sum_rate_from_powers,
    z_from_p,
)

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


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


# -- change of variables ---------------------------------------------------


def test_z_from_p_single_cell():
    s = k1_scenario(gain=1.0, noise=1.0, cap=2.0)
    r = reduce_scenario(s)
    assert np.array_equal(z_from_p(r, [2.0]), [3.0])
    assert np.array_equal(z_from_p(r, [0.0]), [1.0])


def test_z_from_p_hand_value_with_interference():
    r = reduce_scenario(sym2_scenario())
    sv = z_from_p(r, [1.0, 1.0])
    assert np.allclose(sv, [2.0, 2.0], rtol=1e-15)


def test_p_from_z_hand_value():
    r = reduce_scenario(sym2_scenario())
    q = p_from_z(r, [2.0, 2.0])
    assert np.allclose(q, [1.0, 1.0], rtol=1e-12)


def test_p_from_z_zero_power_entries():
    r = reduce_scenario(sym2_scenario())
    q = p_from_z(r, [1.0, 1.0])
    assert np.array_equal(q, [0.0, 0.0])
    # one silent cell: the other is interference-free
    q = p_from_z(r, [3.0, 1.0])
    assert np.allclose(q, [1.0, 0.0])


def test_p_from_z_rejects_unrealizable_targets():
    r = reduce_scenario(sym2_scenario())
    # gamma = 2 each: the interference balance matrix loses rank
    with pytest.raises(InconsistentSinrError) as info:
        p_from_z(r, [3.0, 3.0])
    assert info.value.reason == "singular"
    # beyond the boundary the unique solution needs negative power
    with pytest.raises(InconsistentSinrError) as info:
        p_from_z(r, [4.0, 4.0])
    assert info.value.reason == "negative"


def test_p_from_z_conditioning_check_is_relative():
    # sym2 at gamma = 2 - delta (both cells): q = gamma / (2 - gamma) and
    # A^-1 has diagonal 1 / (1 - gamma^2 / 4), about 1 / delta
    r = reduce_scenario(sym2_scenario())
    q = p_from_z(r, [3.0 - 1e-6, 3.0 - 1e-6])
    assert np.allclose(q, (2.0 - 1e-6) / 1e-6, rtol=1e-6)
    with pytest.raises(InconsistentSinrError) as info:
        p_from_z(r, [3.0 - 1e-14, 3.0 - 1e-14])
    assert info.value.reason == "singular"


def test_power_systems_batch_verdicts_match_p_from_z():
    # one carrier, one system per row: p_from_z raises on exactly the rows
    # the batch marks, with the reason the mask names
    r = reduce_scenario(sym2_scenario())
    gamma = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [2.0, 0.0], [0.0, 0.0]])
    x, singular, negative = power_systems(r, gamma)
    assert x.shape == (5, 2, 3)
    assert singular == [False, True, False, False, False]
    assert [n and not s for s, n in zip(singular, negative)] == [False, False, True, False, False]
    for row, qb, bad_s, bad_n in zip(gamma, x[:, :, 0], singular, negative):
        if bad_s or bad_n:
            with pytest.raises(InconsistentSinrError) as info:
                p_from_z(r, row + 1.0)
            assert info.value.reason == ("singular" if bad_s else "negative")
        else:
            assert np.array_equal(qb, p_from_z(r, row + 1.0))


def test_power_systems_verdicts_do_not_depend_on_the_power_scale():
    # gains far below the cross gains: past the pole the solved powers are
    # about -1e-13 W, and before it the powers are about 1e-12 W and 1e-16 W
    g = np.array([[[1e-16], [1e-2]], [[1e-2], [1e-12]]])
    r = reduce_scenario(make_scenario(g, noise=1e-15, subcarrier_cap=[[1e-6], [1e-4]]))
    x, singular, negative = power_systems(r, np.array([[1e-7, 0.1], [1e-13, 1e-13]]))
    q = x[:, :, 0]
    assert not any(singular)
    assert negative == [True, False]
    assert -1e-12 < q[0].min() < 0.0
    with pytest.raises(InconsistentSinrError) as info:
        p_from_z(r, [1.0 + 1e-7, 1.1])
    assert info.value.reason == "negative"
    # before the pole every power is at least its noise-only term
    assert np.all(p_from_z(r, [1.0 + 1e-13, 1.0 + 1e-13]) >= [1e-12, 1e-16])


def test_power_systems_cancellation_below_zero_is_not_past_the_pole():
    # cell 1 asks for SINR 1000 and cell 0 for 1e-13: the pivoted solve
    # eliminates on cell 1's row, and cell 0's power of about 1e-25 W
    # cancels to zero or below; the system is far from its pole
    g = [[[1.0], [1e-4]], [[1e-4], [1e-2]]]
    r = reduce_scenario(make_scenario(g, noise=1e-13, subcarrier_cap=1e-3))
    z = np.array([1.0 + 1e-13, 1001.0])
    x, singular, negative = power_systems(r, (z - 1.0)[None])
    assert x[0, 0, 0] <= 0.0
    assert not any(singular) and not any(negative)
    assert membership(r, z)
    p = p_from_z(r, z)
    assert p[0] == 0.0 and p[1] > 0.0


def test_power_systems_negative_verdict_matches_the_spectral_radius():
    # a row is past the pole exactly when diag(gamma / g) G off its
    # diagonal has spectral radius above 1; gains over 14 decades, noise
    # over 4 (a -1e-12 W test errs on 8 of these rows, a test of q < b / 2
    # on 4)
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(300):
        K = int(rng.integers(2, 6))
        g = 10.0 ** rng.uniform(-16, -2, (K, K, 1))
        s = make_scenario(g, noise=10.0 ** rng.uniform(-16, -12), subcarrier_cap=1.0)
        r = reduce_scenario(s)
        gamma = 10.0 ** rng.uniform(-14, 3, (8, K))
        gamma[rng.random((8, K)) < 0.2] = 0.0
        _, singular, negative = power_systems(r, gamma)
        cross = -r._system[1][0] * (1.0 - np.eye(K))
        for row, sing, neg in zip(gamma, singular, negative):
            rho = np.abs(np.linalg.eigvals(row[:, None] * cross * (row > 0.0))).max()
            if sing or abs(rho - 1.0) < 1e-6:
                continue
            assert neg == (rho > 1.0), (row, rho)
            checked += 1
    assert checked > 2000


def test_power_systems_rows_match_carrier_systems():
    # rows of a multi-carrier problem are its carriers, solved as p_from_z does
    rng = np.random.default_rng(23)
    r = reduce_scenario(random_scenario(rng, num_cells=3, num_subcarriers=4))
    q_in = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
    gamma = z_from_p(r, q_in) - 1.0
    x, singular, negative = power_systems(r, gamma.reshape(3, 4).T)
    assert not any(singular) and not any(negative)
    assert np.array_equal(np.maximum(x[:, :, 0].T.reshape(-1), 0.0), p_from_z(r, gamma + 1.0))


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
        assert np.allclose(again, sv, rtol=1e-12)


def _eliminate(r, zc):
    """Reference for p_from_z: per carrier, Gaussian elimination with partial
    pivoting over the powered cells' row-scaled system, the loop that
    numpy.linalg.solve replaced. Returns None where p_from_z must raise."""
    K, L = r.gain_active.shape
    q = np.zeros(r.dim)
    for l in range(L):
        cells = [k for k in range(K) if zc[k * L + l] > 1.0]
        m = len(cells)
        A, b = np.eye(m), np.zeros(m)
        for a, k in enumerate(cells):
            gamma = zc[k * L + l] - 1.0
            for c, j in enumerate(cells):
                if j != k:
                    A[a, c] = -gamma * r.gain_cross[k, l, j] / r.gain_active[k, l]
            b[a] = gamma * r.scenario.noise_power / r.gain_active[k, l]
        for col in range(m):
            piv = col + int(np.argmax(np.abs(A[col:, col])))
            A[[col, piv]], b[[col, piv]] = A[[piv, col]], b[[piv, col]]
            for row in range(col + 1, m):
                f = A[row, col] / A[col, col]
                A[row, col:] -= f * A[col, col:]
                b[row] -= f * b[col]
        x = np.zeros(m)
        for row in range(m - 1, -1, -1):
            x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
        if np.any(x < -1e-12):
            return None
        q[[k * L + l for k in cells]] = np.maximum(x, 0.0)
    return q


def test_p_from_z_matches_elimination_reference():
    # LAPACK eliminates in another order; on these systems (gains over two
    # decades, targets up to 1.6x a realizable point) both stay within
    # 1e-12 relative, about 4500 units in the last place
    rng = np.random.default_rng(19)
    outcomes = set()
    for _ in range(300):
        s = random_scenario(rng, num_cells=int(rng.integers(1, 6)), num_subcarriers=int(rng.integers(1, 4)))
        r = reduce_scenario(s)
        q = r.cap_carrier.reshape(-1) * rng.uniform(0.0, 1.0, size=r.dim) * (rng.uniform(size=r.dim) > 0.2)
        zc = np.maximum(z_from_p(r, q) * rng.uniform(1.0, 1.6), 1.0)
        expected = _eliminate(r, zc)
        if expected is None:
            with pytest.raises(InconsistentSinrError) as info:
                p_from_z(r, zc)
            assert info.value.reason == "negative"
        else:
            assert np.allclose(p_from_z(r, zc), expected, rtol=1e-12, atol=0.0)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_power_input_validation():
    r = reduce_scenario(sym2_scenario())
    with pytest.raises(ValueError):
        z_from_p(r, [1.0])
    with pytest.raises(ValueError):
        z_from_p(r, [-1.0, 0.0])
    with pytest.raises(ValueError):
        z_from_p(r, [float("inf"), 0.0])


_Z_TAKERS = {
    "p_from_z": p_from_z,
    "membership": membership,
    "objective": lambda r, z: objective(z, weights=np.ones(r.dim)),
}


@pytest.mark.parametrize("taker", sorted(_Z_TAKERS))
@pytest.mark.parametrize(
    "z, error",
    [
        pytest.param([2.0], "expected 2", id="short"),
        pytest.param([2.0, 2.0, 2.0], "expected 2", id="long"),
        pytest.param([float("nan"), 2.0], "finite", id="nan"),
        pytest.param([2.0, float("inf")], "finite", id="inf"),
        pytest.param([1.0 - 1e-8, 2.0], ">= 1", id="below-one"),
        pytest.param([1.0 - 1e-10, 2.0], None, id="snapped"),
    ],
)
def test_flat_z_is_checked_where_it_arrives(taker, z, error):
    r = reduce_scenario(sym2_scenario())
    call = _Z_TAKERS[taker]
    if error is None:
        # within 1e-9 below 1 is round-off at zero power: it counts as 1
        assert np.array_equal(call(r, z), call(r, [1.0, 2.0]))
    else:
        with pytest.raises(ValueError, match=error):
            call(r, z)


# -- objective -------------------------------------------------------------


def test_objective_is_log_sum():
    z = [3.0, 2.0]
    assert objective(z) == pytest.approx(math.log(3.0) + math.log(2.0), rel=1e-15)
    assert objective(z, weights=[2.0, 0.0]) == pytest.approx(2 * math.log(3.0), rel=1e-15)
    with pytest.raises(ValueError):
        objective(z, weights=[1.0])
    with pytest.raises(ValueError):
        objective(z, weights=[-1.0, 1.0])


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
    assert membership(r, [2.0, 2.0])
    # both cells at full power: 1 + 2*2 / (2 + 1) = 7/3 on each entry
    assert membership(r, [7.0 / 3.0, 7.0 / 3.0])
    assert not membership(r, [2.4, 2.4])
    assert not membership(r, [4.0, 4.0])  # unrealizable entirely


def test_membership_with_tight_cell_cap():
    # a valid scenario never has a cell cap below its carrier-cap sum, so
    # the boundary case is both tight at once: full power is still a member
    s = make_scenario([[[1.0, 1.0]]], subcarrier_cap=[[2.0, 2.0]], cell_cap=[4.0], noise=1.0)
    r = reduce_scenario(s)
    full = z_from_p(r, [2.0, 2.0])
    assert membership(r, full) is True
    over = full * 1.001
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
                dataclasses.replace(s, cell_cap=np.full(s.num_cells, tight))
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

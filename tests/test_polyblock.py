"""Outer approximation loop: vertices, children, pruning, certificates.

Single-cell closed form used throughout: with gain g, noise N and cap P
the best shifted SINR is 1 + g P / N, so the optimal sum rate is
log(1 + g P / N), and the box corner and the starting full-power
incumbent both equal the optimum, so the search needs no projection.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

import nomaopt.polyblock as P
from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt.model import ScenarioError
from nomaopt.oracle import baseline_full_power, grid_optimum
from nomaopt.polyblock import (
    MAX_ITERATIONS,
    MAX_VERTICES,
    _carrier_groups,
    _CarrierSearch,
    _sum,
    generate_children,
    initial_vertex,
    reduce_children,
    solve,
    write_trace_csv,
)
from nomaopt.reduction import _cap_ceilings, power_systems, reduce_scenario

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


# -- initial vertex ----------------------------------------------------------


def test_initial_vertex_single_cell():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    assert np.array_equal(initial_vertex(r), [3.0])


def test_initial_vertex_symmetric_two_cell():
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    assert np.array_equal(initial_vertex(r), [5.0, 5.0])


def test_initial_vertex_zero_cap_carrier_pins_at_one():
    s = make_scenario([[[1.0, 1.0]]], noise=1.0, subcarrier_cap=[[2.0, 0.0]])
    r = reduce_scenario(s)
    assert np.array_equal(initial_vertex(r), [3.0, 1.0])


def test_initial_vertex_dominates_every_member():
    rng = np.random.default_rng(61)
    for _ in range(20):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        corner = initial_vertex(r)
        q = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
        from nomaopt.reduction import z_from_p

        assert np.all(z_from_p(r, q) <= corner + 1e-12)


def test_initial_vertex_is_a_new_array_while_its_list_is_cached():
    # the vertex store's first column is a view of the array, which pop
    # writes through; the line search reads the cached list
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    a, b = initial_vertex(r), initial_vertex(r)
    assert a.flags.writeable and not np.shares_memory(a, b)
    assert r._corner == a.tolist() and r._corner is r._corner


# -- children ----------------------------------------------------------------


def test_children_lower_one_coordinate_each():
    kids = generate_children(np.array([3.0, 3.0]), np.array([2.0, 1.5]))
    assert np.array_equal(kids, [[2.0, 3.0], [3.0, 1.5]])


def test_children_skip_unpowered_coordinates():
    # a coordinate the cut point leaves at 1 gets no child
    kids = generate_children(np.array([3.0, 3.0]), np.array([2.0, 1.0]))
    assert np.array_equal(kids, [[2.0, 3.0]])
    none = generate_children(np.array([3.0, 3.0]), np.ones(2))
    assert none.shape == (0, 2)


def test_children_are_clamped_to_the_parent():
    # a cut point a hair above the parent must not raise the child
    parent = np.array([2.0, 3.0, 4.0])
    upper = np.array([2.0 * (1 + 1e-13), 1.5, 4.5])
    kids = generate_children(parent, upper)
    assert np.array_equal(kids, [[2.0, 3.0, 4.0], [2.0, 1.5, 4.0], [2.0, 3.0, 4.0]])


def test_children_count_matches_powered_coordinates():
    rng = np.random.default_rng(67)
    parent = 1.0 + rng.uniform(0.5, 3.0, size=6)
    upper = 1.0 + (parent - 1.0) * rng.uniform(0.0, 1.0, size=6) * (rng.random(6) > 0.3)
    kids = generate_children(parent, upper)
    powered = np.flatnonzero(upper > 1.0)
    assert kids.shape == (powered.size, 6)
    for child, i in zip(kids, powered):
        expected = parent.copy()
        expected[i] = upper[i]
        assert np.array_equal(child, expected)


# -- pruning -----------------------------------------------------------------
# solve() drops a child that a stored vertex or an earlier child covers,
# and after each iteration every vertex whose objective cannot beat the
# incumbent by more than epsilon.

NONE = np.empty((0, 2))


def _search(rows):
    """A two-coordinate carrier search whose store holds exactly ``rows``;
    each vertex's start powers are its values minus one, so tests can tell
    which powers travel with which vertex."""
    g = _CarrierSearch(reduce_scenario(sym2_scenario()), [0], 0.0)
    g.z = np.array(rows, dtype=float).reshape(-1, 2).T.copy()
    g.f = np.log(g.z).sum(axis=0)
    g.q = g.z - 1.0
    return g


def _add(g, children, t=-math.inf):
    g.add(np.array(children, dtype=float).reshape(-1, 2), np.array([7.0, 7.0]), t)
    return [tuple(z) for z in g.z.T]


def test_prune_drops_dominated_vertices():
    assert _add(_search([[2.0, 3.0]]), [[2.0, 2.0]]) == [(2.0, 3.0)]
    assert _add(_search([[2.0, 3.0]]), [[2.0, 3.0 + 1e-12]]) == [(2.0, 3.0), (2.0, 3.0 + 1e-12)]
    assert _add(_search([]), [[1.0, 1.0]]) == [(1.0, 1.0)]


def test_prune_keeps_incomparable_vertices():
    assert _add(_search([[2.0, 3.0]]), [[3.0, 2.0]]) == [(2.0, 3.0), (3.0, 2.0)]


def test_prune_equal_vertex_is_covered():
    # an equal vertex adds no box, so it counts as covered
    assert _add(_search([[2.0, 3.0]]), [[2.0, 3.0]]) == [(2.0, 3.0)]


def test_prune_earlier_child_covers_later_ones():
    # children enter in order: an earlier child (or its duplicate) covers a
    # later one, but a later child does not remove an earlier one
    g = _search([[1.0, 5.0]])
    assert _add(g, [[3.0, 3.0], [2.0, 3.0], [3.0, 3.0], [4.0, 1.0], [4.0, 2.0]]) == [
        (1.0, 5.0), (3.0, 3.0), (4.0, 1.0), (4.0, 2.0)
    ]
    # the new rows start from the powers they were added with
    assert np.array_equal(g.q[:, 1:], np.full((2, 3), 7.0))
    assert np.array_equal(g.f, np.log(g.z).sum(axis=0))


def _drain(g):
    """Every stored (values, start powers) pair, in pop order."""
    popped = []
    while g.f.size:
        zc, q = g.pop()
        popped.append((tuple(zc), tuple(q)))
    return popped


def test_prune_applies_value_threshold():
    # objectives log 6 ~ 1.79, log 4 ~ 1.39, log 9 ~ 2.20
    g = _search([[2.0, 3.0], [2.0, 2.0], [3.0, 3.0]])
    g.add(NONE, np.zeros(2), math.log(4.0))
    assert g.f.size == 2 and g.ub == math.log(9.0)
    assert [zc for zc, _ in _drain(g)] == [(3.0, 3.0), (2.0, 3.0)]
    g = _search([[2.0, 3.0], [2.0, 2.0], [3.0, 3.0]])
    g.add(NONE, np.zeros(2), math.log(9.0))
    assert g.f.size == 0
    assert g.dropped_max == math.log(9.0) and g.ub == max(g.lb, math.log(9.0))
    # a child at or below the threshold is never kept
    g = _search([[3.0, 3.0]])
    assert _add(g, [[2.0, 2.0], [1.0, 5.0]], t=math.log(5.0)) == [(3.0, 3.0)]
    assert g.dropped_max == math.log(5.0)


def test_start_powers_move_with_their_vertex():
    # the best vertex comes first, so popping it moves the last one into its slot
    g = _search([[3.0, 3.0], [2.0, 2.0], [2.0, 3.0], [4.0, 1.0]])
    assert g.dropped_max == -math.inf
    g.add(NONE, np.zeros(2), math.log(4.0))
    assert g.dropped_max == math.log(4.0)
    popped = _drain(g)
    assert [zc for zc, _ in popped] == [(3.0, 3.0), (2.0, 3.0)]
    for zc, q in popped:
        assert np.array_equal(q, np.array(zc) - 1.0)
    # pruning an empty store drops nothing
    g.add(NONE, np.zeros(2), 10.0)
    assert g.dropped_max == math.log(4.0)


def test_pop_best_breaks_ties_by_largest_coordinates():
    # (2, 3) and (3, 2) tie on log 6 and beat log 5; the lexicographically
    # larger comes first, wherever it sits in the store
    for rows in ([[2.0, 3.0], [3.0, 2.0], [1.0, 5.0]], [[3.0, 2.0], [1.0, 5.0], [2.0, 3.0]]):
        popped = _drain(_search(rows))
        assert [zc for zc, _ in popped] == [(3.0, 2.0), (2.0, 3.0), (1.0, 5.0)]
        for zc, q in popped:
            assert np.array_equal(q, np.array(zc) - 1.0)


# -- carrier slices ------------------------------------------------------------


def _carrier_scenario(s, l):
    """Carrier l of s as a scenario of its own, its carrier caps standing
    in for the cell caps."""
    return dataclasses.replace(
        s,
        num_subcarriers=1,
        gains=s.gains[:, :, l : l + 1],
        subcarrier_cap=s.subcarrier_cap[:, l : l + 1],
        cell_cap=s.subcarrier_cap[:, l],
    )


def test_carrier_slice_matches_reduction_of_the_carrier():
    rng = np.random.default_rng(97)
    cases = [random_scenario(rng, num_cells=K, num_subcarriers=L) for K, L in ((2, 2), (3, 4), (1, 3))]
    cases.append(generate_scenario(RadioConfig(num_cells=2, num_subcarriers=4, users_per_cell=2), seed=[0, 0]))
    cases.append(make_scenario(rng.uniform(0.1, 2.0, size=(2, 5, 3)), users_per_cell=(2, 3)))
    for s in cases:
        r = reduce_scenario(s)
        for l in range(s.num_subcarriers):
            sub = _carrier_scenario(s, l)
            part, ref = r.carrier(l), reduce_scenario(sub)
            for name in ("best_user", "gain_active", "gain_cross", "cap_carrier"):
                a, b = getattr(part, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
                assert a.flags.c_contiguous and not a.flags.writeable, name
            # the carrier works out its own constants: those of the
            # carrier's reduction and the whole problem's sliced to l
            for a, b, whole in zip(part._system, ref._system, r._system):
                assert a.tobytes() == b.tobytes() == whole[l : l + 1].tobytes()
            # the slice indexes the whole scenario: the same (cell, user) pairs on carrier l
            assert part.scenario is s
            assert [s.triplet(i) for i in part.active] == [
                (k, l, u) for k, _, u in (sub.triplet(i) for i in ref.active)
            ]
    one = reduce_scenario(k1_scenario())
    assert one.carrier(0) is one


# -- reduce step ---------------------------------------------------------------


def test_reduce_keeps_every_realizable_point_worth_more_than_the_threshold():
    # each child on its own: the row it leaves (if any) must still hold
    # every sampled realizable point of its box worth more than t
    rng = np.random.default_rng(101)
    dropped = lowered = 0
    for trial in range(30):
        K = int(rng.integers(2, 5))
        s = generate_scenario(RadioConfig(num_cells=K, users_per_cell=2, fading=True), seed=[101, trial])
        r = reduce_scenario(s)
        corner = initial_vertex(r)
        # powers at or near the caps reach the boundary of the realizable set
        u = rng.uniform(size=(4000, K)) ** 0.3
        u[rng.uniform(size=u.shape) < 0.3] = 1.0
        q = u * r.cap_carrier.reshape(-1)
        z = 1.0 + r.gain_active.reshape(-1) * q / (r.scenario.noise_power + q @ r.gain_cross[:, 0, :].T)
        fz = np.log(z).sum(axis=1)
        for _ in range(10):
            # t near the top of the sample, v between a good sample and the corner
            t = float(np.quantile(fz, rng.uniform(0.8, 1.0))) + rng.uniform(0.0, 0.2)
            w = rng.uniform(0.0, 0.5, size=K)
            v = z[int(np.argmax(fz - rng.uniform(0.0, 3.0, size=fz.shape)))] ** (1.0 - w) * corner**w
            out = reduce_children(r, v[None, :], t)
            inside = np.all(z <= v, axis=1) & (fz > t)
            if out.shape[0] == 0:
                dropped += 1
                assert not inside.any()
            else:
                assert np.all(out[0] <= v)
                lowered += bool(np.any(out[0] < v))
                assert np.all(z[inside] <= out[0])
    # both cuts happen on these drops
    assert dropped > 0 and lowered > 0


def test_reduce_leaves_low_and_singular_children_alone(monkeypatch):
    r = reduce_scenario(sym2_scenario())  # box corner (5, 5), pole at SINRs (2, 2)
    t = math.log(15.0)
    kids = np.array([[5.0, 5.0], [5.0, 2.0], [5.0, 4.0]])
    logs = np.log(kids)
    a = np.maximum(np.exp(t - logs.sum(axis=1, keepdims=True) + logs), 1.0)
    # the corner of (5, 5) at t is (3, 3), the pole itself: the verdict is
    # singular; (5, 2) is worth log 10 <= t, left for the prune to drop at
    # its own value; the corner (3.75, 3) of (5, 4) lies past the pole
    assert np.allclose(a[0], [3.0, 3.0], rtol=1e-14)
    singular, negative = power_systems(r, a - 1.0)[1:]
    assert singular == [True, False, False] and negative[2]
    assert np.array_equal(reduce_children(r, kids, t), kids[:2])

    # with every system singular nothing is dropped or lowered
    def all_singular(r, gamma):
        singular, unrealizable, ceiling = _cap_ceilings(r, gamma)
        return np.ones_like(singular), unrealizable, ceiling

    monkeypatch.setattr(P, "_cap_ceilings", all_singular)
    assert np.array_equal(reduce_children(r, kids, t), kids)


# -- end-to-end solve ---------------------------------------------------------


def test_solve_single_cell_closed_form():
    s = k1_scenario(gain=1.0, noise=1.0, cap=2.0)
    res = solve(s, epsilon=0.01)
    assert res.status == "optimal"
    assert res.certified
    assert res.sum_rate_nats == pytest.approx(math.log(3.0), abs=1e-8)
    assert res.sum_rate_bits == pytest.approx(math.log(3.0) / math.log(2.0), abs=1e-8)
    # full power is the optimum, so the starting incumbent closes the gap
    assert res.iterations == 0
    assert res.projections == 0
    assert res.trace == ()
    assert res.upper_bound <= math.log(3.0) + 1e-9
    assert res.allocation.p.sum() == pytest.approx(2.0, rel=1e-8)
    assert res.feasibility.feasible
    assert res.sic_flag is True


def test_solve_symmetric_two_cell_hand_optimum():
    # symmetric instance: both cells at cap is optimal, f = 2 log(7/3)
    s = sym2_scenario(q_cap=2.0)
    res = solve(s, epsilon=1e-3)
    truth = 2.0 * math.log(7.0 / 3.0)
    assert res.certified
    assert truth - 1e-3 - 1e-9 <= res.sum_rate_nats <= truth + 1e-9
    assert res.upper_bound >= truth - 1e-9
    assert res.upper_bound - res.sum_rate_nats <= 1e-3 + 1e-9


def test_solve_sandwiches_grid_oracle():
    # the grid searches each carrier on its own, like the solver's split;
    # test_grid_reference ties that search to the joint one, which never splits
    rng = np.random.default_rng(71)
    cases = [(random_scenario(rng, num_cells=2, num_subcarriers=1, users_per_cell=2), 200) for _ in range(5)]
    for K, L, points in ((2, 2, 40), (2, 3, 200), (3, 2, 60)):
        fading = RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=2, fading=True)
        cases.append((generate_scenario(fading, seed=[71, 0]), points))
    cases.append((random_scenario(rng, num_cells=1, num_subcarriers=3), 100))
    for s, points in cases:
        eps = 0.01
        res = solve(s, epsilon=eps)
        ref = grid_optimum(s, grid_points_per_dim=points)
        assert res.certified
        # the grid point is achievable, so it cannot beat the certificate
        assert ref.value <= res.upper_bound + 1e-9
        # and the incumbent is at most the true optimum, bounded via the grid
        assert res.sum_rate_nats <= ref.value + ref.error_bound + 1e-9
        assert abs(res.sum_rate_nats - ref.value) <= eps + ref.error_bound + 1e-9


def test_certified_gap_exceeds_epsilon_by_round_off_at_most():
    # an emptied group reports the float t = lb + eps / L as its bound, so
    # upper_bound - sum_rate_nats can pass eps by a few ulps; on these
    # drops 206 of the 800 certified results do, by at most 2.1e-15
    for seed in range(200):
        for K in (2, 3):
            s = generate_scenario(RadioConfig(num_cells=K, users_per_cell=2, seed=seed))
            for eps in (1e-3, 1e-2):
                res = solve(s, epsilon=eps)
                assert res.certified
                gap = res.upper_bound - res.sum_rate_nats
                assert gap <= eps + 1e-12 * max(1.0, abs(res.upper_bound)), (seed, K, eps, gap)


def test_solve_certifies_four_carrier_drop_within_budget():
    # solved jointly over all 8 powers this drop ran out of 120 iterations
    s = generate_scenario(RadioConfig(num_cells=2, num_subcarriers=4, users_per_cell=2), seed=[0, 0])
    res = solve(s, epsilon=0.05, max_iterations=120)
    assert res.status == "optimal"
    assert res.certified
    assert res.upper_bound - res.sum_rate_nats <= 0.05 + 1e-9
    assert res.feasibility.feasible


def test_solve_groups_identical_carriers():
    # carriers 0 and 2 carry bitwise equal data, carrier 1 differs
    g = np.zeros((2, 2, 3))
    g[:, :, 0] = g[:, :, 2] = [[2.0, 1.0], [1.0, 2.0]]
    g[:, :, 1] = [[3.0, 0.5], [0.8, 1.5]]
    s = make_scenario(g, noise=1.0, subcarrier_cap=2.0)
    assert _carrier_groups(reduce_scenario(s)) == [[0, 2], [1]]
    res = solve(s, epsilon=1e-3)
    assert res.certified
    p = res.allocation.p.reshape(2, 3)  # one user per cell: (cell, carrier)
    assert np.array_equal(p[:, 0], p[:, 2])
    # each carrier solved alone to 1e-6 brackets its optimum tightly
    alone = sum(solve(make_scenario(g[:, :, [l]], noise=1.0, subcarrier_cap=2.0), epsilon=1e-6).sum_rate_nats
                for l in range(3))
    assert res.sum_rate_nats - 3e-6 <= alone <= res.upper_bound + 1e-9


def test_solve_zero_cap_carrier_terminates():
    s = make_scenario([[[1.0, 1.0]]], noise=1.0, subcarrier_cap=[[2.0, 0.0]])
    res = solve(s, epsilon=0.01)
    assert res.status == "optimal"
    assert res.sum_rate_nats == pytest.approx(math.log(3.0), abs=1e-8)
    assert res.allocation.p[1] == 0.0


def test_solve_gives_a_weak_carrier_its_full_power():
    # the summed-gap stop certified this drop before its weak carrier was
    # ever projected, leaving that carrier silent at 0.724 nats
    s = generate_scenario(RadioConfig(num_cells=1, num_subcarriers=3, users_per_cell=2, fading=True), seed=[1, 5])
    res = solve(s, epsilon=0.05)
    assert res.certified
    assert res.iterations == 0
    # one cell: full power on every carrier is the optimum, 0.7506392 nats
    assert res.sum_rate_nats == pytest.approx(baseline_full_power(s).sum_rate_nats, abs=1e-12)
    assert res.sum_rate_nats >= 0.750639


def test_solve_never_loses_to_full_power():
    cfg = RadioConfig(num_cells=3, num_subcarriers=2, users_per_cell=2, fading=True)
    for i in range(20):
        s = generate_scenario(cfg, seed=[11, i])
        assert solve(s, epsilon=0.1).sum_rate_nats >= baseline_full_power(s).sum_rate_nats - 1e-9


def test_fading_drops_project_in_few_evaluations(monkeypatch):
    # a guard on the line search's step count, which, unlike its time,
    # does not depend on the machine
    counts = []
    project = P.dinkelbach_project

    def counted(*args, **kwargs):
        res = project(*args, **kwargs)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(P, "dinkelbach_project", counted)
    # without the reduce step these drops take hundreds of projections;
    # with it, a handful
    monkeypatch.setattr(P, "reduce_children", lambda r, children, t: children)
    for K in (5, 6):
        for i in range(4):
            s = generate_scenario(RadioConfig(num_cells=K, users_per_cell=2, fading=True), seed=[0, i])
            assert solve(s, epsilon=0.01, max_iterations=120).status == "optimal"
    assert len(counts) > 100
    assert np.mean(counts) <= 6.0


def test_emptied_group_bound_is_its_largest_pruned_value():
    eps = 0.05
    s = generate_scenario(RadioConfig(num_cells=2, num_subcarriers=2, users_per_cell=2, fading=True), seed=[0, 0])
    r = reduce_scenario(s)
    for carriers in _carrier_groups(r):
        g = _CarrierSearch(r.carrier(carriers[0]), carriers, eps / 2)
        for _ in range(100):
            if not g.f.size:
                break
            g.refine()
        assert g.f.size == 0
        assert g.lb <= g.ub == max(g.lb, g.dropped_max) <= g.lb + eps / 2
        # the bound still covers the carrier's own optimum
        assert g.ub >= grid_optimum(_carrier_scenario(s, carriers[0]), grid_points_per_dim=400).value - 1e-9
    res = solve(s, epsilon=eps)
    assert res.certified
    assert res.upper_bound >= grid_optimum(s, grid_points_per_dim=60).value - 1e-9


def test_reduce_step_intervals_intersect_the_unreduced_solver(monkeypatch):
    # the reduce step patched to the identity is the polyblock without it
    drops = [
        generate_scenario(RadioConfig(num_cells=K, users_per_cell=2, fading=True), seed=[3, i])
        for K in (5, 6)
        for i in range(8)
    ]
    reduced = [solve(s, epsilon=0.01) for s in drops]
    again = [solve(s, epsilon=0.01) for s in drops]
    monkeypatch.setattr(P, "reduce_children", lambda r, children, t: children)
    plain = [solve(s, epsilon=0.01) for s in drops]
    for a, b, c in zip(reduced, plain, again):
        assert a.certified and b.certified
        assert max(a.sum_rate_nats, b.sum_rate_nats) <= min(a.upper_bound, b.upper_bound) + 1e-9
        assert (c.iterations, c.sum_rate_nats, c.upper_bound) == (a.iterations, a.sum_rate_nats, a.upper_bound)
        assert np.array_equal(c.allocation.p, a.allocation.p)
    assert sum(a.iterations for a in reduced) < sum(b.iterations for b in plain) / 10


def test_reduce_step_sandwiches_grid_oracle():
    points = {2: 400, 3: 60, 4: 30}  # per axis, by cells
    checks = 0
    for K, L in ((2, 1), (3, 1), (4, 1), (2, 2)):
        for fading in (False, True):
            for i in range(12):
                s = generate_scenario(
                    RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=2, fading=fading), seed=[7, i]
                )
                ref = grid_optimum(s, grid_points_per_dim=points[K])
                for eps in (0.01, 0.1):
                    res = solve(s, epsilon=eps)
                    assert res.certified
                    assert ref.value <= res.upper_bound + 1e-9
                    assert res.sum_rate_nats <= ref.value + ref.error_bound + 1e-9
                    assert res.upper_bound - res.sum_rate_nats <= eps + 1e-9
                    checks += 1
    assert checks == 192


def test_group_bound_covers_the_carrier_optimum_after_every_refine(monkeypatch):
    # a box the reduce step cuts away may hold points worth up to its
    # threshold; the group's bound must never fall below the optimum. On
    # the large-epsilon cases a bound that forgot the thresholds of
    # dropped children falls 0.08-0.3 nats below it once the store
    # empties; one that forgot those of lowered children is caught by the
    # record itself
    cuts = []

    def counted(r, children, t):
        out = reduce_children(r, children, t)
        dropped = out.shape != children.shape
        cuts.append((t, dropped, not dropped and bool(np.any(out != children))))
        return out

    monkeypatch.setattr(P, "reduce_children", counted)
    cases = [
        (3, 1, False, 4, 1e-4, 1.0),
        (3, 1, True, 5, 1e-4, 0.5),
        (3, 1, True, 5, 1e-5, 1.0),
        (2, 1, True, 0, None, 0.01),
        (2, 2, True, 4, None, 0.05),
    ]
    for K, L, fading, seed, cap, eps in cases:
        s = generate_scenario(RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=2, fading=fading), seed=[7, seed])
        if cap is not None:
            s = scenario_with_caps(s, cap)
        r = reduce_scenario(s)
        for carriers in _carrier_groups(r):
            best = grid_optimum(_carrier_scenario(s, carriers[0]), grid_points_per_dim=1500 if K == 2 else 120).value
            g = _CarrierSearch(r.carrier(carriers[0]), carriers, eps / L)
            for _ in range(200):
                if not g.f.size:
                    break
                g.refine()
                t, dropped, lowered = cuts[-1]
                if dropped or lowered:
                    assert g.dropped_max >= t
                assert g.lb <= g.ub
                assert g.ub >= best - 1e-9
            assert g.f.size == 0
    # both kinds of cut happen
    assert any(c[1] for c in cuts) and any(c[2] for c in cuts)


def test_solve_is_deterministic():
    rng = np.random.default_rng(73)
    s = random_scenario(rng, num_cells=2, num_subcarriers=2)
    a = solve(s, epsilon=0.05)
    b = solve(s, epsilon=0.05)
    assert a.iterations == b.iterations
    assert a.projections == b.projections
    assert np.array_equal(a.allocation.p, b.allocation.p)
    assert a.sum_rate_nats == b.sum_rate_nats
    assert a.upper_bound == b.upper_bound


def test_solve_trace_invariants():
    rng = np.random.default_rng(79)
    s = random_scenario(rng, num_cells=3, num_subcarriers=1, users_per_cell=2)
    res = solve(s, epsilon=0.01)
    ub = [row.upper_bound for row in res.trace]
    inc = [row.incumbent for row in res.trace]
    assert all(x >= y - 1e-12 for x, y in zip(ub, inc))
    assert all(ub[i] >= ub[i + 1] - 1e-12 for i in range(len(ub) - 1))
    assert all(inc[i] <= inc[i + 1] + 1e-12 for i in range(len(inc) - 1))
    assert [row.iteration for row in res.trace] == list(range(1, len(res.trace) + 1))
    assert res.trace[-1].incumbent == pytest.approx(res.sum_rate_nats, abs=1e-9)


def test_solve_budget_exceeded_is_reported_not_raised():
    rng = np.random.default_rng(83)
    s = random_scenario(rng, num_cells=3, num_subcarriers=1, users_per_cell=2)
    res = solve(s, epsilon=1e-6, max_iterations=2)
    assert res.status == "budget_exceeded"
    assert not res.certified
    assert res.iterations == 2
    # bounds stay a valid sandwich even without certification
    assert res.upper_bound >= res.sum_rate_nats - 1e-12
    ref = grid_optimum(s, grid_points_per_dim=150)
    assert res.upper_bound >= ref.value - ref.error_bound - 1e-9


def test_solve_vertex_budget():
    rng = np.random.default_rng(89)
    s = random_scenario(rng, num_cells=3, num_subcarriers=1, users_per_cell=2)
    res = solve(s, epsilon=1e-6, max_vertices=2)
    assert res.status == "budget_exceeded"
    assert not res.certified


def test_solve_budgets_must_be_integers():
    # a fractional budget once ran one iteration more, and True ran one
    rng = np.random.default_rng(83)
    s = random_scenario(rng, num_cells=3, num_subcarriers=1, users_per_cell=2)
    for name in ("max_iterations", "max_vertices"):
        for value in (True, 1.5, "2", None):
            with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
                solve(s, epsilon=1e-6, **{name: value})
        with pytest.raises(ValueError, match="must not be negative"):
            solve(s, epsilon=1e-6, **{name: -1})
    res = solve(s, epsilon=1e-6, max_iterations=2.0)
    assert res.status == "budget_exceeded" and res.iterations == 2
    assert res.upper_bound == solve(s, epsilon=1e-6, max_iterations=2).upper_bound


def test_solve_epsilon_validation():
    s = k1_scenario()
    with pytest.raises(ValueError):
        solve(s, epsilon=0.0)
    with pytest.raises(ValueError):
        solve(s, epsilon=-1.0)
    with pytest.raises(ValueError):
        solve(s, epsilon=float("inf"))
    # a bool once solved at epsilon 1 and a string raised TypeError
    for value in (True, "0.1", None, float("nan")):
        with pytest.raises(ScenarioError, match="epsilon must be a finite number"):
            solve(s, epsilon=value)
    assert solve(s, epsilon=1).epsilon == 1.0 and type(solve(s, np.float32(0.5)).epsilon) is float


def test_solve_checks_its_objective_against_the_model(monkeypatch):
    s = sym2_scenario()
    model_rate = P.sum_rate
    monkeypatch.setattr(P, "sum_rate", lambda *args: model_rate(*args) + 1e-3)
    with pytest.raises(RuntimeError, match="disagree"):
        solve(s, epsilon=0.01)
    # the check allows 1e-6 nats
    monkeypatch.setattr(P, "sum_rate", lambda *args: model_rate(*args) + 1e-7)
    assert solve(s, epsilon=0.01).status == "optimal"


def test_solve_result_json_dict():
    res = solve(k1_scenario(), epsilon=0.1)
    doc = res.to_json_dict()
    expected = {
        "algorithm", "a", "p", "z", "active", "sum_rate_nats", "sum_rate_bits",
        "epsilon", "iterations", "projections", "wall_time_s", "upper_bound",
        "certified", "status", "sic_flag", "feasibility", "trace",
    }
    assert set(doc) == expected
    assert doc["algorithm"] == "polyblock"
    assert doc["a"] == [1]
    assert doc["p"] == pytest.approx([2.0], rel=1e-8)
    assert doc["feasibility"]["feasible"] is True
    assert all(len(row) == 3 for row in doc["trace"])


def test_solve_result_z_is_flat_until_written():
    s = random_scenario(np.random.default_rng(4), num_cells=2, num_subcarriers=2, users_per_cell=2)
    r = reduce_scenario(s)
    for res in (solve(s, epsilon=0.1), baseline_full_power(s)):
        assert res.z.shape == (r.dim,)
        assert not res.z.flags.writeable
        doc = res.to_json_dict()
        assert doc["active"] == list(r.active)
        full = np.zeros(s.size)
        full[list(r.active)] = res.z
        assert doc["z"] == full.tolist()


def test_group_sums_add_left_to_right():
    # Python 3.12's compensated sum gives 1.0 here; bounds must not depend on it
    assert _sum([0.1] * 10) == 0.9999999999999999
    assert _sum(x for x in (1.0, 1e100, 1.0, -1e100)) == 0.0
    assert _sum([]) == 0.0


def test_budget_constants():
    assert MAX_ITERATIONS == 100_000
    assert MAX_VERTICES == 1_000_000


def test_write_trace_csv(tmp_path):
    res = solve(sym2_scenario(), epsilon=0.01)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "upper_bound", "incumbent"]
    assert len(rows) == len(res.trace) + 1
    assert float(rows[1][1]) == pytest.approx(res.trace[0].upper_bound, rel=1e-10)


def test_solve_radio_scale_instance_with_tied_ratios():
    # a generated instance whose projections hit the tied-ratio regime,
    # where the plain ratio iteration only converges linearly
    cfg = RadioConfig(seed=1)
    s = scenario_with_caps(generate_scenario(cfg, seed=[1, 2]), 4e-7)
    res = solve(s, epsilon=0.1)
    assert res.status == "optimal"
    assert res.certified
    assert res.upper_bound - res.sum_rate_nats <= 0.1 + 1e-9

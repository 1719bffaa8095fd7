"""Outer approximation loop: vertices, children, pruning, certificates.

Single-cell closed form used throughout: with gain g, noise N and cap P
the best shifted SINR is 1 + g P / N, so the optimal sum rate is
log(1 + g P / N) and the box corner equals the optimum (one projection
must finish the search).
"""

import csv
import math

import numpy as np
import pytest

from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt.oracle import grid_optimum
from nomaopt.polyblock import (
    MAX_ITERATIONS,
    MAX_VERTICES,
    _VertexSet,
    generate_children,
    initial_vertex,
    solve,
    write_trace_csv,
)
from nomaopt.reduction import reduce_scenario

from conftest import k1_scenario, make_scenario, random_scenario, sym2_scenario


# -- initial vertex ----------------------------------------------------------


def test_initial_vertex_single_cell():
    r = reduce_scenario(k1_scenario(gain=1.0, noise=1.0, cap=2.0))
    assert np.array_equal(initial_vertex(r).active_z, [3.0])


def test_initial_vertex_symmetric_two_cell():
    r = reduce_scenario(sym2_scenario(q_cap=2.0))
    assert np.array_equal(initial_vertex(r).active_z, [5.0, 5.0])


def test_initial_vertex_zero_cap_carrier_pins_at_one():
    s = make_scenario([[[1.0, 1.0]]], noise=1.0, subcarrier_cap=[[2.0, 0.0]])
    r = reduce_scenario(s)
    assert np.array_equal(initial_vertex(r).active_z, [3.0, 1.0])


def test_initial_vertex_dominates_every_member():
    rng = np.random.default_rng(61)
    for _ in range(20):
        s = random_scenario(rng, num_cells=2, num_subcarriers=2)
        r = reduce_scenario(s)
        corner = initial_vertex(r).active_z
        q = rng.uniform(0.0, 1.0, size=r.dim) * r.cap_carrier.reshape(-1)
        from nomaopt.reduction import z_from_p

        assert np.all(z_from_p(r, q).active_z <= corner + 1e-12)


# -- children ----------------------------------------------------------------


def test_children_lower_one_coordinate_each():
    kids = generate_children(np.array([3.0, 3.0]), np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(kids, [[2.0, 3.0], [3.0, 1.0]])


def test_children_skip_unpowered_coordinates():
    kids = generate_children(np.array([3.0, 3.0]), np.array([2.0, 1.0]), np.array([0.5, 0.0]))
    assert np.array_equal(kids, [[2.0, 3.0]])
    none = generate_children(np.array([3.0, 3.0]), np.array([2.0, 1.0]), np.zeros(2))
    assert none.shape == (0, 2)


def test_children_are_clamped_to_the_parent():
    # a projection a hair above the parent must not raise the child
    parent = np.array([2.0, 3.0, 4.0])
    proj = np.array([2.0 * (1 + 1e-13), 1.5, 4.5])
    kids = generate_children(parent, proj, np.ones(3))
    assert np.array_equal(kids, [[2.0, 3.0, 4.0], [2.0, 1.5, 4.0], [2.0, 3.0, 4.0]])


def test_children_count_matches_powered_coordinates():
    rng = np.random.default_rng(67)
    parent = 1.0 + rng.uniform(0.5, 3.0, size=6)
    proj = 1.0 + (parent - 1.0) * rng.uniform(0.0, 1.0, size=6)
    powers = rng.uniform(0.0, 1.0, size=6) * (rng.random(6) > 0.3)
    kids = generate_children(parent, proj, powers)
    powered = np.flatnonzero(powers > 0)
    assert kids.shape == (powered.size, 6)
    for child, i in zip(kids, powered):
        expected = parent.copy()
        expected[i] = proj[i]
        assert np.array_equal(child, expected)


# -- pruning -----------------------------------------------------------------
# solve() drops a child that a stored vertex covers, and after each
# iteration every vertex whose objective cannot beat the incumbent by more
# than epsilon.


def _store(rows):
    store = _VertexSet(len(rows[0]))
    for row in rows:
        z = np.array(row, dtype=float)
        store.add(z, float(np.sum(np.log(z))))
    return store


def test_prune_drops_dominated_vertices():
    store = _store([[2.0, 3.0]])
    assert store.covers(np.array([2.0, 2.0]))
    assert not store.covers(np.array([2.0, 3.0 + 1e-12]))
    assert not _VertexSet(2).covers(np.array([1.0, 1.0]))


def test_prune_keeps_incomparable_vertices():
    store = _store([[2.0, 3.0]])
    assert not store.covers(np.array([3.0, 2.0]))


def test_prune_equal_vertex_is_covered():
    # an equal vertex adds no box, so it counts as covered
    store = _store([[2.0, 3.0]])
    assert store.covers(np.array([2.0, 3.0]))


def test_prune_applies_value_threshold():
    # objectives log 6 ~ 1.79, log 4 ~ 1.39, log 9 ~ 2.20
    store = _store([[2.0, 3.0], [2.0, 2.0], [3.0, 3.0]])
    store.prune_value(math.log(4.0))
    assert store.count == 2
    assert {tuple(store.row(i)) for i in range(store.count)} == {(2.0, 3.0), (3.0, 3.0)}
    store.prune_value(math.log(9.0))
    assert store.count == 0


def test_argmax_lex_breaks_ties_by_largest_coordinates():
    # (2, 3) and (3, 2) tie on log 6; the lexicographically larger wins
    store = _store([[2.0, 3.0], [3.0, 2.0], [1.0, 5.0]])
    idx, best = store.argmax_lex()
    assert np.array_equal(store.row(idx), [3.0, 2.0])
    assert best == math.log(2.0) + math.log(3.0)
    store.pop(idx)
    idx, _ = store.argmax_lex()
    assert np.array_equal(store.row(idx), [2.0, 3.0])


# -- end-to-end solve ---------------------------------------------------------


def test_solve_single_cell_closed_form():
    s = k1_scenario(gain=1.0, noise=1.0, cap=2.0)
    res = solve(s, epsilon=0.01)
    assert res.status == "optimal"
    assert res.certified
    assert res.sum_rate_nats == pytest.approx(math.log(3.0), abs=1e-8)
    assert res.sum_rate_bits == pytest.approx(math.log(3.0) / math.log(2.0), abs=1e-8)
    assert res.iterations == 1
    assert res.projections == 1
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
    rng = np.random.default_rng(71)
    for _ in range(5):
        s = random_scenario(rng, num_cells=2, num_subcarriers=1, users_per_cell=2)
        eps = 0.01
        res = solve(s, epsilon=eps)
        ref = grid_optimum(s, grid_points_per_dim=200)
        assert res.certified
        # the grid point is achievable, so it cannot beat the certificate
        assert ref.value <= res.upper_bound + 1e-9
        # and the incumbent is at most the true optimum, bounded via the grid
        assert res.sum_rate_nats <= ref.value + ref.error_bound + 1e-9
        assert abs(res.sum_rate_nats - ref.value) <= eps + ref.error_bound + 1e-9


def test_solve_zero_cap_carrier_terminates():
    s = make_scenario([[[1.0, 1.0]]], noise=1.0, subcarrier_cap=[[2.0, 0.0]])
    res = solve(s, epsilon=0.01)
    assert res.status == "optimal"
    assert res.sum_rate_nats == pytest.approx(math.log(3.0), abs=1e-8)
    assert res.allocation.p[1] == 0.0


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


def test_solve_without_trace():
    s = sym2_scenario()
    res = solve(s, epsilon=0.1, collect_trace=False)
    assert res.trace == ()
    assert res.certified


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


def test_solve_epsilon_validation():
    s = k1_scenario()
    with pytest.raises(ValueError):
        solve(s, epsilon=0.0)
    with pytest.raises(ValueError):
        solve(s, epsilon=-1.0)
    with pytest.raises(ValueError):
        solve(s, epsilon=float("inf"))


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

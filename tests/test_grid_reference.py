"""The grid oracle searches each carrier's powers on a grid of their own,
broadcasting each C-order slab from its 1-D axes. The joint search over
every carrier's axes at once, which gathered every grid point into a row
of a power matrix, is kept here as the reference. The elementwise float
operations are the same in both, and the oracle sums the chosen point's
rate terms in the joint search's order, so value, q, spacing and the
error bound must agree bit for bit; ``evaluated`` counts the per-carrier
grids' points. The error bound is also checked against its closed form
written as a scalar loop over (k, l, j)."""

import math

import numpy as np
import pytest

import nomaopt.oracle as oracle
from nomaopt.oracle import grid_optimum
from nomaopt.reduction import reduce_scenario

from conftest import make_scenario, random_scenario, sym2_scenario

_CHUNK = 1 << 16


def _batch_sum_rate(r, Q):
    """Sum rate of each row of Q (rows are flat reduced power vectors)."""
    K, L = r.gain_active.shape
    N = r.scenario.noise_power
    total = np.zeros(Q.shape[0])
    for i in range(r.dim):
        k, l = divmod(i, L)
        inter = np.zeros(Q.shape[0])
        for j in range(K):
            if j != k:
                inter += r.gain_cross[k, l, j] * Q[:, j * L + l]
        total += np.log1p(r.gain_active[k, l] * Q[:, i] / (inter + N))
    return total


def _reference_grid(s, grid_points_per_dim):
    """Reference: the joint chunked arange -> unravel_index -> stack -> gather search."""
    r = reduce_scenario(s)
    K, L = r.gain_active.shape
    caps = r.cap_carrier.reshape(-1)
    axes = []
    for j in range(r.dim):
        if caps[j] > 0:
            axes.append(np.linspace(0.0, caps[j], grid_points_per_dim))
        else:
            axes.append(np.zeros(1))
    shape = tuple(len(ax) for ax in axes)
    total = int(np.prod(shape))

    best_val = -np.inf
    best_q = np.zeros(r.dim)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        multi = np.unravel_index(idx, shape)
        Q = np.stack([axes[j][multi[j]] for j in range(r.dim)], axis=1)
        vals = _batch_sum_rate(r, Q)
        pos = int(np.argmax(vals))
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_q = Q[pos].copy()

    spacing = np.array(
        [caps[j] / (len(axes[j]) - 1) if len(axes[j]) > 1 else 0.0 for j in range(r.dim)]
    )
    spread = np.einsum("klj,jl->kl", r.gain_cross, spacing.reshape(K, L)) / r.scenario.noise_power
    return best_val, best_q, spacing, float(np.log1p(spread).sum()), _reference_error_bound(r, spacing)


def _reference_error_bound(r, spacing):
    """sum over (k, l) of log1p(sum over j != k of g_klj * spacing_jl / N)."""
    K, L = r.gain_active.shape
    N = r.scenario.noise_power
    bound = 0.0
    for k in range(K):
        for l in range(L):
            spread = 0.0
            for j in range(K):
                if j != k:
                    spread += float(r.gain_cross[k, l, j]) * float(spacing[j * L + l])
            bound += math.log1p(spread / N)
    return bound


def _assert_identical(s, points):
    got = grid_optimum(s, points)
    value, q, spacing, error_bound, closed_form = _reference_grid(s, points)
    assert got.value == value
    assert got.q.dtype == q.dtype and got.q.tobytes() == q.tobytes()
    assert got.spacing.tobytes() == spacing.tobytes()
    assert got.error_bound == error_bound
    assert got.error_bound == pytest.approx(closed_form, rel=1e-12, abs=0.0)
    # sum over carriers of the product of their K axis lengths
    lengths = np.where(reduce_scenario(s).cap_carrier > 0, points, 1)
    assert type(got.evaluated) is int and got.evaluated == int(lengths.prod(axis=0).sum())
    return got


# grid points per axis by K * L: from K * L = 2 on, the joint reference
# walks more than one chunk, and with one carrier so does the oracle
_POINTS = {1: 10_000, 2: 300, 3: 45, 4: 17, 6: 7}
# (2, 3) and (3, 2) pin the per-carrier search to code that never splits
_SHAPES = [(K, L) for K in range(1, 5) for L in range(1, 5) if K * L <= 4] + [(2, 3), (3, 2)]


@pytest.mark.parametrize("K,L", _SHAPES)
def test_grid_matches_chunked_reference(K, L):
    rng = np.random.default_rng(1000 + 10 * K + L)
    for _ in range(3):
        s = random_scenario(rng, num_cells=K, num_subcarriers=L, users_per_cell=2)
        _assert_identical(s, _POINTS[K * L])


@pytest.mark.parametrize("zero", [0, 2])
def test_grid_matches_reference_with_a_zero_cap_axis(zero):
    # a zero cap leaves its axis one point long: carrier 0's grid holds 50
    # points, carrier 1's 50^2
    rng = np.random.default_rng(77 + zero)
    g = 10.0 ** rng.uniform(-1.0, 1.0, size=(2, 4, 2))
    caps = rng.uniform(1.0, 4.0, size=(2, 2))
    caps.reshape(-1)[zero] = 0.0
    got = _assert_identical(make_scenario(g, subcarrier_cap=caps), 50)
    assert got.evaluated == 50 + 50**2
    assert got.q[zero] == 0.0


@pytest.mark.parametrize("points", [11, 300])
def test_grid_tie_keeps_lowest_flat_index(points):
    # (0, cap) and (cap, 0) score exactly log1p(2 cap); at 300 points they
    # sit in the first and the last slab
    got = _assert_identical(sym2_scenario(q_cap=100.0), points)
    assert got.q.tolist() == [0.0, 100.0]


def test_grid_identical_carriers_match_reference():
    rng = np.random.default_rng(5)
    for K, L in ((1, 2), (2, 2), (1, 4)):
        g = np.repeat(10.0 ** rng.uniform(-1.0, 1.0, size=(K, 2 * K, 1)), L, axis=2)
        _assert_identical(make_scenario(g, subcarrier_cap=3.0), _POINTS[K * L])


def test_grid_one_dimension_ten_thousand_points():
    got = _assert_identical(make_scenario([[[0.5]]], noise=2.0, subcarrier_cap=3.0), 10_000)
    assert got.evaluated == 10_000
    assert got.q.tolist() == [3.0]


@pytest.mark.parametrize("shape", [(7,), (3, 5), (1, 4, 3), (4, 1, 6), (2, 3, 1, 2), (1, 1, 9)])
def test_slabs_tile_the_grid_in_c_order(monkeypatch, shape):
    monkeypatch.setattr(oracle, "_CHUNK", 5)
    flat = np.arange(math.prod(shape)).reshape(shape)
    seen = []
    for slices in oracle._slabs(shape):
        part = flat[tuple(slices)]
        assert 0 < part.size <= 5
        seen.extend(part.reshape(-1).tolist())
    assert seen == list(range(flat.size))


def test_small_slabs_match_reference(monkeypatch):
    # many slabs per grid, so ties and maxima cross slab boundaries
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    rng = np.random.default_rng(11)
    for K, L in ((2, 1), (2, 2), (3, 1), (1, 3), (2, 3)):
        _assert_identical(random_scenario(rng, num_cells=K, num_subcarriers=L), 6)
    for points in (5, 12):
        got = _assert_identical(sym2_scenario(q_cap=100.0), points)
        assert got.q.tolist() == [0.0, 100.0]

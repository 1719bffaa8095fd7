"""Independent verification tools: grid search and declared baselines.

The grid optimizer exhaustively evaluates the reduced problem on a
Cartesian power grid and reports a closed-form bound on how far the
continuous optimum can sit above the best grid point, certified by the
monotonicity of each rate term. It exists to sandwich the solver at desk
scale, so it shares no code path with the solver beyond the problem
definition itself. Each carrier's powers are searched on a grid of their
own, in C-order slabs by broadcasting its 1-D axes; ties go to the lowest
flat index.

The two baselines are declared stand-ins for an external reference
heuristic whose algorithm is not public: full power on every carrier, and
cyclic coordinate ascent started from full power. They are labeled as
such in their results and are never presented as reimplementations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import Scenario, _integer, _sum

# unused here: the benchmark tracer patches the model calls under these names
from .model import build_decoding_order, check_feasible, sic_always_feasible, sum_rate  # noqa: F401
from .polyblock import SolveResult
from .reduction import reduce_scenario, sum_rate_from_powers

__all__ = ["GridOptimum", "grid_optimum", "baseline_full_power", "baseline_greedy"]

_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class GridOptimum:
    """Best grid point of the reduced problem plus a certified refinement bound.

    The continuous optimum is at most value + error_bound, up to float
    round-off. Rate term i = (k, l) is log1p(g_ii q_i / D_i(q)), where
    D_i(q) = N + sum_j g_ij q_j sums its same-carrier interferers j; it
    grows with its own power and falls with theirs. So on the grid cell
    [q_lo, q_hi] that holds the optimum,
    f <= sum_i log1p(g_ii q_hi_i / D_i(q_lo))
    <= f(q_hi) + sum_i log(D_i(q_hi) / D_i(q_lo)). Here f(q_hi) <= value,
    as q_hi is a grid point, and each ratio is at most
    1 + sum_j g_ij d_j / N for the per-axis ``spacing`` d, hence
    error_bound = sum_i log1p(sum_j g_ij d_j / N): 0 with one cell or
    zero caps.
    """

    q: np.ndarray
    value: float
    error_bound: float
    spacing: np.ndarray
    evaluated: int


def _slabs(shape: tuple[int, ...]):
    """Per-axis slices cutting the grid into C-order slabs of at most _CHUNK points.

    The cut axis is the first one whose trailing axes hold at most _CHUNK
    points; the axes before it take one index at a time, so an axis of
    length 1 (a zero cap) never lifts the bound.
    """
    a = 0
    while math.prod(shape[a + 1 :]) > _CHUNK:
        a += 1
    rows = _CHUNK // math.prod(shape[a + 1 :])
    tail = [slice(None)] * (len(shape) - a - 1)
    for outer in np.ndindex(*shape[:a]):
        for lo in range(0, shape[a], rows):
            yield [slice(i, i + 1) for i in outer] + [slice(lo, lo + rows)] + tail


def grid_optimum(s: Scenario, grid_points_per_dim: int) -> GridOptimum:
    """Exhaustive search over a per-coordinate power grid, one carrier at a time.

    Only meant for desk-scale instances; the cells are capped at 4, as a
    carrier's grid holds n^K points. Every grid point is within the cell
    caps, since Scenario validation keeps the carrier caps within them.

    Carriers do not interact in the reduced problem, so each carrier's K
    powers are searched on a grid of their own, and ``evaluated`` sums the
    per-carrier grids. A carrier's grid is walked in C-order slabs of at
    most _CHUNK points, each evaluated by broadcasting its 1-D axes. Ties
    go to the lowest flat index: the first maximum within a slab, and a
    later slab only on a strictly greater value; per carrier, that is the
    lowest flat index of the joint grid too. ``value`` sums the chosen
    point's rate terms from 0.0 in flat order, left to right (``_sum``),
    as a joint search would.
    """
    grid_points_per_dim = _integer(grid_points_per_dim, "grid_points_per_dim")
    if grid_points_per_dim < 2:
        raise ValueError("need at least 2 grid points per dimension")
    r = reduce_scenario(s)
    K, L = r.gain_active.shape
    if K > 4:
        raise ValueError(f"grid oracle supports at most 4 cells, got {K}")
    N = r.scenario.noise_power
    caps = r.cap_carrier.reshape(-1)
    axes = [np.linspace(0.0, c, grid_points_per_dim) if c > 0 else np.zeros(1) for c in caps]
    # axis k of a carrier's grid, shaped to broadcast along grid axis k only
    along = [tuple(-1 if a == k else 1 for a in range(K)) for k in range(K)]

    best_q = np.zeros(r.dim)
    # the rate terms at best_q, in flat order k * L + l
    terms = np.zeros(r.dim)
    evaluated = 0
    for l in range(L):
        shape = tuple(len(ax) for ax in axes[l::L])
        evaluated += math.prod(shape)
        best_val = -np.inf
        for slices in _slabs(shape):
            q = [ax[sl].reshape(shp) for ax, sl, shp in zip(axes[l::L], slices, along)]
            rate = []
            for k in range(K):
                inter = 0.0
                for j in range(K):
                    if j != k:
                        inter = inter + r.gain_cross[k, l, j] * q[j]
                rate.append(np.log1p(r.gain_active[k, l] * q[k] / (inter + N)))
            total = sum(rate)
            pos = int(np.argmax(total))
            if total.flat[pos] > best_val:
                best_val = total.flat[pos]
                best_q[l::L] = [np.broadcast_to(x, total.shape).flat[pos] for x in q]
                terms[l::L] = [x.flat[pos] for x in rate]

    spacing = np.array([c / (len(ax) - 1) if len(ax) > 1 else 0.0 for c, ax in zip(caps, axes)])
    # the interference each rate term can gain across one grid cell, over noise
    spread = np.einsum("klj,jl->kl", r.gain_cross, spacing.reshape(K, L)) / N
    return GridOptimum(
        q=best_q,
        value=_sum(terms.tolist()),
        error_bound=float(np.log1p(spread).sum()),
        spacing=spacing,
        evaluated=evaluated,
    )


# the fixed result fields of a declared heuristic
_HEURISTIC = dict(epsilon=None, projections=0, upper_bound=None, certified=False, status="heuristic", trace=())


def baseline_full_power(s: Scenario) -> SolveResult:
    """Declared stand-in baseline: every carrier at its power cap."""
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    q = r.cap_carrier.reshape(-1)
    return SolveResult.from_powers(r, q, t0, algorithm="full-power", iterations=0, **_HEURISTIC)


# greedy's sweep budget, the gain in nats below which a sweep ends it, and
# the golden-section steps of each coordinate's line search
_SWEEPS = 50
_STALL_TOL = 1e-6
_GOLDEN_STEPS = 60


def _golden_max(fun, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of fun on [lo, hi] (unimodality assumed)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def baseline_greedy(s: Scenario) -> SolveResult:
    """Declared stand-in baseline: cyclic coordinate ascent from full power.

    Each coordinate is line-searched by golden section against the
    fixed candidates {0, cap, current}; only improvements are accepted, so
    the objective is non-decreasing by construction. The ascent stops
    after 50 sweeps (``_SWEEPS``) or the first that gains less than 1e-6
    nats (``_STALL_TOL``). A trial point is scored by the expression of
    ``sum_rate_from_powers`` on one preallocated vector, checked once.

    Coordinate ascent can stall at a local optimum: on one two-cell,
    two-carrier fading drop at 1e-4 W it stops after 2 sweeps 0.24 nats
    below the best binary corner (``tests/test_oracle.py``).
    """
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    K, L = r.gain_active.shape
    N = r.scenario.noise_power
    gain = r.gain_active.reshape(-1)
    caps = r.cap_carrier.reshape(-1)
    q = caps.copy()
    f = sum_rate_from_powers(r, q)
    # q with coordinate j replaced by the point being scored
    trial = q.copy()
    grid = trial.reshape(K, L)

    def slice_val(x):
        trial[j] = x
        den = np.einsum("klj,jl->kl", r.gain_cross, grid).reshape(-1) + N
        return float(np.log1p(gain * trial / den).sum())

    used = 0
    for _ in range(_SWEEPS):
        used += 1
        gained = 0.0
        for j in range(r.dim):
            if caps[j] <= 0:
                continue
            gx, gv = _golden_max(slice_val, 0.0, caps[j])
            for cand_x, cand_v in ((gx, gv), (0.0, slice_val(0.0)), (caps[j], slice_val(caps[j]))):
                if cand_v > f:
                    q[j] = cand_x
                    gained += cand_v - f
                    f = cand_v
            trial[j] = q[j]
        if gained < _STALL_TOL:
            break
    return SolveResult.from_powers(r, q, t0, algorithm="greedy", iterations=used, **_HEURISTIC)

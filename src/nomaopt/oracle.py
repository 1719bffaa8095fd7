"""Independent verification tools: grid search and declared baselines.

The grid optimizer exhaustively evaluates the reduced problem on a
Cartesian power grid and reports a numerically estimated Lipschitz bound
on how far the continuous optimum can sit above the best grid point. It
exists to sandwich the solver from below at desk scale, so it shares no
code path with the solver beyond the problem definition itself.

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

from .model import Scenario, build_decoding_order, check_feasible, sic_always_feasible, sum_rate
from .polyblock import SolveResult
from .reduction import (
    ReducedProblem,
    allocation_from_powers,
    reduce_scenario,
    sum_rate_from_powers,
    z_from_p,
)

__all__ = ["GridOptimum", "grid_optimum", "baseline_full_power", "baseline_greedy"]

_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class GridOptimum:
    """Best grid point of the reduced problem plus a refinement bound.

    The continuous optimum is at most value + error_bound, where
    error_bound = lipschitz * covering_radius and lipschitz is the largest
    gradient norm seen at a fixed probe set (an estimate, reported rather
    than assumed).
    """

    q: np.ndarray
    value: float
    error_bound: float
    lipschitz: float
    covering_radius: float
    spacing: np.ndarray
    evaluated: int


def _batch_sum_rate(r: ReducedProblem, Q: np.ndarray) -> np.ndarray:
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


def grid_optimum(s: Scenario, grid_points_per_dim: int) -> GridOptimum:
    """Exhaustive search over a per-coordinate power grid.

    Only meant for desk-scale instances; the dimension (cells times
    sub-carriers) is capped at 4. Every grid point is within the cell
    caps, since Scenario validation keeps the carrier caps within them.
    Ties go to the lowest flat grid index.
    """
    if grid_points_per_dim < 2:
        raise ValueError("need at least 2 grid points per dimension")
    r = reduce_scenario(s)
    if r.dim > 4:
        raise ValueError(f"grid oracle supports at most 4 power coordinates, got {r.dim}")
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
    radius = 0.5 * float(np.sqrt(np.sum(spacing**2)))
    lip = _probe_lipschitz(r, caps, best_q)
    return GridOptimum(
        q=best_q,
        value=best_val,
        error_bound=lip * radius,
        lipschitz=lip,
        covering_radius=radius,
        spacing=spacing,
        evaluated=total,
    )


def _probe_lipschitz(r: ReducedProblem, caps: np.ndarray, best_q: np.ndarray) -> float:
    """Largest finite-difference gradient norm over a fixed probe set.

    The probe set includes the origin, where the noise-limited gradient
    peaks, the best grid point, the full-cap corner and three interior
    scalings of the cap vector.
    """
    probes = [
        np.zeros(r.dim),
        best_q,
        0.25 * caps,
        0.5 * caps,
        0.75 * caps,
        caps.astype(float),
    ]
    worst = 0.0
    for p in probes:
        grad = np.zeros(r.dim)
        for j in range(r.dim):
            if caps[j] <= 0:
                continue
            h = caps[j] * 1e-7
            lo = max(p[j] - h, 0.0)
            hi = min(p[j] + h, caps[j])
            if hi <= lo:
                continue
            plus = p.copy()
            plus[j] = hi
            minus = p.copy()
            minus[j] = lo
            fp = sum_rate_from_powers(r, plus)
            fm = sum_rate_from_powers(r, minus)
            grad[j] = (fp - fm) / (hi - lo)
        worst = max(worst, float(np.linalg.norm(grad)))
    return worst


def _heuristic_result(
    s: Scenario, r: ReducedProblem, q: np.ndarray, algorithm: str, iterations: int, t0: float
) -> SolveResult:
    alloc = allocation_from_powers(r, q)
    order = build_decoding_order(s)
    nats = sum_rate(s, order, alloc)
    return SolveResult(
        algorithm=algorithm,
        allocation=alloc,
        z=z_from_p(r, q),
        sum_rate_nats=nats,
        sum_rate_bits=nats / math.log(2.0),
        epsilon=None,
        iterations=iterations,
        projections=0,
        wall_time_s=time.perf_counter() - t0,
        upper_bound=None,
        certified=False,
        status="heuristic",
        sic_flag=sic_always_feasible(s),
        feasibility=check_feasible(s, alloc),
        trace=(),
    )


def baseline_full_power(s: Scenario) -> SolveResult:
    """Declared stand-in baseline: every carrier at its power cap."""
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    return _heuristic_result(s, r, r.cap_carrier.reshape(-1), "full-power", 0, t0)


def _golden_max(fun, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section maximum of fun on [lo, hi] (unimodality assumed)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def baseline_greedy(s: Scenario, sweeps: int = 50, stall_tol: float = 1e-6) -> SolveResult:
    """Declared stand-in baseline: cyclic coordinate ascent from full power.

    Each coordinate is line-searched by golden section against the
    fixed candidates {0, cap, current}; only improvements are accepted, so
    the objective is non-decreasing by construction.
    """
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    caps = r.cap_carrier.reshape(-1)
    q = caps.copy()
    f = sum_rate_from_powers(r, q)
    used = 0
    for _ in range(sweeps):
        used += 1
        gained = 0.0
        for j in range(r.dim):
            if caps[j] <= 0:
                continue

            def slice_val(x):
                trial = q.copy()
                trial[j] = x
                return sum_rate_from_powers(r, trial)

            gx, gv = _golden_max(slice_val, 0.0, caps[j])
            for cand_x, cand_v in ((gx, gv), (0.0, slice_val(0.0)), (caps[j], slice_val(caps[j]))):
                if cand_v > f:
                    q[j] = cand_x
                    gained += cand_v - f
                    f = cand_v
        if gained < stall_tol:
            break
    return _heuristic_result(s, r, q, "greedy", used, t0)

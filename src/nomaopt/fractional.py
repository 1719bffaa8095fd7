"""Projection of a reduced SINR ray onto the feasible boundary.

Rays, boundary points and powers are flat reduced arrays (length
``ReducedProblem.dim``, indexed by k * L + l), the form the polyblock
loop keeps its vertices in. Along a ray, realizability of lambda * z is
monotone in lambda, and testing it is one power-system solve per carrier
plus a cap check (``reduction.power_systems``, which ``p_from_z`` and
the reduce step read too; the solver projects one carrier's problem at a
time, so there it is one K x K system). The projection is a bracketed
line search on lambda: the powers q(lambda) are a Neumann series in the
SINRs gamma = max(lambda z, 1) - 1 with non-negative coefficients, so
h(lambda) = max_i q_i / cap_i - 1 is convex and nondecreasing up to the
pole, a tangent step from the realizable lower end lands at or past the
boundary and a chord step towards an evaluated upper end lands short of
it. Both ends are certified by evaluations, so the output is realizable
by construction.

The inner max-min LP of the normalized Dinkelbach iteration (Crouzeix,
Ferland and Schaible, JOTA 1985), which this search replaced, stays as
the reference the projection is tested against: fix lambda, maximize the
worst margin (n_i - lambda*z_i*d_i) / (lambda*z_i*d_prev_i) over the
power box. Powers enter it normalized by their per-carrier caps, the
margins are relative, and the epigraph variable is shifted so that every
right-hand side is non-negative and the simplex solver's all-slack start
is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .reduction import (
    ReducedProblem,
    compute_nd,
    p_from_z,  # noqa: F401  (the benchmark tracer patches it under this name)
    power_systems,
)
from .simplex import solve_canonical_max

# MaximinLP, build_maximin_lp and solve_maximin_lp are test-only: the
# projection's reference, and names the benchmark tracer patches
__all__ = ["ProjectionError", "ProjectionResult", "dinkelbach_project"]


class ProjectionError(RuntimeError):
    """The line search did not close its bracket within its budget."""

    def __init__(self, message: str, lambdas=()):
        super().__init__(message)
        self.lambdas = tuple(lambdas)


@dataclass(frozen=True, eq=False)
class MaximinLP:
    """Epigraph LP for max over powers of min_i (n_i - lam z_i d_i) / (lam z_i d_prev_i).

    Canonical-form data (c, A, b) over variables [x_free..., t_shifted]
    where x_j = q_j / cap_j for coordinates with positive cap and
    t_shifted = t - t_floor >= 0. Rows: one margin row per reduced
    coordinate and one unit box row per free coordinate. No cell power
    rows: Scenario validation keeps every cell's carrier caps within its
    cell cap, so the box rows already imply the cell caps. ``dim`` is the
    number of reduced coordinates, the length of the powers it solves for.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    free: tuple[int, ...]
    cap_free: np.ndarray
    t_floor: float
    dim: int


def build_maximin_lp(r: ReducedProblem, lam: float, z, d_prev) -> MaximinLP:
    """Build the relative max-min LP at scale lam, normalized by denominators d_prev."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != r.dim or np.any(z < 1.0):
        raise ValueError("need one z >= 1 per reduced coordinate")
    d_prev = np.asarray(d_prev, dtype=float).reshape(-1)
    if d_prev.shape[0] != r.dim or not np.all(d_prev > 0.0):
        raise ValueError("need one positive previous denominator per reduced coordinate")
    L = r.gain_active.shape[1]
    caps = r.cap_carrier.reshape(-1)
    free = np.flatnonzero(caps > 0.0)
    nf = free.shape[0]

    coef = 1.0 - lam * z
    scale = 1.0 / (lam * z * d_prev)
    # margin_i(q) = g_ii q_i + coef_i (N + sum_j g_ij q_j), over same-carrier j only
    cross = np.einsum("klj,lm->kljm", r.gain_cross, np.eye(L)).reshape(r.dim, r.dim)
    gain = coef[:, None] * cross + np.diag(r.gain_active.reshape(-1))
    rhs = coef * r.scenario.noise_power * scale
    t_floor = float(rhs.min())

    A = np.zeros((r.dim + nf, nf + 1))
    A[: r.dim, :nf] = -gain[:, free] * caps[free] * scale[:, None]
    A[: r.dim, nf] = 1.0
    A[r.dim :, :nf] = np.eye(nf)
    b = np.concatenate([rhs - t_floor, np.ones(nf)])
    c_obj = np.zeros(nf + 1)
    c_obj[nf] = 1.0
    return MaximinLP(
        c=c_obj,
        A=A,
        b=b,
        free=tuple(int(j) for j in free),
        cap_free=caps[free],
        t_floor=t_floor,
        dim=r.dim,
    )


def solve_maximin_lp(lp: MaximinLP) -> tuple[np.ndarray, float]:
    """Maximize the worst normalized margin; returns (reduced powers in watts, margin)."""
    sol = solve_canonical_max(lp.c, lp.A, lp.b)
    q = np.zeros(lp.dim)
    for c, j in enumerate(lp.free):
        q[j] = min(max(sol.x[c], 0.0), 1.0) * lp.cap_free[c]
    t = sol.x[len(lp.free)] + lp.t_floor
    return q, t


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Boundary point max(lambda * z, 1) with the powers that realize it.

    ``z_proj`` is that point as a flat reduced array. ``lam`` is the
    largest scale the line search certified realizable and ``lam_upper``
    the smallest it certified unrealizable, or ``lam`` itself when a cap
    binds exactly at ``lam`` or ``lam`` reaches the interference-free
    bound; the boundary lies in [lam, lam_upper] and
    lam_upper <= lam * (1 + 1e-9). ``powers`` realize ``z_proj`` within
    the carrier caps and ``lambdas`` are the accepted lower ends, strictly
    increasing. ``iterations`` counts power-system evaluations; the name
    is kept from the LP iteration this search replaced.
    """

    z_proj: np.ndarray
    lam: float
    lam_upper: float
    powers: np.ndarray
    lambdas: tuple[float, ...]
    iterations: int


_LAM_RTOL = 1e-9
_Q_ATOL = 1e-12  # watts
# power-system evaluations one projection may take before ProjectionError
_MAX_EVALUATIONS = 200
# tangent-and-chord pairs in a row that fail to halve the bracket before a
# bisection; at a kink of h, where a cell switches on, they can crawl
_STALLED_PAIRS = 3


class _Point(NamedTuple):
    """One evaluated scale lam, the point max(lam * z, 1) of the ray z.
    ``q`` is None past the pole (no non-negative powers) and
    ``h`` = max_i q_i / cap_i - 1 over positive caps. At a realizable
    point ``tangent`` is the smallest scale at which the tangent of some
    q_i reaches its cap, and ``step`` the smallest move worth trying: half
    the change of lambda that moves lambda by 1e-9 relative or a power by
    1e-12 W, and at least one float."""

    lam: float
    q: np.ndarray | None
    h: float
    ok: bool
    tangent: float = math.inf
    step: float = 0.0


def _evaluate(r: ReducedProblem, zc: list, caps: list, limit: list, lam: float) -> _Point:
    """Solve for the powers of max(lam * zc, 1) and test them against the
    flat carrier caps; ``limit`` is caps with inf for zero caps, the divisor of h.

    The ray, the caps and the per-entry work are Python floats, which run
    each entry's IEEE operation as numpy would without its per-call cost;
    the power systems and the product with their inverses stay in numpy.
    With A q = gamma N / g, the derivative is dq/dlam = A^-1 diag(zc / gamma) q
    (zero where gamma = 0, the left derivative at a kink).
    """
    gamma = [max(lam * c, 1.0) - 1.0 for c in zc]
    K, L = r.gain_active.shape
    # the solver projects one carrier at a time: one row, no (K, L) transposes
    one = L == 1
    x, singular, negative = power_systems(r, np.array([gamma]) if one else np.array(gamma).reshape(K, L).T)
    if any(singular) or any(negative):
        return _Point(lam, None, math.nan, False)
    q = x[0, :, 0] if one else x[:, :, 0].T.reshape(-1)
    qs = q.tolist()
    if min(qs) < 0.0:
        q = np.maximum(q, 0.0)  # round-off below zero, within the verdict's room
        qs = q.tolist()
    h = max([a / b for a, b in zip(qs, limit)]) - 1.0
    if any([a > c for a, c in zip(qs, caps)]):
        return _Point(lam, q, h, False)
    rate = np.array([c * a / g if g > 0.0 else 0.0 for c, a, g in zip(zc, qs, gamma)])
    if one:
        dq = (x[0, :, 1:] @ rate).tolist()
    else:
        dq = np.matmul(x[:, :, 1:], rate.reshape(K, L).T[:, :, None])[:, :, 0].T.reshape(-1).tolist()
    reach = min([(c - a) / d for c, a, d in zip(caps, qs, dq) if d > 0.0], default=math.inf)
    step = 0.5 * min(_LAM_RTOL * lam, _Q_ATOL / max(max(dq), 1e-300))
    return _Point(lam, q, h, True, lam + reach, max(step, math.ulp(lam)))


def _trial(lo: _Point, up: _Point | None, hi: float, step: str) -> float | None:
    """Next scale to evaluate inside (lo, hi), or None when no float is left.

    A "tangent" step goes from lo (at or past the boundary, as each q_i is
    convex) and a "chord" step on h between lo and an evaluated upper end
    (short of it, h being convex). Either is kept ``lo.step`` away from
    both ends, so once either end sits on the boundary the next point
    closes the bracket. The search tries the analytic bound hi itself
    while no upper end has been evaluated, and otherwise bisects when
    asked to, when the step leaves the bracket, when rounding puts it on
    an end, or when the upper end lies past the pole.
    """
    if step == "tangent":
        t = lo.tangent
    elif step == "chord" and up is not None and up.q is not None and up.h > lo.h:
        t = lo.lam + (hi - lo.lam) * -lo.h / (up.h - lo.h)
    else:
        t = math.nan
    d = lo.step
    if t <= hi and hi - lo.lam > 2.0 * d:
        t = min(max(t, lo.lam + d), hi - d)
        if lo.lam < t < hi:
            return t
    if up is None:
        return hi
    t = lo.lam + 0.5 * (hi - lo.lam)
    return t if lo.lam < t < hi else None


def _closed(lo: _Point, up: _Point | None) -> bool:
    """The bracket fixes lambda to 1e-9 relative and the powers to 1e-12 W."""
    return (
        up is not None
        and up.q is not None
        and up.lam - lo.lam <= _LAM_RTOL * lo.lam
        and float((up.q - lo.q).max()) <= _Q_ATOL
    )


def dinkelbach_project(r: ReducedProblem, z, start=None) -> ProjectionResult:
    """Scale the flat reduced ray z onto the boundary of the realizable set.

    z needs one finite entry >= 1 per reduced coordinate. Returns the
    scaled point (entries floored at 1, since a ray scale below a
    coordinate's zero-power value 1 just means that coordinate gets no
    power), the final scale lambda, and the powers realizing the output.
    The name is kept for the public API; the method is a bracketed line
    search on lambda.

    The bracket starts at lo = min_i ratio_i / z_i at the start powers
    (q = 0 when start is None), realizable because the start is, and at
    the interference-free bound hi = min_i (1 + g_ii cap_i / N) / z_i; with
    every cap zero hi equals lo, and the one evaluation at lo ends the
    search. Each step evaluates one scale (see ``_trial``) and moves lo
    when it is realizable, the upper end otherwise. Steps alternate
    tangent and chord; after ``_STALLED_PAIRS`` pairs in a row that each
    leave more than half the bracket, and after every further such pair,
    one bisection follows. The search stops when
    a cap binds exactly at lo, when lo reaches the bound, when the bracket
    fixes lambda to 1e-9 relative and the powers to 1e-12 W, or when no
    float is left inside it, and raises ProjectionError when
    ``_MAX_EVALUATIONS`` evaluations do not get there. Start powers must
    lie within the carrier caps, which is what makes them realizable; a
    start near the boundary (say the projection of a vertex dominating z)
    only saves evaluations.
    """
    zc = np.asarray(z, dtype=float).reshape(-1)
    # NaN fails both comparisons
    if zc.shape[0] != r.dim or not (zc.min() >= 1.0 and zc.max() < math.inf):
        raise ValueError(f"need {r.dim} finite ray entries >= 1")
    caps = r.cap_carrier.reshape(-1)
    q = np.zeros(r.dim)
    if start is not None:
        q = np.asarray(start, dtype=float).reshape(-1)
        if q.shape[0] != r.dim or not (q.min() >= 0.0 and (q <= caps).all()):
            raise ValueError("start powers must lie within the carrier caps")
    ratios = compute_nd(r, q)[2]
    zc, caps = zc.tolist(), caps.tolist()
    limit = [c if c > 0.0 else math.inf for c in caps]
    hi = min([v / c for v, c in zip(r._corner, zc)])
    lo = _evaluate(r, zc, caps, limit, min([a / c for a, c in zip(ratios.tolist(), zc)]))
    up = None
    evaluations = 1
    if not lo.ok:
        # round-off at a start on the boundary; with every gamma = 0 silence is realizable
        up, hi = lo, lo.lam
        lo = _evaluate(r, zc, caps, limit, 1.0 / max(zc))
        evaluations += 1
    lambdas = [lo.lam]
    step, width, stalls = "tangent", hi - lo.lam, 0
    while not (lo.h == 0.0 or lo.lam >= hi or _closed(lo, up)):
        t = _trial(lo, up, hi, step)
        if t is None:
            break
        if evaluations >= _MAX_EVALUATIONS:
            raise ProjectionError(
                f"no convergence in {_MAX_EVALUATIONS} evaluations (bracket [{lo.lam!r}, {hi!r}])",
                lambdas,
            )
        pt = _evaluate(r, zc, caps, limit, t)
        evaluations += 1
        if pt.ok:
            lo = pt
            lambdas.append(pt.lam)
        else:
            up, hi = pt, pt.lam
        if step == "chord":
            stalls = stalls + 1 if hi - lo.lam > 0.5 * width else 0
        if step == "tangent":
            step = "chord"
        else:
            step = "bisect" if step == "chord" and stalls >= _STALLED_PAIRS else "tangent"
            width = hi - lo.lam

    exact = lo.h == 0.0 or lo.lam >= hi
    return ProjectionResult(
        z_proj=np.array([max(lo.lam * c, 1.0) for c in zc]),
        lam=lo.lam,
        lam_upper=lo.lam if exact else up.lam,
        powers=lo.q,
        lambdas=tuple(lambdas),
        iterations=evaluations,
    )

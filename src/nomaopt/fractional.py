"""Projection of a SINR vector onto the feasible boundary along its ray.

The largest lambda with lambda*z still realizable is the optimum of a
max-min problem over power ratios, found by the normalized Dinkelbach
iteration of Crouzeix, Ferland and Schaible (JOTA 1985): fix lambda,
maximize the worst margin (n_i - lambda*z_i*d_i) / (lambda*z_i*d_prev_i)
over the power box, where d_prev are the denominators at the current
powers, take the maximizer's smallest ratio n_i/(z_i*d_i) as the next
lambda, repeat. Dividing each margin by its previous denominator keeps
the step fast when several ratios tie at the boundary, which slows the
plain update down to linear convergence. Each inner maximization is
affine in the powers, so it is solved exactly as a linear program in
epigraph form, and its value certifies how far the boundary can still be.

Scaling notes: powers enter the LP normalized by their per-carrier caps,
and the margins are relative (at the current powers margin i is
ratio_i / (lambda*z_i) - 1), so the simplex tolerance bounds the relative
error of lambda whatever its size. The epigraph variable is shifted to
make every right-hand side non-negative, so the simplex solver's
all-slack start is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reduction import ReducedProblem, SinrVector, p_from_z
from .simplex import solve_canonical_max

__all__ = [
    "FractionalState",
    "MaximinLP",
    "ProjectionError",
    "ProjectionResult",
    "compute_nd",
    "build_maximin_lp",
    "solve_maximin_lp",
    "dinkelbach_project",
]


class ProjectionError(RuntimeError):
    """The Dinkelbach iteration did not certify the boundary within its budget."""

    def __init__(self, message: str, lambdas=()):
        super().__init__(message)
        self.lambdas = tuple(lambdas)


@dataclass(frozen=True, eq=False)
class FractionalState:
    """Snapshot of one Dinkelbach step.

    q are reduced powers in watts; n and d the per-entry numerators and
    denominators in watts (n = serving power term + interference + noise,
    d = interference + noise); ratios = n/d = 1 + SINR.
    """

    q: np.ndarray
    n: np.ndarray
    d: np.ndarray
    ratios: np.ndarray
    lam: float


@dataclass(frozen=True, eq=False)
class MaximinLP:
    """Epigraph LP for max over powers of min_i (n_i - lam z_i d_i) / (lam z_i d_prev_i).

    Canonical-form data (c, A, b) over variables [x_free..., t_shifted]
    where x_j = q_j / cap_j for coordinates with positive cap and
    t_shifted = t - t_floor >= 0. Rows: one margin row per reduced
    coordinate and one unit box row per free coordinate. No cell power
    rows: Scenario validation keeps every cell's carrier caps within its
    cell cap, so the box rows already imply the cell caps.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    free: tuple[int, ...]
    cap_free: np.ndarray
    t_floor: float
    lam: float
    z: np.ndarray


def compute_nd(r: ReducedProblem, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerators, denominators and ratios n/d at reduced powers q (watts)."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != r.dim:
        raise ValueError(f"expected {r.dim} reduced powers, got {q.shape[0]}")
    K, L = r.gain_active.shape
    inter = np.einsum("klj,jl->kl", r.gain_cross, q.reshape(K, L)).reshape(-1)
    d = inter + r.scenario.noise_power
    n = r.gain_active.reshape(-1) * q + d
    return n, d, n / d


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
        lam=lam,
        z=z.copy(),
    )


def solve_maximin_lp(lp: MaximinLP, dim: int | None = None) -> tuple[np.ndarray, float]:
    """Maximize the worst normalized margin; returns (reduced powers in watts, margin)."""
    sol = solve_canonical_max(lp.c, lp.A, lp.b)
    if dim is None:
        dim = int(lp.z.shape[0])
    q = np.zeros(dim)
    for c, j in enumerate(lp.free):
        q[j] = min(max(sol.x[c], 0.0), 1.0) * lp.cap_free[c]
    t = sol.x[len(lp.free)] + lp.t_floor
    return q, t


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Boundary point lambda * z with the powers that realize it.

    ``powers`` realizes ``z_proj`` (it is p_from_z of the output, clamped
    to the carrier caps against round-off on ill-conditioned carriers);
    ``state`` holds the last accepted inner maximizer, whose ratios
    dominate the output componentwise. ``iterations`` counts inner LP
    solves.
    """

    z_proj: SinrVector
    lam: float
    powers: np.ndarray
    lambdas: tuple[float, ...]
    iterations: int
    state: FractionalState


_LAM_RTOL = 1e-9


def dinkelbach_project(
    r: ReducedProblem,
    sv: SinrVector,
    max_outer: int = 200,
    start=None,
) -> ProjectionResult:
    """Scale sv onto the boundary of the realizable set along its ray.

    Returns the scaled vector (entries floored at 1, since a ray scale
    below a coordinate's zero-power value 1 just means that coordinate
    gets no power), the final scale lambda, and the powers realizing the
    output. Every candidate scale is taken from achieved power ratios, so
    the output is realizable by construction rather than by tolerance.

    Normalized Dinkelbach iteration: from q = start (q = 0 when start is
    None), each step maximizes the worst margin (n_i - lam z_i d_i) /
    (lam z_i d_prev_i), with d_prev the denominators at the current
    powers, and keeps the maximizer when its scale min_i ratio_i / z_i
    exceeds lam. At the boundary powers every such margin is at least
    (lam* - lam) / lam * noise / d_prev_i, so the maximum margin t
    certifies lam* <= lam + lam * max(t, 0) * max(d_prev) / noise. The
    loop stops once that certified gap is at most 1e-9 * max(1, lam), and
    raises ProjectionError when max_outer solves do not get there. Start
    powers must lie within the carrier caps: then they are realizable, so
    the first lam, min_i ratio_i / z_i at start, is at most the boundary
    scale, and as the certificate holds for any d_prev, a start near the
    boundary (say the projection of a vertex dominating sv) only saves
    solves.
    """
    zc = r.active_values(sv)
    q = np.zeros(r.dim)
    if np.all(zc <= 1.0 + 1e-15):
        n, d, ratios = compute_nd(r, q)
        state = FractionalState(q=q, n=n, d=d, ratios=ratios, lam=1.0)
        return ProjectionResult(
            z_proj=r.vector(np.ones(r.dim)),
            lam=1.0,
            powers=q,
            lambdas=(1.0,),
            iterations=0,
            state=state,
        )

    if start is not None:
        q = np.asarray(start, dtype=float).reshape(-1)
        if q.shape[0] != r.dim or not np.all((q >= 0.0) & (q <= r.cap_carrier.reshape(-1))):
            raise ValueError("start powers must lie within the carrier caps")
    n, d, ratios = compute_nd(r, q)
    N = r.scenario.noise_power
    state = FractionalState(q=q, n=n, d=d, ratios=ratios, lam=float(np.min(ratios / zc)))
    lambdas = [state.lam]
    for solves in range(1, max_outer + 1):
        lam = state.lam
        q, t = solve_maximin_lp(build_maximin_lp(r, lam, zc, state.d))
        gap = lam * max(t, 0.0) * float(np.max(state.d)) / N
        n, d, ratios = compute_nd(r, q)
        lam_q = float(np.min(ratios / zc))
        if lam_q > lam:
            state = FractionalState(q=q, n=n, d=d, ratios=ratios, lam=lam_q)
            lambdas.append(lam_q)
        if gap <= _LAM_RTOL * max(1.0, lam):
            break
    else:
        raise ProjectionError(
            f"no convergence in {max_outer} inner solves (certified gap {gap:.3g})",
            lambdas,
        )

    z_proj = r.vector(np.maximum(state.lam * zc, 1.0))
    powers = np.minimum(p_from_z(r, z_proj), r.cap_carrier.reshape(-1))
    return ProjectionResult(
        z_proj=z_proj,
        lam=state.lam,
        powers=powers,
        lambdas=tuple(lambdas),
        iterations=solves,
        state=state,
    )

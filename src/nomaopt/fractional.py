"""Projection of a SINR vector onto the feasible boundary along its ray.

The largest lambda with lambda*z still realizable is the optimum of a
max-min problem over power ratios, found by Dinkelbach iteration: fix
lambda, maximize the worst margin n_i - lambda*d_i*z_i over the power
polytope, refresh lambda from the achieved ratios, repeat. Each inner
maximization is affine in the powers, so it is solved exactly as a linear
program in epigraph form.

Scaling notes: powers enter the LP normalized by their per-carrier caps
and the epigraph variable is expressed in units of the noise power and
shifted to make every right-hand side non-negative, so the simplex solver
sees O(1)-to-O(z) coefficients instead of raw watt-scale values, and its
all-slack start is feasible. Convergence is likewise judged on the
noise-normalized margin.
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
    """The Dinkelbach iteration failed to converge or lost monotonicity."""

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
    """Epigraph LP for max over powers of min_i (n_i - lam * d_i * z_i).

    Canonical-form data (c, A, b) over variables [x_free..., t_shifted]
    where x_j = q_j / cap_j for coordinates with positive cap and
    t_shifted = t / noise - t_floor >= 0. Rows: one margin row per reduced
    coordinate and one unit box row per free coordinate. No cell power
    rows: Scenario validation keeps every cell's carrier caps within its
    cell cap, so the box rows already imply the cell caps.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    free: tuple[int, ...]
    cap_free: np.ndarray
    noise: float
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


def build_maximin_lp(r: ReducedProblem, lam: float, z) -> MaximinLP:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != r.dim or np.any(z < 1.0):
        raise ValueError("need one z >= 1 per reduced coordinate")
    K, L = r.gain_active.shape
    N = r.scenario.noise_power
    caps = r.cap_carrier.reshape(-1)
    free = tuple(int(j) for j in np.flatnonzero(caps > 0.0))
    nf = len(free)
    col_of = {j: c for c, j in enumerate(free)}

    coef = 1.0 - lam * z
    t_floor = float(coef.min())

    rows = []
    rhs = []
    for i in range(r.dim):
        k, l = divmod(i, L)
        row = np.zeros(nf + 1)
        row[nf] = 1.0
        if i in col_of:
            row[col_of[i]] -= r.gain_active[k, l] * caps[i] / N
        for j in range(K):
            jj = j * L + l
            if j != k and jj in col_of:
                row[col_of[jj]] -= coef[i] * r.gain_cross[k, l, j] * caps[jj] / N
        rows.append(row)
        rhs.append(coef[i] - t_floor)
    for c in range(nf):
        row = np.zeros(nf + 1)
        row[c] = 1.0
        rows.append(row)
        rhs.append(1.0)

    c_obj = np.zeros(nf + 1)
    c_obj[nf] = 1.0
    return MaximinLP(
        c=c_obj,
        A=np.array(rows),
        b=np.array(rhs),
        free=free,
        cap_free=caps[list(free)].copy(),
        noise=N,
        t_floor=t_floor,
        lam=lam,
        z=z.copy(),
    )


def solve_maximin_lp(lp: MaximinLP, dim: int | None = None) -> tuple[np.ndarray, float]:
    """Maximize the worst margin; returns (reduced powers in watts, margin in watts)."""
    sol = solve_canonical_max(lp.c, lp.A, lp.b)
    if dim is None:
        dim = int(lp.z.shape[0])
    q = np.zeros(dim)
    for c, j in enumerate(lp.free):
        q[j] = min(max(sol.x[c], 0.0), 1.0) * lp.cap_free[c]
    t = (sol.x[len(lp.free)] + lp.t_floor) * lp.noise
    return q, t


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Boundary point lambda * z with the powers that realize it.

    ``powers`` realizes ``z_proj`` exactly (it is p_from_z of the output);
    ``state`` holds the last inner maximizer, whose ratios dominate the
    output componentwise. ``iterations`` counts inner LP solves.
    """

    z_proj: SinrVector
    lam: float
    powers: np.ndarray
    lambdas: tuple[float, ...]
    iterations: int
    state: FractionalState


_MARGIN_TOL = 1e-8
_LAM_RTOL = 1e-9
_LAM_STALL = 1e-12


def dinkelbach_project(
    r: ReducedProblem,
    sv: SinrVector,
    max_outer: int = 200,
) -> ProjectionResult:
    """Scale sv onto the boundary of the realizable set along its ray.

    Returns the scaled vector (entries floored at 1, since a ray scale
    below a coordinate's zero-power value 1 just means that coordinate
    gets no power), the final scale lambda, and the powers realizing the
    output. Every candidate scale is taken from achieved power ratios, so
    the output is realizable by construction rather than by tolerance.

    Stopping: the inner maximum margin t certifies the remaining scale
    gap, since the boundary scale exceeds the current one by at most
    t / (noise * min z). The loop stops when t is at most _MARGIN_TOL in
    noise units, when that certified gap is below 1e-9 relative, or when the
    scale stalls at machine precision. The plain ratio update converges
    only linearly when several ratios tie at the boundary, so when its
    increments decay geometrically the loop extrapolates past the limit
    and switches to bisection on the bracketed scale.
    """
    zc = r.active_values(sv)
    N = r.scenario.noise_power
    if np.all(zc <= 1.0 + 1e-15):
        q0 = np.zeros(r.dim)
        n, d, ratios = compute_nd(r, q0)
        state = FractionalState(q=q0, n=n, d=d, ratios=ratios, lam=1.0)
        return ProjectionResult(
            z_proj=r.vector(np.ones(r.dim)),
            lam=1.0,
            powers=q0,
            lambdas=(1.0,),
            iterations=0,
            state=state,
        )

    # Interference-free per-coordinate ceiling bounds the boundary scale.
    ceil = 1.0 + r.gain_active * r.cap_carrier / N
    lam_cap = float(np.min(ceil.reshape(-1) / zc))
    min_z = float(np.min(zc))

    lam_lo = float(np.min(1.0 / zc))
    lam_hi = None
    lambdas = [lam_lo]
    recent = [lam_lo]
    best = None
    done = False
    solves = 0
    while solves < max_outer and not done:
        if lam_hi is not None:
            lam_eval = 0.5 * (lam_lo + lam_hi)
            probing = False
        else:
            lam_eval = lam_lo
            probing = False
            if len(recent) >= 3:
                inc1 = recent[-2] - recent[-3]
                inc2 = recent[-1] - recent[-2]
                if inc1 > 0 and inc2 > 0 and 0.2 * inc1 < inc2 < inc1:
                    rho = inc2 / inc1
                    guess = lam_lo + 2.0 * inc2 * rho / (1.0 - rho)
                    guess = min(guess, lam_cap)
                    if guess > lam_lo * (1.0 + 1e-15):
                        lam_eval = guess
                        probing = True

        q, t = solve_maximin_lp(build_maximin_lp(r, lam_eval, zc))
        solves += 1
        n, d, ratios = compute_nd(r, q)
        lam_q = float(np.min(ratios / zc))
        if not probing and lam_hi is None and t >= 0.0 and lam_q < lam_lo * (1.0 - 1e-9) - 1e-15:
            raise ProjectionError(
                f"lambda sequence decreased from {lam_lo!r} to {lam_q!r}", lambdas
            )

        if lam_q > lam_lo:
            lam_lo = lam_q
            best = FractionalState(q=q, n=n, d=d, ratios=ratios, lam=lam_lo)
            lambdas.append(lam_lo)
        if t < 0.0:
            lam_hi = lam_eval if lam_hi is None else min(lam_hi, lam_eval)
            recent = []
        elif probing:
            recent = []
        else:
            recent.append(lam_lo)

        scale = max(1.0, lam_lo)
        if t >= 0.0 and (t <= _MARGIN_TOL * N or t <= _LAM_RTOL * scale * N * min_z):
            done = True
        elif lam_hi is not None and lam_hi - lam_lo <= _LAM_RTOL * scale:
            done = True
        elif len(recent) >= 2 and recent[-1] - recent[-2] <= _LAM_STALL * scale:
            done = True
    if not done:
        raise ProjectionError(
            f"no convergence in {max_outer} inner solves (margin still above tolerance)",
            lambdas,
        )

    if best is None:
        # First solve already certified lam_lo; realize it explicitly.
        q0 = np.zeros(r.dim)
        n, d, ratios = compute_nd(r, q0)
        best = FractionalState(q=q0, n=n, d=d, ratios=ratios, lam=lam_lo)
    lam = lam_lo
    z_proj = r.vector(np.maximum(lam * zc, 1.0))
    powers = p_from_z(r, z_proj)
    return ProjectionResult(
        z_proj=z_proj,
        lam=lam,
        powers=powers,
        lambdas=tuple(lambdas),
        iterations=solves,
        state=best,
    )

"""Monotone reformulation of the joint allocation problem.

Serving the highest-gain user of each (cell, sub-carrier) pair with all of
that pair's power is sum-rate optimal under uniform weights, which removes
the binary assignment variables and the intra-cell interference terms.
What remains is a continuous problem over one power q per (cell,
sub-carrier) whose objective depends on the powers only through the
per-pair values z = 1 + SINR. This module builds that reduced problem and
provides the z <-> q conversions, the objective and the feasible-set
membership test the solver is written against.

Reduced vectors (powers q, shifted SINRs z) are flat arrays of length
num_cells * num_subcarriers indexed by k * L + l.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Allocation, Scenario

__all__ = [
    "SinrVector",
    "SinrVectorError",
    "ReducedProblem",
    "UnsupportedWeightsError",
    "InconsistentSinrError",
    "reduce_scenario",
    "z_from_p",
    "p_from_z",
    "solve_power_system",
    "objective",
    "membership",
    "sum_rate_from_powers",
    "allocation_from_powers",
]

# snap tolerance for active z entries a hair below their lower bound of 1
_Z_SNAP = 1e-9


class SinrVectorError(ValueError):
    """SINR vector data violates a structural invariant."""


class UnsupportedWeightsError(ValueError):
    """The reduction is only valid for uniform unit rate weights."""


class InconsistentSinrError(ValueError):
    """No non-negative power vector realizes the requested SINR vector.

    ``reason`` is "singular" when the per-carrier linear system has no
    unique solution and "negative" when the unique solution needs a
    negative power.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # the default rebuilds the error as cls(*self.args), which lacks reason
        return type(self), (self.args[0], self.reason)


@dataclass(frozen=True, eq=False)
class SinrVector:
    """Shifted-SINR vector in canonical order.

    ``z[i] = 1 + SINR`` on active entries (so z >= 1 always, with z = 1
    meaning zero power) and exactly 0 on inactive entries. Active entries
    within ``_Z_SNAP`` below 1 are snapped to 1; further below is an error.
    """

    z: np.ndarray
    active: tuple[int, ...]

    def __post_init__(self):
        z = np.array(self.z, dtype=float, copy=True)
        if z.ndim != 1:
            raise SinrVectorError("z must be a 1-D vector")
        active = tuple(int(i) for i in self.active)
        if sorted(set(active)) != list(active):
            raise SinrVectorError("active indices must be sorted and unique")
        if active and not (0 <= active[0] and active[-1] < z.shape[0]):
            raise SinrVectorError("active index out of range")
        mask = np.zeros(z.shape[0], dtype=bool)
        mask[list(active)] = True
        if np.any(z[~mask] != 0.0):
            raise SinrVectorError("inactive entries must be exactly 0")
        zact = z[mask]
        if not np.all(np.isfinite(zact)):
            raise SinrVectorError("active entries must be finite")
        if np.any(zact < 1.0 - _Z_SNAP):
            raise SinrVectorError(f"active entries must be >= 1, worst {zact.min()!r}")
        z[mask] = np.maximum(zact, 1.0)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "_active_z", z[mask].copy())

    @property
    def active_z(self) -> np.ndarray:
        """Values of the active entries, in ascending canonical order."""
        return self._active_z


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """The continuous problem left after fixing the sub-carrier assignment.

    ``best_user[k, l]`` is the served (local) user of cell k on carrier l,
    ``active`` the canonical indices of those entries in scenario order,
    ``gain_active[k, l]`` the serving gain and ``gain_cross[k, l, j]`` the
    gain from interfering BS j to that user (0 at j = k) and
    ``cap_carrier[k, l]`` the power cap. Cell caps are left out: Scenario
    validation keeps each cell's carrier caps within its cell cap, so they
    never bind. Flat reduced vectors are indexed by k * L + l.
    """

    scenario: Scenario
    best_user: np.ndarray
    active: tuple[int, ...]
    gain_active: np.ndarray
    gain_cross: np.ndarray
    cap_carrier: np.ndarray

    @property
    def dim(self) -> int:
        return self.gain_active.size

    @cached_property
    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        """Constants of ``solve_power_system``: per carrier, the row scale
        1 / g_kk (L, K) and the cross gains g_kj / g_kk (L, K, K)."""
        scale = 1.0 / self.gain_active.T
        cross = np.ascontiguousarray(np.transpose(self.gain_cross, (1, 0, 2))) * scale[:, :, None]
        return scale, cross

    def vector(self, values) -> SinrVector:
        """Wrap flat reduced values (length K*L) as a full SinrVector."""
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.shape[0] != self.dim:
            raise SinrVectorError(f"expected {self.dim} reduced entries, got {values.shape[0]}")
        z = np.zeros(self.scenario.size)
        z[list(self.active)] = values
        return SinrVector(z=z, active=self.active)

    def active_values(self, sv: SinrVector) -> np.ndarray:
        """Flat reduced values (length K*L) of a SinrVector of this problem."""
        if sv.active != self.active or sv.z.shape[0] != self.scenario.size:
            raise SinrVectorError("SINR vector does not belong to this reduced problem")
        return sv.active_z.copy()


def reduce_scenario(s: Scenario) -> ReducedProblem:
    """Fix the assignment to the best-gain user per (cell, sub-carrier).

    Ties go to the lowest user index. Only uniform unit weights are
    supported; the all-power-to-the-best-user argument does not cover
    weighted objectives.
    """
    if np.any(s.weights != 1.0):
        raise UnsupportedWeightsError("the reduction requires all rate weights equal to 1")
    K, L = s.num_cells, s.num_subcarriers
    best = np.zeros((K, L), dtype=np.int64)
    g_act = np.zeros((K, L))
    g_cross = np.zeros((K, L, K))
    active = []
    for k in range(K):
        off = s.global_user(k, 0)
        own = s.gains[k, off : off + s.users_per_cell[k], :]
        for l in range(L):
            u = int(np.argmax(own[:, l]))
            best[k, l] = u
            g_act[k, l] = own[u, l]
            gu = s.global_user(k, u)
            for j in range(K):
                if j != k:
                    g_cross[k, l, j] = s.gains[j, gu, l]
            active.append(s.flat_index(k, l, u))
    best.setflags(write=False)
    g_act.setflags(write=False)
    g_cross.setflags(write=False)
    order = np.argsort(active)
    if not np.all(order == np.arange(len(active))):
        # canonical order is cell-major then carrier, same as our fill order
        raise AssertionError("active indices not in canonical order")
    return ReducedProblem(
        scenario=s,
        best_user=best,
        active=tuple(active),
        gain_active=g_act,
        gain_cross=g_cross,
        cap_carrier=s.subcarrier_cap,
    )


def _interference(r: ReducedProblem, q: np.ndarray) -> np.ndarray:
    """Inter-cell interference power at each served user, flat (K*L,)."""
    K, L = r.gain_active.shape
    qm = q.reshape(K, L)
    inter = np.einsum("klj,jl->kl", r.gain_cross, qm)
    return inter.reshape(-1)


def _as_powers(r: ReducedProblem, q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != r.dim:
        raise ValueError(f"expected {r.dim} reduced powers, got {q.shape[0]}")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("powers must be finite and non-negative")
    return q


def z_from_p(r: ReducedProblem, q) -> SinrVector:
    """Shifted SINRs achieved by reduced powers q (flat, watts)."""
    q = _as_powers(r, q)
    den = _interference(r, q) + r.scenario.noise_power
    values = 1.0 + r.gain_active.reshape(-1) * q / den
    return r.vector(values)


def p_from_z(r: ReducedProblem, sv: SinrVector) -> np.ndarray:
    """Unique reduced powers realizing the shifted SINRs, flat (K*L,) watts.

    Entries with z = 1 take zero power; the rest is ``solve_power_system``
    at SINRs z - 1, which raises InconsistentSinrError("singular") or
    InconsistentSinrError("negative") when no such powers exist.
    """
    return solve_power_system(r, r.active_values(sv) - 1.0)[0]


def solve_power_system(r: ReducedProblem, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Powers giving each reduced entry SINR gamma, with each carrier's inverse.

    Cell k on carrier l needs g_kk q_k = gamma_k (N + sum_j g_kj q_j) over
    the other cells j on l. Dividing each row by its serving gain (Scenario
    validation keeps gains positive) gives one system per carrier,
    A_l q_l = gamma_l N / g_l with A_l = I - diag(gamma_l / g_l) G_l,
    which all carriers solve in one batched call. Entries with gamma = 0
    take zero power: their rows are unit rows and their columns are
    dropped, since a silent cell interferes with nobody.

    Returns the flat powers (K*L,) and A^-1 stacked per carrier (L, K, K).
    1 / (A^-1)_kk is the pivot that eliminating every other cell leaves on
    cell k, whatever units the powers are in; one below 1e-12 of the unit
    diagonal raises InconsistentSinrError("singular"). A power below
    -1e-12 W raises InconsistentSinrError("negative"); powers in
    [-1e-12, 0) are clamped to 0.
    """
    K, L = r.gain_active.shape
    scale, cross = r._system
    gam = np.asarray(gamma, dtype=float).reshape(K, L).T
    on = gam > 0.0
    A = gam[:, :, None] * -cross * on[:, None, :]
    diag = np.arange(K)
    A[:, diag, diag] = 1.0
    rhs = np.zeros((L, K, K + 1))
    rhs[:, :, 0] = gam * scale * r.scenario.noise_power
    # the inverse's columns start one right: flat positions k (K + 2) + 1
    # address its diagonal (rhs is C-contiguous, so this writes through)
    rhs.reshape(L, K * (K + 1))[:, 1 :: K + 2] = 1.0
    x = _solve_carriers(A, rhs)
    growth = np.abs(x.reshape(L, K * (K + 1))[:, 1 :: K + 2])
    if not growth.max() <= 1e12:
        l = int(np.flatnonzero(~np.all(growth <= 1e12, axis=1))[0])
        raise InconsistentSinrError(
            f"singular SINR system on carrier {l} (pivot {1.0 / growth[l].max():.3g})",
            reason="singular",
        )
    q = x[:, :, 0].T.reshape(-1)
    low = int(np.argmin(q))
    if q[low] < 0.0:
        if q[low] < -1e-12:
            raise InconsistentSinrError(
                f"SINR vector needs negative power {q[low]:.6g} W in cell {low // L} on carrier {low % L}",
                reason="negative",
            )
        q = np.maximum(q, 0.0)
    return q, x[:, :, 1:]


def _solve_carriers(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve; an exactly singular carrier gets NaN instead of raising."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for l in range(A.shape[0]):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[l] = np.linalg.solve(A[l], rhs[l])
        return out


def objective(sv: SinrVector, weights=None) -> float:
    """Monotone objective: sum of w_i * log z_i over active entries, nats.

    Inactive entries contribute nothing. With the default unit weights this
    equals the sum rate of the corresponding allocation.
    """
    zact = sv.active_z
    if np.any(zact < 1.0):
        raise ValueError("active entries must be >= 1")
    logs = np.log(zact)
    if weights is None:
        return float(np.sum(logs))
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != zact.shape[0]:
        raise ValueError("need one weight per active entry")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    return float(w @ logs)


def membership(r: ReducedProblem, sv: SinrVector, tol: float = 1e-9) -> bool:
    """True when sv is realizable within the power caps.

    Realizable means p_from_z succeeds and the powers respect the
    per-carrier caps, with relative slack tol for round-off. Scenario
    validation keeps the carrier caps within each cell cap, so the cell
    caps hold as well.
    """
    try:
        q = p_from_z(r, sv)
    except InconsistentSinrError:
        return False
    slack = tol * r.scenario.noise_power
    qm = q.reshape(r.gain_active.shape)
    return not np.any(qm > r.cap_carrier * (1.0 + tol) + slack)


def sum_rate_from_powers(r: ReducedProblem, q) -> float:
    """Sum rate in nats achieved by reduced powers q, computed directly."""
    q = _as_powers(r, q)
    den = _interference(r, q) + r.scenario.noise_power
    return float(np.sum(np.log1p(r.gain_active.reshape(-1) * q / den)))


def allocation_from_powers(r: ReducedProblem, q) -> Allocation:
    """Full-length Allocation serving the chosen user per (cell, carrier)."""
    q = _as_powers(r, q)
    a = np.zeros(r.scenario.size, dtype=np.int64)
    p = np.zeros(r.scenario.size)
    idx = list(r.active)
    a[idx] = 1
    p[idx] = q
    return Allocation(a=a, p=p)

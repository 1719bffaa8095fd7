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

from dataclasses import dataclass

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

    Entries with z = 1 take zero power; the remaining cells of each
    sub-carrier are coupled only through each other's interference, giving
    one dense linear system per carrier, solved by Gaussian elimination
    with partial pivoting. Each row is divided by its serving gain, so the
    diagonal is 1 however far the gains spread. A pivot below 1e-12 of the
    scaled system's largest coefficient raises
    InconsistentSinrError("singular"); a solution entry below -1e-12 W
    raises InconsistentSinrError("negative") and entries in [-1e-12, 0)
    are clamped to 0.
    """
    zc = r.active_values(sv)
    K, L = r.gain_active.shape
    N = r.scenario.noise_power
    q = np.zeros(r.dim)
    for l in range(L):
        cells = [k for k in range(K) if zc[k * L + l] > 1.0]
        if not cells:
            continue
        m = len(cells)
        A = np.zeros((m, m))
        b = np.zeros(m)
        for a, k in enumerate(cells):
            g = r.gain_active[k, l] or 1.0  # a row without serving gain stays unscaled
            gamma = zc[k * L + l] - 1.0
            A[a, a] = r.gain_active[k, l] / g
            for c, j in enumerate(cells):
                if j != k:
                    A[a, c] = -gamma * r.gain_cross[k, l, j] / g
            b[a] = gamma * N / g
        x = _solve_dense(A, b, carrier=l)
        for a, k in enumerate(cells):
            v = x[a]
            if v < -1e-12:
                raise InconsistentSinrError(
                    f"SINR vector needs negative power {v:.6g} W in cell {k} on carrier {l}",
                    reason="negative",
                )
            q[k * L + l] = max(v, 0.0)
    return q


def _solve_dense(A: np.ndarray, b: np.ndarray, carrier: int) -> np.ndarray:
    """Gaussian elimination with partial pivoting and a relative pivot floor."""
    A = A.copy()
    b = b.copy()
    m = A.shape[0]
    scale = np.max(np.abs(A))
    tol = 1e-12 * max(scale, np.finfo(float).tiny)
    for col in range(m):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) <= tol:
            raise InconsistentSinrError(
                f"singular SINR system on carrier {carrier} (pivot {A[piv, col]:.3g})",
                reason="singular",
            )
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, m):
            f = A[row, col] / A[col, col]
            if f != 0.0:
                A[row, col:] -= f * A[col, col:]
                b[row] -= f * b[col]
    x = np.zeros(m)
    for row in range(m - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


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

"""Monotone reformulation of the joint allocation problem.

Serving the highest-gain user of each (cell, sub-carrier) pair with all of
that pair's power is sum-rate optimal under uniform weights, which removes
the binary assignment variables and the intra-cell interference terms.
What remains is a continuous problem over one power q per (cell,
sub-carrier) whose objective depends on the powers only through the
per-pair values z = 1 + SINR. This module builds that reduced problem and
its carriers' parts, the z <-> q conversions, the power systems that every
solver step solves, and the objective and membership test that checks read.

Reduced vectors (powers q, shifted SINRs z) are flat arrays of length
num_cells * num_subcarriers indexed by k * L + l, the only form of z.
Functions taking z check it where it arrives: one finite entry >= 1 per
coordinate, entries within 1e-9 below 1 (zero-power round-off) read as 1.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Allocation, Scenario, _memo

__all__ = [
    "ReducedProblem",
    "UnsupportedWeightsError",
    "InconsistentSinrError",
    "reduce_scenario",
    "compute_nd",
    "z_from_p",
    "initial_vertex",
    "p_from_z",
    "power_systems",
    "objective",
    "membership",
    "sum_rate_from_powers",
    "allocation_from_powers",
]

# snap tolerance for z entries a hair below their lower bound of 1
_Z_SNAP = 1e-9
# relative round-off slack on the carrier caps (``_over_cap``)
_CAP_RTOL = 1e-9
# float64 machine epsilon, the round-off unit of the error bounds in
# ``power_systems`` and ``polyblock.reduce_children``
_EPS = float(np.finfo(float).eps)


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
        """Constants of ``power_systems``: per carrier, the row scale
        1 / g_kk (L, K) and the negated cross gains -g_kj / g_kk (L, K, K)."""
        scale = 1.0 / self.gain_active.T
        cross = np.ascontiguousarray(np.transpose(self.gain_cross, (1, 0, 2))) * scale[:, :, None]
        return scale, -cross

    @cached_property
    def _corner(self) -> list[float]:
        """``initial_vertex`` as Python floats, the line search's upper bound."""
        return initial_vertex(self).tolist()

    def carrier(self, l: int) -> ReducedProblem:
        """Reduced problem of carrier l alone (the problem itself when it
        has one): the arrays sliced to l, contiguous and read-only, with
        this scenario and the canonical indices of l's served entries. Its
        cached constants, elementwise in the data, equal this problem's
        sliced to l, bit for bit."""
        L = self.gain_active.shape[1]
        if L == 1:
            return self
        names = ("best_user", "gain_active", "gain_cross", "cap_carrier")
        parts = {n: np.ascontiguousarray(getattr(self, n)[:, l : l + 1]) for n in names}
        for a in parts.values():
            a.setflags(write=False)
        return ReducedProblem(scenario=self.scenario, active=self.active[l::L], **parts)


def reduce_scenario(s: Scenario) -> ReducedProblem:
    """Fix the assignment to the best-gain user per (cell, sub-carrier).

    Ties go to the lowest user index. Only uniform unit weights are
    supported; the all-power-to-the-best-user argument does not cover
    weighted objectives, and every call checks them. The problem itself is
    computed once per Scenario (see ``model._memo``).
    """
    if (s.weights != 1.0).any():
        raise UnsupportedWeightsError("the reduction requires all rate weights equal to 1")
    return _memo(s, "_reduced", _reduce_scenario)


def _reduce_scenario(s: Scenario) -> ReducedProblem:
    K, L = s.num_cells, s.num_subcarriers
    M = s.users_per_cell
    first = [s.global_user(k, 0) for k in range(K)]
    # argmax returns the first maximum: ties go to the lowest user index
    best = np.array(
        [s.gains[k, f : f + m].argmax(axis=0) for k, f, m in zip(range(K), first, M)], dtype=np.int64
    )
    # gathered[j, k, l]: gain from BS j to the user cell k serves on carrier l
    gathered = s.gains[:, np.array(first)[:, None] + best, np.arange(L)]
    cells = np.arange(K)
    g_act = gathered[cells, cells]
    g_cross = gathered.transpose(1, 2, 0).copy()
    g_cross[cells, :, cells] = 0.0
    starts = np.array([s.flat_index(k, 0, 0) for k in range(K)])
    # ascending, as the flat reduced vectors are: cell blocks start in cell
    # order, and M_k * l + best < M_k * L stays inside cell k's block
    active = (starts[:, None] + np.array(M)[:, None] * np.arange(L) + best).reshape(-1)
    best.setflags(write=False)
    g_act.setflags(write=False)
    g_cross.setflags(write=False)
    return ReducedProblem(
        scenario=s,
        best_user=best,
        active=tuple(active.tolist()),
        gain_active=g_act,
        gain_cross=g_cross,
        cap_carrier=s.subcarrier_cap,
    )


def _as_powers(r: ReducedProblem, q) -> np.ndarray:
    """Checked flat reduced powers: ``r.dim`` finite non-negative entries.
    Public functions check their powers here once; the solver's own arrays
    go to the unchecked helpers (``_nd``, ``_allocation``)."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != r.dim:
        raise ValueError(f"expected {r.dim} reduced powers, got {q.shape[0]}")
    # NaN fails both comparisons; r.dim >= 1, so q is not empty
    if not (q.min() >= 0.0 and q.max() < math.inf):
        raise ValueError("powers must be finite and non-negative")
    return q


def _as_sinrs(z, dim: int | None = None) -> np.ndarray:
    """Checked flat shifted SINRs: ``dim`` entries when given, all finite
    and >= 1, those within ``_Z_SNAP`` below 1 snapped to 1."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if dim is not None and z.shape[0] != dim:
        raise ValueError(f"expected {dim} shifted SINRs, got {z.shape[0]}")
    if not np.isfinite(z).all():
        raise ValueError("shifted SINRs must be finite")
    if (z < 1.0 - _Z_SNAP).any():
        raise ValueError(f"shifted SINRs must be >= 1, worst {z.min()!r}")
    return np.maximum(z, 1.0)


def compute_nd(r: ReducedProblem, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerators, denominators and ratios n/d at reduced powers q (flat, watts).

    d = inter-cell interference + noise and n = serving power term + d, per
    entry, so ratios = n / d = 1 + SINR, the only evaluation of it.
    """
    return _nd(r, _as_powers(r, q))


def _nd(r: ReducedProblem, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``compute_nd`` at flat powers q already checked (``_as_powers``)."""
    K, L = r.gain_active.shape
    d = np.einsum("klj,jl->kl", r.gain_cross, q.reshape(K, L)).reshape(-1) + r.scenario.noise_power
    n = r.gain_active.reshape(-1) * q + d
    return n, d, n / d


def z_from_p(r: ReducedProblem, q) -> np.ndarray:
    """Shifted SINRs achieved by reduced powers q (flat, watts), flat (K*L,):
    the ratios of ``compute_nd``."""
    return compute_nd(r, q)[2]


def initial_vertex(r: ReducedProblem) -> np.ndarray:
    """Box corner ignoring interference, as a flat reduced array.

    Every realizable point is dominated by it: no coordinate can beat the
    interference-free SINR of its own carrier cap (Scenario validation
    keeps the carrier caps within the cell cap), so a zero-cap carrier
    starts (and stays) at 1.
    """
    return (1.0 + r.gain_active * r.cap_carrier / r.scenario.noise_power).reshape(-1)


def p_from_z(r: ReducedProblem, z) -> np.ndarray:
    """Unique reduced powers realizing the flat shifted SINRs z, flat (K*L,) watts.

    z is checked as the module docstring says. Each carrier is one of
    ``power_systems`` at SINRs z - 1, so entries with z = 1 take zero
    power, and powers below zero by round-off are clamped to 0. The first
    singular carrier raises InconsistentSinrError("singular"); failing
    that, a carrier past the pole raises InconsistentSinrError("negative").
    """
    K, L = r.gain_active.shape
    x, singular, negative = power_systems(r, (_as_sinrs(z, r.dim) - 1.0).reshape(K, L).T)
    if any(singular):
        l = singular.index(True)
        pivot = 1.0 / np.abs(np.diagonal(x[l, :, 1:])).max()
        raise InconsistentSinrError(
            f"singular SINR system on carrier {l} (pivot {pivot:.3g})", reason="singular"
        )
    q = x[:, :, 0].T.reshape(-1)
    low = int(np.argmin(q))
    if any(negative):
        raise InconsistentSinrError(
            f"SINR vector needs negative power {q[low]:.6g} W in cell {low // L} on carrier {low % L}",
            reason="negative",
        )
    return np.maximum(q, 0.0) if q[low] < 0.0 else q


def power_systems(r: ReducedProblem, gamma: np.ndarray) -> tuple[np.ndarray, list[bool], list[bool]]:
    """Solve a batch of power systems in one call, with verdicts per system.

    Row b of gamma (B, K) asks cell k for SINR gamma[b, k] on carrier b,
    or on the one carrier of r for every row when r has one: the rows are
    a vector's carriers in ``p_from_z`` and a multi-carrier projection,
    the corners of a vertex's children in the reduce step, and in the
    solver's line search, which takes one carrier at a time, a single
    row. Cell k on carrier l needs g_kk q_k = gamma_k (N + sum_j g_kj q_j) over the other
    cells j on l. Dividing each row by its serving gain (Scenario
    validation keeps gains positive) gives A q = gamma N / g with
    A = I - diag(gamma / g) G, which every row solves in one batched call.
    Entries with gamma = 0 take zero power: their rows are unit rows and
    their columns are dropped, since a silent cell interferes with nobody.

    Returns each row's unclamped powers and inverse side by side,
    x[b] = [q | A^-1] (B, K, K + 1), and two verdict lists of B bools.
    ``singular`` marks rows where some 1 / (A^-1)_kk, the pivot that
    eliminating every other cell leaves on cell k whatever units the
    powers are in, is below 1e-12 of the unit diagonal: their powers mean
    nothing. ``negative`` marks rows past the pole, where no q >= 0 solves
    A q = b = gamma N / g (before it q = b + B b + ... >= 0, A = I - B,
    B >= 0): some power lies below zero by more than the bound
    |A^-1| (|b - A q| + 4 (K + 2) eps (|A| |q| + b)) on its round-off. The
    test is free of units, and a tiny power that cancels to just below
    zero stays within the bound; callers clamp it to 0.
    """
    B, K = gamma.shape
    scale, neg_cross = r._system
    # out= keeps A C-contiguous whatever gamma's layout, so the strided
    # diagonal write below lands in A itself
    A = np.multiply(gamma[:, :, None], neg_cross, out=np.empty((B, K, K)))
    # drop silent cells' columns; with every SINR positive (NaN is not) there are none
    if not gamma.min() > 0.0:
        A *= gamma[:, None, :] > 0.0
    # flat positions k (K + 1) address the diagonal
    A.reshape(B, K * K)[:, :: K + 1] = 1.0
    rhs = np.zeros((B, K, K + 1))
    rhs[:, :, 0] = gamma * scale * r.scenario.noise_power
    # the inverse's columns start one right: flat positions k (K + 2) + 1
    # address its diagonal (rhs is C-contiguous, so this writes through)
    rhs.reshape(B, K * (K + 1))[:, 1 :: K + 2] = 1.0
    x = _solve_batch(A, rhs)
    # a flat row of x holds q_k at k (K + 1) and (A^-1)_kk at k (K + 2) + 1.
    # NaN (an exactly singular system) fails the range test, so its row is
    # singular, and the NaN test keeps it from being negative
    rows = x.reshape(B, K * (K + 1))
    singular = [not all([-1e12 <= v <= 1e12 for v in d]) for d in rows[:, 1 :: K + 2].tolist()]
    negative = [min(q) < 0.0 and not any([v != v for v in q]) for q in rows[:, :: K + 1].tolist()]
    if any(negative):
        b, q, inv = rhs[:, :, :1], x[:, :, :1], x[:, :, 1:]
        slack = 4.0 * (K + 2) * _EPS * (np.abs(A) @ np.abs(q) + b)
        negative = (q < -(np.abs(inv) @ (np.abs(b - A @ q) + slack))).any(axis=(1, 2)).tolist()
    return x, singular, negative


def _solve_batch(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve; an exactly singular system gets NaN instead of raising."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for l in range(A.shape[0]):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[l] = np.linalg.solve(A[l], rhs[l])
        return out


def objective(z, weights=None) -> float:
    """Monotone objective: sum of w_i * log z_i over flat shifted SINRs z, nats.

    z is checked as in ``p_from_z``, against the length of weights when
    given. With the default unit weights this equals the sum rate of the
    powers realizing z.
    """
    if weights is None:
        return float(np.sum(np.log(_as_sinrs(z))))
    w = np.asarray(weights, dtype=float).reshape(-1)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    return float(w @ np.log(_as_sinrs(z, w.shape[0])))


def _over_cap(r: ReducedProblem, q: np.ndarray) -> np.ndarray:
    """Where the flat reduced powers q (rows of K*L, or of K when r has one
    carrier) exceed their carrier caps beyond relative slack ``_CAP_RTOL``,
    and ``_CAP_RTOL`` times the noise power for zero caps."""
    return q > r.cap_carrier.reshape(-1) * (1.0 + _CAP_RTOL) + _CAP_RTOL * r.scenario.noise_power


def _cap_ceilings(r: ReducedProblem, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduce step's question on rows of corner SINRs gamma (B, K), r
    with one carrier: ``power_systems`` solves each for the least powers q
    its corner needs. Returns the singular rows, the unrealizable ones
    (past the pole, or over a cap beyond ``_over_cap``'s slack) and each
    row's ceilings 1 + g_ii cap_i (1 + ``_CAP_RTOL``) / (N + sum_j g_ij
    max(q_j, 0)), which no realizable point above the corner exceeds."""
    x, singular, negative = power_systems(r, gamma)
    q = x[:, :, 0]
    over = _over_cap(r, q).any(axis=1)
    scale, neg_cross = r._system
    # minus the product with the negated gains is plus the product with the gains, bit for bit
    bound = np.maximum(q, 0.0) @ neg_cross[0].T
    np.subtract(scale * r.scenario.noise_power, bound, out=bound)
    np.divide(r.cap_carrier.reshape(-1), bound, out=bound)
    bound *= 1.0 + _CAP_RTOL
    bound += 1.0
    return np.array(singular, dtype=bool), np.array(negative, dtype=bool) | over, bound


def membership(r: ReducedProblem, z) -> bool:
    """True when the flat shifted SINRs z are realizable within the power caps.

    z is checked as in ``p_from_z``. Realizable means p_from_z succeeds
    and no power exceeds its carrier cap beyond the round-off slack of
    ``_over_cap``. Scenario validation keeps the carrier caps within each
    cell cap, so the cell caps hold as well.
    """
    try:
        q = p_from_z(r, z)
    except InconsistentSinrError:
        return False
    return not np.any(_over_cap(r, q))


def sum_rate_from_powers(r: ReducedProblem, q) -> float:
    """Sum rate in nats achieved by reduced powers q, computed directly."""
    q = _as_powers(r, q)
    d = _nd(r, q)[1]
    return float(np.log1p(r.gain_active.reshape(-1) * q / d).sum())


def allocation_from_powers(r: ReducedProblem, q) -> Allocation:
    """Full-length Allocation serving the chosen user per (cell, carrier)."""
    return _allocation(r, _as_powers(r, q))


def _allocation(r: ReducedProblem, q: np.ndarray) -> Allocation:
    """``allocation_from_powers`` at flat powers q already checked: 0/1
    assignments and finite non-negative powers, zero where unassigned."""
    a = np.zeros(r.scenario.size, dtype=np.int64)
    p = np.zeros(r.scenario.size)
    idx = list(r.active)
    a[idx] = 1
    p[idx] = q
    return Allocation._unchecked(a, p)

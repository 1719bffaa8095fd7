"""Multi-cell multi-carrier downlink NOMA system model.

Problem instances, canonical vector indexing, SINR and sum-rate
evaluation, SIC decoding order handling and allocation feasibility
checking.

Unit conventions used across the package: channel gains are linear power
gains (never dB), powers and noise are watts, rates are nats. Rates in
bits are always derived by dividing by ln(2) at reporting time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LN2",
    "Scenario",
    "ScenarioError",
    "Allocation",
    "AllocationError",
    "DecodingOrder",
    "Violation",
    "FeasibilityReport",
    "build_decoding_order",
    "sinr",
    "sum_rate",
    "sic_pair_margin",
    "sic_always_feasible",
    "check_feasible",
]

LN2 = math.log(2.0)

_SCENARIO_KEYS = {
    "num_cells",
    "num_subcarriers",
    "users_per_cell",
    "sic_limit",
    "gains",
    "noise_power",
    "subcarrier_cap",
    "cell_cap",
    "weights",
    "meta",
}


class ScenarioError(ValueError):
    """Scenario data violates a structural invariant."""


class AllocationError(ValueError):
    """Allocation vectors are structurally malformed."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """Static problem instance for K cells sharing L sub-carriers.

    ``gains[k, u, l]`` is the linear power gain between base station ``k``
    and user ``u`` on sub-carrier ``l``. The user axis is global: users are
    assigned to cells in index order, so the first ``users_per_cell[0]``
    users belong to cell 0 and so on. Cross entries (BS j, user served by
    cell k != j) carry the inter-cell interference gains.

    ``subcarrier_cap[k, l]`` bounds the power BS k may spend on carrier l,
    ``cell_cap[k]`` bounds its total power; validation requires the
    per-carrier caps of a cell to sum to at most the cell cap, and the
    per-cell total is additionally checked against ``cell_cap`` whenever an
    allocation is verified. ``weights`` holds one non-negative rate weight
    per user (global order). Instances are immutable; ``meta`` is free-form
    provenance and must be treated as read-only.
    """

    num_cells: int
    num_subcarriers: int
    users_per_cell: tuple[int, ...]
    sic_limit: int
    gains: np.ndarray
    noise_power: float
    subcarrier_cap: np.ndarray
    cell_cap: np.ndarray
    weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        K = int(self.num_cells)
        L = int(self.num_subcarriers)
        if K < 1 or L < 1:
            raise ScenarioError("need at least one cell and one sub-carrier")
        try:
            users = tuple(int(m) for m in self.users_per_cell)
        except TypeError:
            raise ScenarioError("users_per_cell must be a sequence of integers") from None
        if len(users) != K or any(m < 1 for m in users):
            raise ScenarioError("users_per_cell must list one positive count per cell")
        sic = int(self.sic_limit)
        if sic < 1:
            raise ScenarioError("sic_limit must be a positive integer")
        U = sum(users)
        gains = np.array(self.gains, dtype=float, copy=True)
        if gains.shape != (K, U, L):
            raise ScenarioError(
                f"gains must have shape (cells, total users, sub-carriers) = {(K, U, L)}, got {gains.shape}"
            )
        if not np.all(np.isfinite(gains)) or np.any(gains <= 0.0):
            raise ScenarioError("gains must be strictly positive and finite")
        noise = float(self.noise_power)
        if not math.isfinite(noise) or noise <= 0.0:
            raise ScenarioError("noise_power must be positive and finite")
        sc_cap = np.array(self.subcarrier_cap, dtype=float, copy=True)
        if sc_cap.shape != (K, L) or not np.all(np.isfinite(sc_cap)) or np.any(sc_cap < 0):
            raise ScenarioError("subcarrier_cap must be a (K, L) array of non-negative watts")
        cell_cap = np.array(self.cell_cap, dtype=float, copy=True)
        if cell_cap.shape != (K,) or not np.all(np.isfinite(cell_cap)) or np.any(cell_cap < 0):
            raise ScenarioError("cell_cap must be a (K,) array of non-negative watts")
        sums = sc_cap.sum(axis=1)
        over = sums > cell_cap * (1.0 + 1e-12)
        if np.any(over):
            k = int(np.argmax(over))
            raise ScenarioError(
                f"sub-carrier caps of cell {k} sum to {sums[k]:.6g} W, above its cell cap {cell_cap[k]:.6g} W"
            )
        w = self.weights
        if w is None:
            w = np.ones(U)
        else:
            if isinstance(w, (list, tuple)) and len(w) == K and isinstance(w[0], (list, tuple)):
                w = [x for cell in w for x in cell]
            w = np.array(w, dtype=float, copy=True)
        if w.shape != (U,) or not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ScenarioError("weights must be one finite non-negative value per user")

        gains.setflags(write=False)
        sc_cap.setflags(write=False)
        cell_cap.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "num_cells", K)
        object.__setattr__(self, "num_subcarriers", L)
        object.__setattr__(self, "users_per_cell", users)
        object.__setattr__(self, "sic_limit", sic)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "noise_power", noise)
        object.__setattr__(self, "subcarrier_cap", sc_cap)
        object.__setattr__(self, "cell_cap", cell_cap)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "meta", dict(self.meta))
        object.__setattr__(self, "_user_offsets", (0,) + tuple(np.cumsum(users).tolist()))
        object.__setattr__(
            self, "_block_offsets", (0,) + tuple(np.cumsum([m * L for m in users]).tolist())
        )

    # -- canonical indexing -------------------------------------------------

    @property
    def total_users(self) -> int:
        return self._user_offsets[-1]

    @property
    def size(self) -> int:
        """Length of the canonical allocation vectors: sum_k M_k * L."""
        return self._block_offsets[-1]

    def global_user(self, k: int, u: int) -> int:
        """Global gain-array index of local user ``u`` of cell ``k``."""
        if not 0 <= k < self.num_cells:
            raise IndexError(f"cell index {k} out of range")
        if not 0 <= u < self.users_per_cell[k]:
            raise IndexError(f"user index {u} out of range for cell {k}")
        return self._user_offsets[k] + u

    def flat_index(self, k: int, l: int, u: int) -> int:
        """Canonical vector position of (cell, sub-carrier, user-in-cell).

        Cell blocks come first, sub-carriers next, users last, so entries of
        one (cell, sub-carrier) pair sit in one contiguous run.
        """
        if not 0 <= l < self.num_subcarriers:
            raise IndexError(f"sub-carrier index {l} out of range")
        self.global_user(k, u)  # bounds check for k, u
        return self._block_offsets[k] + l * self.users_per_cell[k] + u

    def triplet(self, i: int) -> tuple[int, int, int]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= i < self.size:
            raise IndexError(f"canonical index {i} out of range")
        k = 0
        while self._block_offsets[k + 1] <= i:
            k += 1
        rem = i - self._block_offsets[k]
        m = self.users_per_cell[k]
        return k, rem // m, rem % m

    def carrier_slice(self, k: int, l: int) -> slice:
        """Canonical slice covering all users of cell ``k`` on carrier ``l``."""
        start = self._block_offsets[k] + l * self.users_per_cell[k]
        return slice(start, start + self.users_per_cell[k])

    def canonical_weights(self) -> np.ndarray:
        """Per-entry weight vector: each entry inherits its user's weight."""
        out = np.empty(self.size)
        for k in range(self.num_cells):
            for l in range(self.num_subcarriers):
                sl = self.carrier_slice(k, l)
                off = self._user_offsets[k]
                out[sl] = self.weights[off : off + self.users_per_cell[k]]
        return out

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        w = self.weights
        nested_w = []
        for k in range(self.num_cells):
            off = self._user_offsets[k]
            nested_w.append(w[off : off + self.users_per_cell[k]].tolist())
        return {
            "num_cells": self.num_cells,
            "num_subcarriers": self.num_subcarriers,
            "users_per_cell": list(self.users_per_cell),
            "sic_limit": self.sic_limit,
            "gains": self.gains.tolist(),
            "noise_power": self.noise_power,
            "subcarrier_cap": self.subcarrier_cap.tolist(),
            "cell_cap": self.cell_cap.tolist(),
            "weights": nested_w,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario document must be a JSON object")
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        missing = _SCENARIO_KEYS - {"meta", "weights"} - set(data)
        if missing:
            raise ScenarioError(f"missing scenario fields: {sorted(missing)}")
        return cls(
            num_cells=data["num_cells"],
            num_subcarriers=data["num_subcarriers"],
            users_per_cell=tuple(data["users_per_cell"]),
            sic_limit=data["sic_limit"],
            gains=data["gains"],
            noise_power=data["noise_power"],
            subcarrier_cap=data["subcarrier_cap"],
            cell_cap=data["cell_cap"],
            weights=data.get("weights"),
            meta=data.get("meta", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True, eq=False)
class Allocation:
    """Canonical assignment/power vector pair.

    ``a[i]`` is 1 when entry i carries a signal, ``p[i]`` its transmit
    power in watts; inactive entries must hold zero power. Cap and SIC
    constraints are checked by :func:`check_feasible`, not here, so that
    infeasible candidates can be represented and reported on.
    """

    a: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=np.int64, copy=True)
        p = np.array(self.p, dtype=float, copy=True)
        if a.ndim != 1 or p.shape != a.shape:
            raise AllocationError("a and p must be 1-D vectors of equal length")
        if not np.all((a == 0) | (a == 1)):
            raise AllocationError("assignment entries must be 0 or 1")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise AllocationError("powers must be finite and non-negative")
        if np.any(p[a == 0] != 0):
            raise AllocationError("inactive entries must carry zero power")
        a.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)

    @property
    def size(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class DecodingOrder:
    """Per (cell, sub-carrier) SIC decoding permutation.

    ``order[k][l]`` lists local user indices sorted by ascending link gain
    (ties by ascending index): the weakest user is decoded first and sees
    every later user as interference. ``position[k][l][u]`` is the decode
    slot of user ``u``.
    """

    order: tuple
    position: tuple


def build_decoding_order(s: Scenario) -> DecodingOrder:
    order = []
    position = []
    for k in range(s.num_cells):
        off = s.global_user(k, 0)
        m = s.users_per_cell[k]
        own = s.gains[k, off : off + m, :]
        per_l = []
        pos_l = []
        for l in range(s.num_subcarriers):
            pi = tuple(int(u) for u in np.argsort(own[:, l], kind="stable"))
            inv = [0] * m
            for slot, u in enumerate(pi):
                inv[u] = slot
            per_l.append(pi)
            pos_l.append(tuple(inv))
        order.append(tuple(per_l))
        position.append(tuple(pos_l))
    return DecodingOrder(order=tuple(order), position=tuple(position))


def sinr(s: Scenario, order: DecodingOrder, alloc: Allocation, i: int) -> float:
    """SINR of canonical entry ``i`` under SIC decoding.

    Interference is the own-cell power of users decoded after entry i's
    user, plus the total power every other base station spends on the same
    sub-carrier, plus noise. A zero-power entry has SINR zero.
    """
    if alloc.size != s.size:
        raise AllocationError(f"allocation length {alloc.size} does not match scenario size {s.size}")
    k, l, u = s.triplet(i)
    p_i = alloc.p[i]
    if p_i == 0.0:
        return 0.0
    gu = s.global_user(k, u)
    g_own = s.gains[k, gu, l]
    slot = order.position[k][l][u]
    block = alloc.p[s.carrier_slice(k, l)]
    intra = 0.0
    for v in order.order[k][l][slot + 1 :]:
        intra += block[v]
    inter = 0.0
    for j in range(s.num_cells):
        if j == k:
            continue
        inter += s.gains[j, gu, l] * float(np.sum(alloc.p[s.carrier_slice(j, l)]))
    return g_own * p_i / (g_own * intra + inter + s.noise_power)


def sum_rate(s: Scenario, order: DecodingOrder, alloc: Allocation) -> float:
    """Weighted sum rate in nats: sum_i w_i a_i log(1 + SINR_i)."""
    w = s.canonical_weights()
    total = 0.0
    for i in range(s.size):
        if alloc.a[i]:
            total += w[i] * math.log1p(sinr(s, order, alloc, i))
    return total


def _pair_margin(s: Scenario, k: int, l: int, weak_u: int, strong_u: int, p_cross) -> float:
    gw = s.gains[k, s.global_user(k, weak_u), l]
    gs = s.gains[k, s.global_user(k, strong_u), l]
    total = (gs - gw) * s.noise_power
    for j in range(s.num_cells):
        if j == k:
            continue
        cw = s.gains[j, s.global_user(k, weak_u), l]
        cs = s.gains[j, s.global_user(k, strong_u), l]
        total += (gs * cw - gw * cs) * p_cross[j]
    return float(total)


def sic_pair_margin(s: Scenario, k: int, l: int, weak_u: int, strong_u: int, p_cross) -> float:
    """Margin of the SIC decodability condition for an ordered user pair.

    ``weak_u`` and ``strong_u`` are local users of cell ``k`` with strictly
    ordered gains on carrier ``l``; ``p_cross[j]`` is the total power BS j
    spends on that carrier (entry ``k`` is ignored). The margin is
    non-negative exactly when the stronger user can decode the weaker
    user's signal at least as reliably as the weaker user itself, for any
    own-cell power split.
    """
    p_cross = np.asarray(p_cross, dtype=float)
    if p_cross.shape != (s.num_cells,):
        raise ValueError(f"p_cross must have one entry per cell, got shape {p_cross.shape}")
    gw = s.gains[k, s.global_user(k, weak_u), l]
    gs = s.gains[k, s.global_user(k, strong_u), l]
    if not gw < gs:
        raise ValueError(
            f"users ({weak_u}, {strong_u}) of cell {k} are not strictly gain-ordered on carrier {l}"
        )
    return _pair_margin(s, k, l, weak_u, strong_u, p_cross)


def sic_always_feasible(s: Scenario) -> bool:
    """True when SIC decoding works for every power vector.

    Checks, for every cell, carrier and decode-ordered user pair, that each
    interfering base station's gain-product coefficient in the pair margin
    is non-negative; then no power choice can make any margin negative.
    Comparisons allow relative round-off on the gain products.
    """
    order = build_decoding_order(s)
    for k in range(s.num_cells):
        m = s.users_per_cell[k]
        for l in range(s.num_subcarriers):
            pi = order.order[k][l]
            for ai in range(m):
                for bi in range(ai + 1, m):
                    weak, strong = pi[ai], pi[bi]
                    gw = s.gains[k, s.global_user(k, weak), l]
                    gs = s.gains[k, s.global_user(k, strong), l]
                    for j in range(s.num_cells):
                        if j == k:
                            continue
                        cw = s.gains[j, s.global_user(k, weak), l]
                        cs = s.gains[j, s.global_user(k, strong), l]
                        t1 = gs * cw
                        t2 = gw * cs
                        if t1 - t2 < -1e-12 * (t1 + t2):
                            return False
    return True


@dataclass(frozen=True)
class Violation:
    constraint: str
    cell: int
    subcarrier: int | None
    magnitude: float
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "cell": self.cell,
            "subcarrier": self.subcarrier,
            "magnitude": self.magnitude,
            "detail": self.detail,
        }


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of checking an allocation against all model constraints.

    Violations are data, not errors. Measured per-carrier and per-cell
    power totals are always included so cap slack (and which of the two
    power-budget readings binds) is visible even for feasible points.
    """

    violations: tuple[Violation, ...]
    carrier_power: np.ndarray
    cell_power: np.ndarray

    @property
    def feasible(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_json_dict() for v in self.violations],
            "carrier_power": self.carrier_power.tolist(),
            "cell_power": self.cell_power.tolist(),
        }


def check_feasible(s: Scenario, alloc: Allocation) -> FeasibilityReport:
    """Check per-carrier caps, per-cell caps, the multiplexing limit and
    SIC decodability of an allocation; returns all violations found.

    Power caps get a relative round-off slack of 1e-12 of the cap, the
    same slack Scenario validation allows between caps."""
    if alloc.size != s.size:
        raise AllocationError(f"allocation length {alloc.size} does not match scenario size {s.size}")
    K, L = s.num_cells, s.num_subcarriers
    carrier_power = np.zeros((K, L))
    active_count = np.zeros((K, L), dtype=int)
    for k in range(K):
        for l in range(L):
            sl = s.carrier_slice(k, l)
            carrier_power[k, l] = float(np.sum(alloc.p[sl]))
            active_count[k, l] = int(np.sum(alloc.a[sl]))
    cell_power = carrier_power.sum(axis=1)

    violations: list[Violation] = []
    for k in range(K):
        for l in range(L):
            cap = s.subcarrier_cap[k, l]
            excess = carrier_power[k, l] - cap
            if excess > 1e-12 * cap:
                violations.append(
                    Violation(
                        "subcarrier_power", k, l, float(excess),
                        f"carrier power {carrier_power[k, l]:.6g} W exceeds cap {cap:.6g} W",
                    )
                )
            if active_count[k, l] > s.sic_limit:
                violations.append(
                    Violation(
                        "multiplex_limit", k, l, float(active_count[k, l] - s.sic_limit),
                        f"{active_count[k, l]} active users exceed the limit of {s.sic_limit}",
                    )
                )
        excess = cell_power[k] - s.cell_cap[k]
        if excess > 1e-12 * s.cell_cap[k]:
            violations.append(
                Violation(
                    "cell_power", k, None, float(excess),
                    f"cell power {cell_power[k]:.6g} W exceeds cap {s.cell_cap[k]:.6g} W",
                )
            )

    order = build_decoding_order(s)
    for k in range(K):
        for l in range(L):
            sl = s.carrier_slice(k, l)
            active = [u for u in range(s.users_per_cell[k]) if alloc.a[sl][u]]
            if len(active) < 2:
                continue
            by_slot = sorted(active, key=lambda u: order.position[k][l][u])
            for ai in range(len(by_slot)):
                for bi in range(ai + 1, len(by_slot)):
                    weak, strong = by_slot[ai], by_slot[bi]
                    margin = _pair_margin(s, k, l, weak, strong, carrier_power[:, l])
                    gw = s.gains[k, s.global_user(k, weak), l]
                    gs = s.gains[k, s.global_user(k, strong), l]
                    scale = (gs + gw) * s.noise_power
                    for j in range(K):
                        if j != k:
                            cw = s.gains[j, s.global_user(k, weak), l]
                            cs = s.gains[j, s.global_user(k, strong), l]
                            scale += (gs * cw + gw * cs) * carrier_power[j, l]
                    if margin < -1e-12 * scale:
                        violations.append(
                            Violation(
                                "sic_condition", k, l, float(-margin),
                                f"users ({weak}, {strong}) cannot be jointly decoded "
                                f"(margin {margin:.6g})",
                            )
                        )
    return FeasibilityReport(
        violations=tuple(violations),
        carrier_power=_frozen_array(carrier_power),
        cell_power=_frozen_array(cell_power),
    )

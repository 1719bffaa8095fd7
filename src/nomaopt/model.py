"""Multi-cell multi-carrier downlink NOMA system model.

Problem instances, canonical vector indexing, SINR and sum-rate
evaluation, SIC decoding order handling and allocation feasibility
checking, plus the one JSON reader and the one CSV writer behind the
file formats.

Unit conventions used across the package: channel gains are linear power
gains (never dB), powers and noise are watts, rates are nats. Rates in
bits are always derived by dividing by ln(2) at reporting time.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

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


class ScenarioError(ValueError):
    """Scenario data violates a structural invariant."""


class AllocationError(ValueError):
    """Allocation vectors are structurally malformed."""


def _integer(value, name: str) -> int:
    """value as an int; bools, strings and non-integral numbers raise ScenarioError."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if integral and not isinstance(value, bool):
        return int(value)
    raise ScenarioError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """value as a float; bools, strings, other non-numbers and inf or NaN raise ScenarioError."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if number and math.isfinite(value):
        return float(value)
    raise ScenarioError(f"{name} must be a finite number, got {value!r}")


def _real_array(values, name: str) -> np.ndarray:
    """A float copy of values; entries that are not numbers raise ScenarioError."""
    if np.asarray(values).dtype.kind not in "iuf":
        raise ScenarioError(f"{name} must hold numbers only")
    return np.array(values, dtype=float, copy=True)


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _sum(values) -> float:
    """Left-to-right float sum: the built-in ``sum`` compensates round-off
    from Python 3.12 on, so results would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _read_json(cls, name: str, *, text: str | None = None, data=None):
    """An instance of dataclass cls from the JSON document ``name``, given
    as text or already decoded: an object whose keys are cls's fields, every
    field without a default present. Anything else raises ScenarioError."""
    if text is not None:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid {name} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    known = fields(cls)
    unknown = set(data) - {f.name for f in known}
    if unknown:
        raise ScenarioError(f"unknown {name} fields: {sorted(unknown)}")
    missing = {f.name for f in known if f.default is MISSING and f.default_factory is MISSING} - set(data)
    if missing:
        raise ScenarioError(f"missing {name} fields: {sorted(missing)}")
    return cls(**data)


def _write_csv(path, header, rows):
    """A CSV file: the header, then one line per row, strings as they are
    and numbers with 12 significant digits (%.12g)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")


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
    per user (global order). Instances are immutable; ``meta`` is a dict of
    free-form provenance and must be treated as read-only.
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
        K = _integer(self.num_cells, "num_cells")
        L = _integer(self.num_subcarriers, "num_subcarriers")
        if K < 1 or L < 1:
            raise ScenarioError("need at least one cell and one sub-carrier")
        try:
            users = tuple(_integer(m, "users_per_cell") for m in self.users_per_cell)
        except TypeError:
            raise ScenarioError("users_per_cell must be a sequence of integers") from None
        if len(users) != K or any(m < 1 for m in users):
            raise ScenarioError("users_per_cell must list one positive count per cell")
        sic = _integer(self.sic_limit, "sic_limit")
        if sic < 1:
            raise ScenarioError("sic_limit must be a positive integer")
        U = sum(users)
        gains = _real_array(self.gains, "gains")
        if gains.shape != (K, U, L):
            raise ScenarioError(
                f"gains must have shape (cells, total users, sub-carriers) = {(K, U, L)}, got {gains.shape}"
            )
        if not np.isfinite(gains).all() or (gains <= 0.0).any():
            raise ScenarioError("gains must be strictly positive and finite")
        noise = _real(self.noise_power, "noise_power")
        if noise <= 0.0:
            raise ScenarioError("noise_power must be positive and finite")
        sc_cap = _real_array(self.subcarrier_cap, "subcarrier_cap")
        if sc_cap.shape != (K, L) or not np.isfinite(sc_cap).all() or (sc_cap < 0).any():
            raise ScenarioError("subcarrier_cap must be a (K, L) array of non-negative watts")
        cell_cap = _real_array(self.cell_cap, "cell_cap")
        if cell_cap.shape != (K,) or not np.isfinite(cell_cap).all() or (cell_cap < 0).any():
            raise ScenarioError("cell_cap must be a (K,) array of non-negative watts")
        sums = sc_cap.sum(axis=1)
        over = sums > cell_cap * (1.0 + 1e-12)
        if over.any():
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
            w = _real_array(w, "weights")
        if w.shape != (U,) or not np.isfinite(w).all() or (w < 0).any():
            raise ScenarioError("weights must be one finite non-negative value per user")
        if not isinstance(self.meta, dict):
            raise ScenarioError(f"meta must be a JSON object, got {type(self.meta).__name__}")

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
        """The fields in declaration order, arrays and tuples as lists and
        the weights nested per cell."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = np.asarray(value).tolist() if isinstance(value, (np.ndarray, tuple)) else value
        offsets = self._user_offsets
        out["weights"] = [out["weights"][a:b] for a, b in zip(offsets, offsets[1:])]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        return _read_json(cls, "scenario", data=data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return _read_json(cls, "scenario", text=text)


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
        a, p = np.asarray(self.a), np.asarray(self.p)
        if a.dtype.kind not in "iuf" or p.dtype.kind not in "iuf":
            raise AllocationError("a and p must hold numbers only")
        if a.ndim != 1 or p.shape != a.shape:
            raise AllocationError("a and p must be 1-D vectors of equal length")
        inactive = a == 0
        if not (inactive | (a == 1)).all():
            raise AllocationError("assignment entries must be 0 or 1")
        a, p = a.astype(np.int64), p.astype(float)
        # NaN fails both comparisons
        if not ((p >= 0.0) & (p < math.inf)).all():
            raise AllocationError("powers must be finite and non-negative")
        if p[inactive].any():
            raise AllocationError("inactive entries must carry zero power")
        a.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)

    @classmethod
    def _unchecked(cls, a: np.ndarray, p: np.ndarray) -> Allocation:
        """An Allocation of int64 assignments a and float powers p that the
        package built itself to the rules above, frozen in place without
        checking them again."""
        a.setflags(write=False)
        p.setflags(write=False)
        alloc = object.__new__(cls)
        object.__setattr__(alloc, "a", a)
        object.__setattr__(alloc, "p", p)
        return alloc

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


def _memo(s: Scenario, name: str, compute):
    """compute(s), worked out on the first call for s and kept on it.

    A Scenario never changes, and ``dataclasses.replace`` builds a new
    instance, so a kept value cannot go stale."""
    try:
        return s.__dict__[name]
    except KeyError:
        value = compute(s)
        object.__setattr__(s, name, value)
        return value


def build_decoding_order(s: Scenario) -> DecodingOrder:
    """Decoding order of s, computed once per Scenario (see ``_memo``)."""
    return _memo(s, "_decoding_order", _decoding_order)


def _decoding_order(s: Scenario) -> DecodingOrder:
    order = []
    position = []
    for k, m in enumerate(s.users_per_cell):
        off = s._user_offsets[k]
        pi = np.argsort(s.gains[k, off : off + m, :], axis=0, kind="stable")
        order.append(tuple(map(tuple, pi.T.tolist())))
        position.append(tuple(map(tuple, np.argsort(pi, axis=0).T.tolist())))
    return DecodingOrder(order=tuple(order), position=tuple(position))


def _check_length(s: Scenario, alloc: Allocation):
    if alloc.size != s.size:
        raise AllocationError(f"allocation length {alloc.size} does not match scenario size {s.size}")


def _carrier_sums(s: Scenario, x: np.ndarray) -> np.ndarray:
    """(K, L) sums of the canonical vector x over each (cell, carrier) slice,
    each summed as ``np.sum`` sums that slice alone: numpy reduces every row
    of a last-axis reduce the same way, so equal user counts take one call."""
    K, L, users = s.num_cells, s.num_subcarriers, s.users_per_cell
    if users.count(users[0]) == K:
        return np.add.reduce(x.reshape(K, L, users[0]), axis=2)
    blocks = zip(s._block_offsets, s._block_offsets[1:], users)
    return np.stack([np.add.reduce(x[a:b].reshape(L, m), axis=1) for a, b, m in blocks])


def _sinr(s: Scenario, order: DecodingOrder, p: list, carrier_power: list, k: int, l: int, u: int) -> float:
    """SINR of user u of cell k on carrier l at canonical powers p whose
    (K, L) carrier sums are carrier_power, both as Python floats: the same
    IEEE operations in the same order as on numpy scalars, without their
    per-operation cost."""
    start = s._block_offsets[k] + l * s.users_per_cell[k]
    p_i = p[start + u]
    if p_i == 0.0:
        return 0.0
    gains = s.gains[:, s._user_offsets[k] + u, l].tolist()
    g_own = gains[k]
    intra = 0.0
    for v in order.order[k][l][order.position[k][l][u] + 1 :]:
        intra += p[start + v]
    inter = 0.0
    for j in range(s.num_cells):
        if j != k:
            inter += gains[j] * carrier_power[j][l]
    return g_own * p_i / (g_own * intra + inter + s.noise_power)


def sinr(s: Scenario, order: DecodingOrder, alloc: Allocation, i: int) -> float:
    """SINR of canonical entry ``i`` under SIC decoding.

    Interference is the own-cell power of users decoded after entry i's
    user, plus the total power every other base station spends on the same
    sub-carrier, plus noise. A zero-power entry has SINR zero.
    """
    _check_length(s, alloc)
    k, l, u = s.triplet(i)
    return _sinr(s, order, alloc.p.tolist(), _carrier_sums(s, alloc.p).tolist(), k, l, u)


def sum_rate(s: Scenario, order: DecodingOrder, alloc: Allocation) -> float:
    """Weighted sum rate in nats: sum_i w_i a_i log(1 + SINR_i), summed in
    canonical order and returned as a numpy float64."""
    _check_length(s, alloc)
    a, p = alloc.a.tolist(), alloc.p.tolist()
    carrier_power = _carrier_sums(s, alloc.p).tolist()
    weights = s.weights.tolist()
    total = 0.0
    for k, m in enumerate(s.users_per_cell):
        for l in range(s.num_subcarriers):
            start = s._block_offsets[k] + l * m
            for u in range(m):
                if a[start + u]:
                    w = weights[s._user_offsets[k] + u]
                    total += w * math.log1p(_sinr(s, order, p, carrier_power, k, l, u))
    return np.float64(total)


def _pair_terms(k: int, weak: list, strong: list):
    """For two users of cell k decode-ordered on one carrier, given their
    gains from every base station as lists of floats: the serving gains
    gw, gs and, over the interfering cells j != k in cell order, the
    products gs * g_j(weak) and gw * g_j(strong) of the SIC condition."""
    gw, gs = weak[k], strong[k]
    tw, ts = [gs * g for g in weak], [gw * g for g in strong]
    del tw[k], ts[k]
    return gw, gs, tw, ts


def _pair_margin(s: Scenario, k: int, l: int, weak_u: int, strong_u: int, p_cross: np.ndarray):
    """gw, gs, the SIC margin of the pair at cross powers p_cross and the
    scale its round-off is judged against, each summed left to right: the
    noise term first, then the interfering cells in order."""
    weak = s.gains[:, s.global_user(k, weak_u), l].tolist()
    strong = s.gains[:, s.global_user(k, strong_u), l].tolist()
    gw, gs, tw, ts = _pair_terms(k, weak, strong)
    p = p_cross.tolist()
    margin = (gs - gw) * s.noise_power
    scale = (gs + gw) * s.noise_power
    for a, b, pj in zip(tw, ts, p[:k] + p[k + 1 :]):
        margin += (a - b) * pj
        scale += (a + b) * pj
    return gw, gs, margin, scale


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
    gw, gs, margin, _ = _pair_margin(s, k, l, weak_u, strong_u, p_cross)
    if not gw < gs:
        raise ValueError(
            f"users ({weak_u}, {strong_u}) of cell {k} are not strictly gain-ordered on carrier {l}"
        )
    return float(margin)


def sic_always_feasible(s: Scenario) -> bool:
    """True when SIC decoding works for every power vector.

    Checks, for every cell, carrier and decode-ordered user pair, that each
    interfering base station's gain-product coefficient in the pair margin
    is non-negative; then no power choice can make any margin negative.
    Comparisons allow relative round-off on the gain products. Computed
    once per Scenario (see ``_memo``).
    """
    return _memo(s, "_sic_always_feasible", _sic_always_feasible)


def _sic_always_feasible(s: Scenario) -> bool:
    order = build_decoding_order(s)
    for k, m in enumerate(s.users_per_cell):
        off = s._user_offsets[k]
        for l in range(s.num_subcarriers):
            gains = s.gains[:, off : off + m, l].T.tolist()  # per user, from every base station
            pi = order.order[k][l]
            for ai, weak in enumerate(pi):
                for strong in pi[ai + 1 :]:
                    _, _, tw, ts = _pair_terms(k, gains[weak], gains[strong])
                    for a, b in zip(tw, ts):
                        if a - b < -1e-12 * (a + b):
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    _check_length(s, alloc)
    K, L = s.num_cells, s.num_subcarriers
    carrier_power = _carrier_sums(s, alloc.p)
    active_count = _carrier_sums(s, alloc.a)
    cell_power = carrier_power.sum(axis=1)

    carrier_excess = carrier_power - s.subcarrier_cap
    over_carrier = carrier_excess > 1e-12 * s.subcarrier_cap
    over_limit = active_count > s.sic_limit
    cell_excess = cell_power - s.cell_cap
    over_cell = cell_excess > 1e-12 * s.cell_cap

    violations: list[Violation] = []
    # whole-array screens; only an allocation that breaks one walks the
    # (cell, carrier) grid to list its violations in order
    if over_carrier.any() or over_limit.any() or over_cell.any():
        for k in range(K):
            for l in range(L):
                if over_carrier[k, l]:
                    violations.append(
                        Violation(
                            "subcarrier_power", k, l, float(carrier_excess[k, l]),
                            f"carrier power {carrier_power[k, l]:.6g} W "
                            f"exceeds cap {s.subcarrier_cap[k, l]:.6g} W",
                        )
                    )
                if over_limit[k, l]:
                    violations.append(
                        Violation(
                            "multiplex_limit", k, l, float(active_count[k, l] - s.sic_limit),
                            f"{active_count[k, l]} active users exceed the limit of {s.sic_limit}",
                        )
                    )
            if over_cell[k]:
                violations.append(
                    Violation(
                        "cell_power", k, None, float(cell_excess[k]),
                        f"cell power {cell_power[k]:.6g} W exceeds cap {s.cell_cap[k]:.6g} W",
                    )
                )

    multiplexed = np.argwhere(active_count > 1).tolist() if active_count.max() > 1 else []
    order = build_decoding_order(s) if multiplexed else None
    for k, l in multiplexed:
        start = s.carrier_slice(k, l).start
        by_slot = [u for u in order.order[k][l] if alloc.a[start + u]]
        for ai, weak in enumerate(by_slot):
            for strong in by_slot[ai + 1 :]:
                _, _, margin, scale = _pair_margin(s, k, l, weak, strong, carrier_power[:, l])
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

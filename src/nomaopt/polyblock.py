"""Outer polyblock approximation loop with certified termination.

Interference couples only entries on the same sub-carrier, and Scenario
validation keeps the carrier caps within the cell caps, so the reduced
problem is one independent K-dimensional problem per carrier; carriers
with identical data are solved once and counted once per carrier.

Each carrier's feasible shifted-SINR set is normal (downward closed), so
it can be approximated from above by a union of boxes spanned by a vertex
set. Each group's incumbent starts at its full-power point. Each
iteration picks the carrier group with the widest weighted gap, selects
its vertex with the best objective (the group's upper bound), projects it
onto the feasible boundary along its ray (which yields a feasible
incumbent candidate and a certified unrealizable point on the ray just
past it), and replaces it by one child per coordinate that point lifts
above 1, shrinking the approximation; each child's projection starts
from its parent's boundary powers. Before they are stored, the children
go through the reduce step of branch-reduce-and-bound (Tuy, SIAM J.
Optim. 11(2), 2000): against the threshold t = incumbent + epsilon / L,
a child whose box holds no realizable point worth more than t is
dropped, and any other is lowered to the part of its box that can hold
one (``reduce_children``). The survivors that no stored vertex or
earlier child dominates are appended in one batch, and one mask then
drops every vertex worth at most t. The loop ends when the summed upper
bound is within epsilon of the summed incumbent, which certifies
epsilon-optimality (with no projection at all when the full-power
incumbents already are), or when a safety budget runs out, in which case
the result carries the current bounds and certified=False.

The children are cut at the unrealizable point u, not at the boundary
point itself. The feasible set is normal, so every realizable point lies
below u on some coordinate, and not on one where u is 1, the floor of
every coordinate: the boxes left out hold no realizable point, and the
upper bound needs no tolerance for where the boundary was found. What
the reduce step cuts away may hold realizable points worth up to t, so
each cut records t as a value left out, and a group whose vertices are
all gone keeps that as its bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .fractional import dinkelbach_project
from .model import (
    LN2,
    Allocation,
    FeasibilityReport,
    Scenario,
    _integer,
    _real,
    _sum,
    _write_csv,
    build_decoding_order,
    check_feasible,
    sic_always_feasible,
    sum_rate,
)
from .reduction import (
    _EPS,
    ReducedProblem,
    _allocation,
    _as_powers,
    _cap_ceilings,
    _nd,
    initial_vertex,
    reduce_scenario,
)

__all__ = [
    "TraceRow",
    "SolveResult",
    "generate_children",
    "reduce_children",
    "solve",
    "write_trace_csv",
    "MAX_ITERATIONS",
    "MAX_VERTICES",
]

MAX_ITERATIONS = 100_000
MAX_VERTICES = 1_000_000


class TraceRow(NamedTuple):
    iteration: int
    upper_bound: float
    incumbent: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a solver or baseline run.

    ``sum_rate_nats`` is recomputed from the allocation through the full
    system model, not read off the internal objective. ``upper_bound`` is a
    valid bound on the global optimum whenever present; ``certified`` is
    true when upper_bound - sum_rate_nats <= epsilon was established, up
    to round-off: a carrier group whose vertices are all gone reports the
    float lb + epsilon / L as its bound, so the gap can pass epsilon by a
    few ulps of the bound.
    ``status`` is "optimal", "budget_exceeded", or "heuristic". ``z`` is
    the read-only flat reduced array of the shifted SINRs the powers
    achieve; ``to_json_dict`` alone expands it to canonical length, zero
    off the served entries.
    """

    algorithm: str
    allocation: Allocation
    z: np.ndarray
    sum_rate_nats: float
    sum_rate_bits: float
    epsilon: float | None
    iterations: int
    projections: int
    wall_time_s: float
    upper_bound: float | None
    certified: bool
    status: str
    sic_flag: bool
    feasibility: FeasibilityReport
    trace: tuple[TraceRow, ...]

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_powers(cls, r: ReducedProblem, q, t0: float, **fields) -> SolveResult:
        """Result of a run begun at perf_counter t0 and ended at the flat reduced
        powers q, scored through the full system model, with the shifted SINRs
        they achieve (``reduction._nd``'s ratios); the wall time is taken
        before the SIC flag and feasibility report. q is checked once, here.
        ``fields`` are the run's own: algorithm, epsilon, iterations,
        projections, upper_bound, certified, status and trace."""
        s = r.scenario
        q = _as_powers(r, q)
        alloc = _allocation(r, q)
        nats = sum_rate(s, build_decoding_order(s), alloc)
        return cls(
            allocation=alloc,
            z=_nd(r, q)[2],
            sum_rate_nats=nats,
            sum_rate_bits=nats / LN2,
            wall_time_s=time.perf_counter() - t0,
            sic_flag=sic_always_feasible(s),
            feasibility=check_feasible(s, alloc),
            **fields,
        )

    def to_json_dict(self) -> dict:
        """The fields by name, but for four: ``allocation`` is written as its
        ``a`` and ``p`` and the canonical indices ``active`` of the served
        entries, ``z`` at canonical length (zero off those entries),
        ``feasibility`` as its own document and ``trace`` rows as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        alloc = out.pop("allocation")
        active = np.flatnonzero(alloc.a)
        z = np.zeros(alloc.size)
        z[active] = self.z
        out.update(
            a=alloc.a.tolist(),
            p=alloc.p.tolist(),
            active=active.tolist(),
            z=z.tolist(),
            feasibility=self.feasibility.to_json_dict(),
            trace=[list(row) for row in self.trace],
        )
        return out


def generate_children(parent: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """One child per coordinate where ``upper`` exceeds 1, that coordinate lowered.

    ``upper`` is an unrealizable point on the parent's ray (or its
    boundary point when a cap binds there). Child i keeps the flat parent
    everywhere except coordinate i, which takes upper's value clamped to
    the parent. Rows come in ascending coordinate order. Every realizable
    point lies below upper on some coordinate, which cannot be one where
    upper is 1, so the boxes left out hold no realizable point.
    """
    idx = np.flatnonzero(upper > 1.0)
    children = np.repeat(parent[None], idx.size, axis=0)
    children[np.arange(idx.size), idx] = np.minimum(upper[idx], parent[idx])
    return children


def reduce_children(r: ReducedProblem, children: np.ndarray, t: float) -> np.ndarray:
    """The rows of ``children`` cut down to what can beat t, as a new array.

    r has one carrier and each row v spans the box [1, v]. A point z of
    the box worth more than t (sum_j log z_j > t) has
    z_i > exp(t - sum_{j != i} log v_j) on every coordinate, so it lies
    above the corner a = max(1, exp(t - f(v) + log v_i)), f(v) the sum of
    logs, here rounded down by the round-off of those sums. The minimal
    powers q(a) grow with the SINRs, so a realizable z >= a needs at least
    q(a) and has z_i <= 1 + g_ii cap_i / (N + sum_j g_ij q_j(a)).

    ``reduction._cap_ceilings`` solves for every row's q(a) in one batch.
    A row whose corner is past the pole, or needs more than a cap beyond
    the round-off slack, holds nothing realizable worth more than t and is
    dropped; any other row is lowered to its ceilings, the bound above
    inflated by the same slack. A singular system proves nothing, and its
    row is kept as it is, as is a row worth at most t, which the prune
    that follows drops at its own value, a tighter record than t. Rows
    keep their order.
    """
    logs = np.log(children)
    f = logs.sum(axis=1, keepdims=True)
    slack = (1.0 + abs(t)) + f
    slack *= 4.0 * (children.shape[1] + 2) * _EPS
    # gamma = max(a, 1) - 1 at the corner a = exp(t - f + log v - slack)
    gamma = t - f + logs
    gamma -= slack
    np.exp(gamma, out=gamma)
    np.maximum(gamma, 1.0, out=gamma)
    gamma -= 1.0
    singular, unrealizable, ceiling = _cap_ceilings(r, gamma)
    lowered = np.minimum(children, ceiling, out=ceiling)
    keep = singular | (f[:, 0] <= t)
    np.copyto(lowered, children, where=keep[:, None])
    return lowered[keep | ~unrealizable]


def _carrier_groups(r: ReducedProblem) -> list[list[int]]:
    """Carriers with bitwise equal reduced data, in order of first carrier."""
    groups: dict[tuple, list[int]] = {}
    for l in range(r.gain_active.shape[1]):
        key = (
            r.gain_active[:, l].tobytes(),
            r.gain_cross[:, l, :].tobytes(),
            r.cap_carrier[:, l].tobytes(),
        )
        groups.setdefault(key, []).append(l)
    return list(groups.values())


class _CarrierSearch:
    """Polyblock state of one group of identical carriers.

    The vertex store is three arrays with one column per vertex: the
    vertices ``z`` (dim, n), their values ``f`` (n,) and ``q`` (dim, n),
    the powers of the projection that made each vertex, its warm start.
    ``lb`` is the best value found (realized by ``best_q``), starting from
    the full-power point when that beats silence. Each refinement reduces
    the new children against t = ``lb + tol`` (``reduce_children``), and
    whenever that drops or lowers one it records t in ``dropped_max``:
    the parts cut away hold no realizable point worth more than t, but may
    hold some worth up to t, which ``lb`` alone does not bound. ``add``
    then updates the store once, so every stored vertex is worth more than
    ``lb + tol``, and records the largest value it prunes. ``ub`` bounds
    the group's optimum: the largest stored vertex value, or once the
    store is empty the larger of ``lb`` and ``dropped_max``, since every
    box left out was pruned at its value, cut by the reduce step at a
    recorded t, or holds nothing above its projection. Pruned values and
    recorded thresholds are at most ``lb + tol``, so ``lb <= ub``, and
    ``ub <= lb + tol`` once the store is empty.
    """

    def __init__(self, r: ReducedProblem, carriers: list[int], tol: float):
        self.r = r
        self.carriers = carriers
        self.m = len(carriers)
        self.tol = tol
        self.lb = 0.0
        self.best_q = np.zeros(r.dim)
        # Scenario validation keeps the caps finite and non-negative
        full = r.cap_carrier.reshape(-1).astype(float)
        f_full = float(np.log(_nd(r, full)[2]).sum())
        if f_full > self.lb:
            self.lb, self.best_q = f_full, full
        z0 = initial_vertex(r)
        self.z, self.f, self.q = z0[:, None], np.log(z0).sum(keepdims=True), full[:, None]
        self.dropped_max = -math.inf
        self.ub = float(self.f[0])

    def pop(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove a vertex of the largest value, ties to the lexicographically
        largest values, moving the last column into its slot; returns its
        values and start powers."""
        i = max(np.flatnonzero(self.f == self.f.max()).tolist(), key=lambda j: self.z[:, j].tolist())
        zc, start = self.z[:, i].copy(), self.q[:, i].copy()
        for a in (self.z, self.f, self.q):
            a[..., i] = a[..., -1]
        self.z, self.f, self.q = self.z[:, :-1], self.f[:-1], self.q[:, :-1]
        return zc, start

    def add(self, children: np.ndarray, powers: np.ndarray, t: float):
        """Append the rows of ``children`` that no stored vertex and no
        earlier row dominates (>= everywhere, so an equal one counts: it
        adds no box), all starting from ``powers``; then drop every vertex
        worth at most t, recording the largest value dropped, and reset
        ``ub``. Dominance is transitive, so a row covered only by a covered
        earlier row is covered by a stored vertex or a kept row as well."""
        rows = np.arange(len(children))
        earlier = (rows[:, None] > rows) & (children[None] >= children[:, None]).all(axis=2)
        # reduced over the leading coordinate axis of a C-ordered store,
        # which numpy does several times faster than over a short last axis
        stored = (self.z[:, None] >= children.T[:, :, None]).all(axis=0)
        new = children[~(stored.any(axis=1) | earlier.any(axis=1))]
        z, f, q = self.z, self.f, self.q
        if len(new):
            z = np.concatenate([z, new.T], axis=1)
            f = np.concatenate([f, np.log(new).sum(axis=1)])
            q = np.concatenate([q, np.repeat(powers[:, None], len(new), axis=1)], axis=1)
        keep = f > t
        if not keep.all():
            self.dropped_max = max(self.dropped_max, float(f[~keep].max()))
            # a boolean index on axis 1 would return Fortran order, and
            # the dominance test above is several times slower on that
            z, f, q = z.compress(keep, axis=1), f[keep], q.compress(keep, axis=1)
        self.z, self.f, self.q = z, f, q
        self.ub = float(f.max()) if f.size else max(self.lb, self.dropped_max)

    def refine(self):
        """Project the best vertex from its stored start powers, keep the
        projection as incumbent if it improves and replace the vertex by
        its children, cut at the certified unrealizable scale
        ``lam_upper`` and then reduced against ``lb + tol``; they inherit
        the projection's powers as their start."""
        parent, start = self.pop()

        proj = dinkelbach_project(self.r, parent, start=start)
        f_proj = float(np.log(proj.z_proj).sum())
        if f_proj >= self.lb:
            self.lb, self.best_q = f_proj, proj.powers

        t = self.lb + self.tol
        children = generate_children(parent, upper=np.maximum(proj.lam_upper * parent, 1.0))
        reduced = reduce_children(self.r, children, t)
        if reduced.shape != children.shape or (reduced != children).any():
            # the parts cut away may hold realizable points worth up to t
            self.dropped_max = max(self.dropped_max, t)
        self.add(reduced, proj.powers, t)


def solve(
    s: Scenario,
    epsilon: float,
    *,
    max_iterations: int = MAX_ITERATIONS,
    max_vertices: int = MAX_VERTICES,
) -> SolveResult:
    """Certified epsilon-optimal joint power and sub-carrier allocation.

    Carriers with bitwise equal reduced data form one group, solved once
    and counted m times. Each iteration refines the group with the largest
    weighted gap m * (ub - lb) among those with vertices left (ties to the
    lowest carrier); each group prunes at its incumbent plus epsilon / L,
    and the loop stops when the summed gap is at most epsilon. Iteration
    and vertex budgets are totals over groups.
    """
    epsilon = _real(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError("epsilon must be a positive finite number")
    max_iterations = _integer(max_iterations, "max_iterations")
    max_vertices = _integer(max_vertices, "max_vertices")
    if max_iterations < 0 or max_vertices < 0:
        raise ValueError("iteration and vertex budgets must not be negative")
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    K, L = r.gain_active.shape
    groups = [
        _CarrierSearch(r.carrier(carriers[0]), carriers, epsilon / L)
        for carriers in _carrier_groups(r)
    ]

    iterations = 0
    trace: list[TraceRow] = []
    status = "optimal"
    while True:
        gaps = [g.m * (g.ub - g.lb) for g in groups]
        refinable = [i for i, g in enumerate(groups) if g.f.size]
        if not refinable or _sum(gaps) <= epsilon:
            break
        if iterations >= max_iterations or sum(g.f.size for g in groups) >= max_vertices:
            status = "budget_exceeded"
            break
        upper = _sum(g.m * g.ub for g in groups)
        iterations += 1
        groups[max(refinable, key=gaps.__getitem__)].refine()
        trace.append(TraceRow(iterations, upper, _sum(g.m * g.lb for g in groups)))

    f_best = _sum(g.m * g.lb for g in groups)
    q = np.zeros((K, L))
    for g in groups:
        q[:, g.carriers] = g.best_q[:, None]
    upper = _sum(g.m * g.ub for g in groups)
    result = SolveResult.from_powers(
        r, q.reshape(-1), t0, algorithm="polyblock", epsilon=epsilon,
        iterations=iterations, projections=iterations, upper_bound=float(upper),
        certified=status == "optimal", status=status, trace=tuple(trace),
    )
    if abs(result.sum_rate_nats - f_best) > 1e-6:
        raise RuntimeError(
            f"internal objective {f_best!r} and model sum rate {result.sum_rate_nats!r} disagree"
        )
    return result


def write_trace_csv(trace, path):
    """Write trace rows as CSV, one line per TraceRow."""
    _write_csv(path, TraceRow._fields, trace)

"""Outer polyblock approximation loop with certified termination.

The feasible shifted-SINR set is normal (downward closed), so it can be
approximated from above by a union of boxes spanned by a vertex set. Each
iteration selects the vertex with the best objective (the current global
upper bound), projects it onto the feasible boundary along its ray (which
yields a feasible incumbent candidate), and replaces it by one child per
powered coordinate, shrinking the approximation. The loop ends when the
upper bound is within epsilon of the best feasible value found, which
certifies epsilon-optimality, or when a safety budget runs out, in which
case the result carries the current bounds and certified=False.

A child is generated only for coordinates that carry power at the
projection. Coordinates without power sit at the boundary's zero-power
floor, and no realizable point can exceed the projection on every powered
coordinate, so the skipped boxes cannot contain a better solution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fractional import dinkelbach_project
from .model import (
    Allocation,
    FeasibilityReport,
    Scenario,
    build_decoding_order,
    check_feasible,
    sic_always_feasible,
    sum_rate,
)
from .reduction import (
    ReducedProblem,
    SinrVector,
    allocation_from_powers,
    reduce_scenario,
)

__all__ = [
    "TraceRow",
    "SolveResult",
    "initial_vertex",
    "generate_children",
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
    true when upper_bound - sum_rate_nats <= epsilon was established.
    ``status`` is "optimal", "budget_exceeded", or "heuristic".
    """

    algorithm: str
    allocation: Allocation
    z: SinrVector
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

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "a": self.allocation.a.tolist(),
            "p": self.allocation.p.tolist(),
            "z": self.z.z.tolist(),
            "active": list(self.z.active),
            "sum_rate_nats": self.sum_rate_nats,
            "sum_rate_bits": self.sum_rate_bits,
            "epsilon": self.epsilon,
            "iterations": self.iterations,
            "projections": self.projections,
            "wall_time_s": self.wall_time_s,
            "upper_bound": self.upper_bound,
            "certified": self.certified,
            "status": self.status,
            "sic_flag": self.sic_flag,
            "feasibility": self.feasibility.to_json_dict(),
            "trace": [list(row) for row in self.trace],
        }


def initial_vertex(r: ReducedProblem) -> SinrVector:
    """Box corner ignoring interference.

    Every realizable point is dominated by it: no coordinate can beat the
    interference-free SINR of its own carrier cap (Scenario validation
    keeps the carrier caps within the cell cap), so a zero-cap carrier
    starts (and stays) at 1.
    """
    vals = 1.0 + r.gain_active * r.cap_carrier / r.scenario.noise_power
    return r.vector(vals.reshape(-1))


def generate_children(parent: np.ndarray, proj: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """One child per powered coordinate, that coordinate lowered.

    Child i keeps the flat parent everywhere except coordinate i, which
    takes the projection's value clamped to the parent. Rows come in
    ascending coordinate order; coordinates without power get no child.
    """
    idx = np.flatnonzero(powers > 0.0)
    children = np.tile(parent, (idx.size, 1))
    children[np.arange(idx.size), idx] = np.minimum(proj[idx], parent[idx])
    return children


class _VertexSet:
    """Compact vertex store over active-coordinate values."""

    def __init__(self, n_coords: int):
        self._z = np.empty((256, n_coords))
        self._f = np.empty(256)
        self.count = 0

    def add(self, zc: np.ndarray, f: float):
        if self.count == self._z.shape[0]:
            self._z = np.concatenate([self._z, np.empty_like(self._z)])
            self._f = np.concatenate([self._f, np.empty_like(self._f)])
        self._z[self.count] = zc
        self._f[self.count] = f
        self.count += 1

    def pop(self, idx: int):
        last = self.count - 1
        if idx != last:
            self._z[idx] = self._z[last]
            self._f[idx] = self._f[last]
        self.count = last

    def covers(self, zc: np.ndarray) -> bool:
        """True when some stored vertex dominates zc (>= everywhere, so an
        equal vertex counts: it adds no new box)."""
        view = self._z[: self.count]
        return bool(np.any(np.all(view >= zc, axis=1)))

    def argmax_lex(self) -> tuple[int, float]:
        f = self._f[: self.count]
        best = float(f.max())
        ties = np.flatnonzero(f == best)
        if ties.size == 1:
            return int(ties[0]), best
        idx = max((int(i) for i in ties), key=lambda i: tuple(self._z[i]))
        return idx, best

    def prune_value(self, threshold: float):
        mask = self._f[: self.count] > threshold
        kept = int(mask.sum())
        if kept != self.count:
            self._z[:kept] = self._z[: self.count][mask]
            self._f[:kept] = self._f[: self.count][mask]
            self.count = kept

    def row(self, idx: int) -> np.ndarray:
        return self._z[idx].copy()


def solve(
    s: Scenario,
    epsilon: float,
    *,
    max_iterations: int = MAX_ITERATIONS,
    max_vertices: int = MAX_VERTICES,
    collect_trace: bool = True,
) -> SolveResult:
    """Certified epsilon-optimal joint power and sub-carrier allocation."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be a positive finite number")
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    n = r.dim

    store = _VertexSet(n)
    z0 = initial_vertex(r)
    store.add(z0.active_z, float(np.sum(np.log(z0.active_z))))

    f_best = 0.0
    best_c = np.ones(n)
    best_q = np.zeros(n)
    iterations = 0
    projections = 0
    trace: list[TraceRow] = []
    last_sel_max = None
    status = "optimal"
    certified = True

    while True:
        if store.count == 0:
            upper = f_best + epsilon
            if last_sel_max is not None:
                upper = min(upper, last_sel_max)
            break
        sel_idx, sel_max = store.argmax_lex()
        if sel_max - f_best <= epsilon:
            upper = sel_max
            break
        if iterations >= max_iterations or store.count >= max_vertices:
            status = "budget_exceeded"
            certified = False
            upper = sel_max
            break
        iterations += 1
        parent = store.row(sel_idx)
        store.pop(sel_idx)

        proj = dinkelbach_project(r, r.vector(parent))
        projections += 1
        proj_c = proj.z_proj.active_z
        f_proj = float(np.sum(np.log(proj_c)))
        if f_proj >= f_best:
            f_best = f_proj
            best_c = proj_c.copy()
            best_q = proj.powers.copy()

        for child in generate_children(parent, proj_c, proj.powers):
            if not store.covers(child):
                store.add(child, float(np.sum(np.log(child))))
        store.prune_value(f_best + epsilon)

        if collect_trace:
            trace.append(TraceRow(iterations, sel_max, f_best))
        last_sel_max = sel_max

    upper = max(upper, f_best)
    alloc = allocation_from_powers(r, best_q)
    order = build_decoding_order(s)
    nats = sum_rate(s, order, alloc)
    if abs(nats - f_best) > 1e-6:
        raise RuntimeError(
            f"internal objective {f_best!r} and model sum rate {nats!r} disagree"
        )
    wall = time.perf_counter() - t0
    return SolveResult(
        algorithm="polyblock",
        allocation=alloc,
        z=r.vector(best_c),
        sum_rate_nats=nats,
        sum_rate_bits=nats / math.log(2.0),
        epsilon=float(epsilon),
        iterations=iterations,
        projections=projections,
        wall_time_s=wall,
        upper_bound=float(upper),
        certified=certified,
        status=status,
        sic_flag=sic_always_feasible(s),
        feasibility=check_feasible(s, alloc),
        trace=tuple(trace),
    )


def write_trace_csv(trace, path):
    """Write trace rows as CSV: iteration, upper_bound, incumbent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,upper_bound,incumbent\n")
        for row in trace:
            fh.write(f"{row.iteration},{row.upper_bound:.12g},{row.incumbent:.12g}\n")

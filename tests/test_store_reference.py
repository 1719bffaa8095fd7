"""The polyblock vertex store against the per-child store it replaced.

``_CarrierSearch`` keeps its vertices as three arrays and updates them
once per refine: all children are tested for dominance in one broadcast
and one mask prunes at the threshold. The class below keeps the store it
replaced, ``_VertexSet``, and the refine loop that fed it one child at a
time, verbatim; ``solve`` run with either must give the same result bit
for bit.
"""

import math

import numpy as np
import pytest

import nomaopt.polyblock as P
from nomaopt.experiments import RadioConfig, generate_scenario
from nomaopt.polyblock import dinkelbach_project, generate_children, initial_vertex, reduce_children
from nomaopt.reduction import ReducedProblem, compute_nd

from conftest import k1_scenario, make_scenario, sym2_scenario


class _VertexSet:
    """Compact vertex store over active-coordinate values.

    Next to each vertex it keeps the powers of the projection that created
    it, the warm start for that vertex's own projection, and it tracks the
    largest value ``prune_value`` ever dropped.
    """

    def __init__(self, n_coords: int):
        self._z = np.empty((256, n_coords))
        self._f = np.empty(256)
        self._q = np.empty((256, n_coords))
        self.count = 0
        self.dropped_max = -math.inf

    def add(self, zc: np.ndarray, f: float, q: np.ndarray):
        if self.count == self._z.shape[0]:
            self._z = np.concatenate([self._z, np.empty_like(self._z)])
            self._f = np.concatenate([self._f, np.empty_like(self._f)])
            self._q = np.concatenate([self._q, np.empty_like(self._q)])
        self._z[self.count] = zc
        self._f[self.count] = f
        self._q[self.count] = q
        self.count += 1

    def pop_best(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove a vertex of the largest value, ties to the lexicographically
        largest values; returns its values and start powers."""
        f = self._f[: self.count]
        idx = max(np.flatnonzero(f == f.max()).tolist(), key=lambda i: tuple(self._z[i]))
        zc, q = self._z[idx].copy(), self._q[idx].copy()
        last = self.count - 1
        if idx != last:
            self._z[idx] = self._z[last]
            self._f[idx] = self._f[last]
            self._q[idx] = self._q[last]
        self.count = last
        return zc, q

    def covers(self, zc: np.ndarray) -> bool:
        """True when some stored vertex dominates zc (>= everywhere, so an
        equal vertex counts: it adds no new box)."""
        view = self._z[: self.count]
        return bool(np.any(np.all(view >= zc, axis=1)))

    def max_value(self) -> float:
        return float(self._f[: self.count].max())

    def prune_value(self, threshold: float):
        mask = self._f[: self.count] > threshold
        kept = int(mask.sum())
        if kept != self.count:
            self.dropped_max = max(self.dropped_max, float(self._f[: self.count][~mask].max()))
            self._z[:kept] = self._z[: self.count][mask]
            self._f[:kept] = self._f[: self.count][mask]
            self._q[:kept] = self._q[: self.count][mask]
            self.count = kept


class _ReferenceSearch(P._CarrierSearch):
    """The carrier search with the replaced store; ``f`` exposes the live
    part of the store's values, which is all that ``solve`` reads of it."""

    def __init__(self, r: ReducedProblem, carriers: list[int], tol: float):
        self.r = r
        self.carriers = carriers
        self.m = len(carriers)
        self.tol = tol
        self.lb = 0.0
        self.best_q = np.zeros(r.dim)
        full = r.cap_carrier.reshape(-1).astype(float)
        f_full = float(np.sum(np.log(compute_nd(r, full)[2])))
        if f_full > self.lb:
            self.lb, self.best_q = f_full, full
        z0 = initial_vertex(r)
        self.store = _VertexSet(r.dim)
        self.store.add(z0, float(np.sum(np.log(z0))), full)
        self.ub = self.store.max_value()

    @property
    def f(self):
        return self.store._f[: self.store.count]

    def refine(self):
        parent, start = self.store.pop_best()

        proj = dinkelbach_project(self.r, parent, start=start)
        f_proj = float(np.sum(np.log(proj.z_proj)))
        if f_proj >= self.lb:
            self.lb, self.best_q = f_proj, proj.powers

        t = self.lb + self.tol
        children = generate_children(parent, upper=np.maximum(proj.lam_upper * parent, 1.0))
        reduced = reduce_children(self.r, children, t)
        if reduced.shape != children.shape or np.any(reduced != children):
            # the parts cut away may hold realizable points worth up to t
            self.store.dropped_max = max(self.store.dropped_max, t)
        for child in reduced:
            if not self.store.covers(child):
                self.store.add(child, float(np.sum(np.log(child))), proj.powers)
        self.store.prune_value(t)
        if self.store.count:
            self.ub = self.store.max_value()
        else:
            self.ub = max(self.lb, self.store.dropped_max)


def _identical_carriers():
    # three carriers with bitwise equal data form one group; the fourth differs
    g = np.array([[[2.0], [0.3]], [[0.4], [1.5]]])
    gains = np.concatenate([g, g, g, 0.5 * g], axis=2)
    return make_scenario(gains, noise=0.1, subcarrier_cap=1.0)


# (scenario, epsilon, iteration budget)
DROPS = {
    "k1": (k1_scenario(gain=3.0, noise=0.5, cap=2.0), 1e-3, 100),
    "tie-sym2": (sym2_scenario(q_cap=2.0), 1e-3, 200),
    "tie-sym3": (make_scenario(np.full((3, 3, 1), 0.5) + np.eye(3)[:, :, None], noise=0.2), 1e-3, 300),
    "identical-carriers": (_identical_carriers(), 1e-3, 300),
    "K6-L2": (generate_scenario(RadioConfig(num_cells=6, num_subcarriers=2, users_per_cell=2, fading=True),
                                seed=[0, 0]), 1e-4, 200),
    "K8-L2-no-fading": (generate_scenario(RadioConfig(num_cells=8, num_subcarriers=2, users_per_cell=2),
                                          seed=[0, 0]), 1e-3, 200),
    "K10-[0,7]": (generate_scenario(RadioConfig(num_cells=10, users_per_cell=2, fading=True), seed=[0, 7]),
                  0.01, 250),
}


def _fields(res):
    return (
        res.status,
        res.iterations,
        res.sum_rate_nats,
        res.upper_bound,
        res.z.tobytes(),
        res.allocation.p.tobytes(),
        res.trace,
    )


@pytest.mark.parametrize("name", sorted(DROPS))
def test_solve_matches_the_per_child_store(name, monkeypatch):
    s, eps, budget = DROPS[name]
    new = P.solve(s, eps, max_iterations=budget)
    monkeypatch.setattr(P, "_CarrierSearch", _ReferenceSearch)
    ref = P.solve(s, eps, max_iterations=budget)
    assert ref.iterations > 0 or name == "k1"
    assert _fields(new) == _fields(ref)

"""The benchmark's workloads: what each pass calls, and how results are checked.

A workload is built from the run seed into a list of tasks. A task is one
top-level call of nomaopt's public API (a solve, a sweep, a grid search, a
CDF study), the correctness gate for its result, and a digest of the
result for the determinism check. Building the tasks (drawing scenarios)
is the set-up; calling them is the timed pass. The gate and everything it
needs (baselines, grid oracles) run after the timed passes.

The solver workloads (multicarrier, fading1) solve a fixed suite of drops
and use the seed only to order it. Their solve times are heavy-tailed in
the drop: one fresh (K=3, L=2) drop takes 0.3 s and another 5.4 s at
epsilon 0.01, and even one dB of seeded shadowing on fixed drops moved a
nine-solve pass from 17.7 to 25.9 s and its certified count from 1 to 4. No run that fits the time budget averages that out,
so the draw is held fixed and the spread between runs measures the
program. The sweep and oracle-cdf workloads cost the same on any drop and
draw fresh scenarios from the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nomaopt.experiments as E
import nomaopt.model as M
import nomaopt.oracle as O
import nomaopt.polyblock as P
import nomaopt.reduction as R

# Iterations a solve may take before it reports budget_exceeded.
BUDGET = 120
# Slack on comparisons between independently computed rates (nats): the
# solver itself raises when its objective and the model disagree by more.
TOL = 1e-6


@dataclass
class Task:
    """One timed public call plus its untimed correctness gate.

    ``call`` runs the call and returns its result; ``check`` returns the
    gate's violations for a result; ``certified`` tells whether a result
    carries a certificate; ``digest`` identifies a result bit for bit.
    ``units`` counts the Monte Carlo trials a call completes (1 for a
    single solve or search).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], tuple]
    certified: Callable[[object], bool] = lambda result: True
    units: int = 1
    info: Callable[[object], dict] = lambda result: {}


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _baseline_rates(s) -> list[float]:
    return [O.baseline_full_power(s).sum_rate_nats, O.baseline_greedy(s).sum_rate_nats]


# Grid points per dimension: about 2.6 million points per timed search, and
# coarser grids (still fine enough for the A1 acceptance tolerance) where
# the grid only serves the correctness gate or a smoke run.
_TIMED_GRID = {2: 1600, 3: 137, 4: 40}
_GATE_GRID = {1: 10_000, 2: 200, 3: 40, 4: 16}


def _solver_tasks(scenarios, epsilon: float, seed: int) -> list[Task]:
    order = np.random.default_rng(seed).permutation(len(scenarios))
    return [_solve_task(label, s, epsilon) for label, s in (scenarios[i] for i in order)]


def _solve_task(label: str, s, epsilon: float) -> Task:
    ref = {}

    def check(res) -> list[str]:
        bad = []
        if not M.check_feasible(s, res.allocation).feasible:
            bad.append("allocation infeasible")
        if res.status not in ("optimal", "budget_exceeded") or res.certified != (res.status == "optimal"):
            bad.append(f"status {res.status} with certified={res.certified}")
        if res.certified and res.upper_bound - res.sum_rate_nats > epsilon + TOL:
            bad.append(f"certified gap {res.upper_bound - res.sum_rate_nats} > {epsilon}")
        if "baselines" not in ref:
            ref["baselines"] = _baseline_rates(s)
        if res.upper_bound < max(ref["baselines"]) - TOL:
            bad.append(f"upper bound {res.upper_bound} below a baseline {ref['baselines']}")
        dim = R.reduce_scenario(s).dim
        if dim <= 4:
            if "grid" not in ref:
                ref["grid"] = O.grid_optimum(s, _GATE_GRID[dim])
            g = ref["grid"]
            if not (g.value - TOL <= res.upper_bound and res.sum_rate_nats <= g.value + g.error_bound + TOL):
                bad.append(f"grid sandwich fails: grid {g.value}+{g.error_bound}")
            if res.certified and res.sum_rate_nats < g.value - epsilon - TOL:
                bad.append(f"certified rate {res.sum_rate_nats} more than epsilon below the grid's {g.value}")
        return [f"{label}: {b}" for b in bad]

    return Task(
        label=label,
        call=lambda: P.solve(s, epsilon, max_iterations=BUDGET),
        check=check,
        digest=lambda r: (r.status, r.iterations, r.sum_rate_nats, r.upper_bound),
        certified=lambda r: r.certified,
        info=lambda r: {"status": r.status, "iterations": r.iterations,
                        "gap": r.upper_bound - r.sum_rate_nats},
    )


def multicarrier(seed: int, smoke: bool) -> list[Task]:
    """Joint solves over (cells, carriers) in {(3,2), (2,3), (2,4)}, no fading.

    epsilon is 0.05: at 0.01 only 2 of the first three drops of each shape
    certify within 200 iterations and a pass takes about 20 s, so the
    passes that steady the timings would not fit the run. At 0.05 the
    (K=2, L=4) drops still exhaust the budget.
    """
    shapes, drops = (((2, 2),), 1) if smoke else (((3, 2), (2, 3), (2, 4)), 2)
    scenarios = [
        (f"K{K}L{L}d{i}",
         E.generate_scenario(E.RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=2), seed=[0, i]))
        for K, L in shapes
        for i in range(drops)
    ]
    return _solver_tasks(scenarios, 0.1 if smoke else 0.05, seed)


def fading1(seed: int, smoke: bool) -> list[Task]:
    """Single-carrier solves with fading, K in {5, 6}."""
    cells, drops = ((2, 3), 1) if smoke else ((5, 6), 4)
    scenarios = [
        (f"K{K}d{i}",
         E.generate_scenario(E.RadioConfig(num_cells=K, users_per_cell=2, fading=True), seed=[0, i]))
        for K in cells
        for i in range(drops)
    ]
    return _solver_tasks(scenarios, 0.1 if smoke else 0.01, seed)


SWEEP_CAPS = (1e-7, 1e-6, 1e-5, 1e-4)
SWEEP_EPSILONS = (0.1, 0.5, 1.0)


def sweep(seed: int, smoke: bool) -> list[Task]:
    """power_sweep calls on the default RadioConfig with two threads each."""
    calls, trials = (1, 2) if smoke else (6, 4)
    caps = SWEEP_CAPS[1:3] if smoke else SWEEP_CAPS
    epsilons = SWEEP_EPSILONS[1:2] if smoke else SWEEP_EPSILONS
    tasks = []
    for c in range(calls):
        cfg = E.RadioConfig(seed=_derived_seed(seed, c))
        drops = [E.generate_scenario(cfg, seed=[cfg.seed, t]) for t in range(trials)]
        tasks.append(_sweep_task(f"sweep{c}", cfg, drops, caps, epsilons, trials))
    return tasks


def _sweep_task(label, cfg, drops, caps, epsilons, trials) -> Task:
    grids = {}

    def check(res) -> list[str]:
        bad = []
        rows = {(r.cap_w, r.epsilon, r.algo): r.mean_sum_rate_nats for r in res.rows}
        for cap in caps:
            for eps in epsilons:
                if rows[cap, eps, "polyblock"] < rows[cap, eps, "greedy"] - eps - TOL:
                    bad.append(f"cap {cap} eps {eps}: polyblock mean below greedy mean - eps")
        rates = {(r.cap_w, r.epsilon, r.algo, r.trial): r.sum_rate_nats for r in res.records}
        for t, base in enumerate(drops):
            for cap in caps:
                if (t, cap) not in grids:
                    s = E.scenario_with_caps(base, cap)
                    grids[t, cap] = O.grid_optimum(s, _GATE_GRID[R.reduce_scenario(s).dim])
                g = grids[t, cap]
                top = g.value + g.error_bound + TOL
                for eps in epsilons:
                    pb = rates[cap, eps, "polyblock", t]
                    if not (g.value - eps - TOL <= pb <= top):
                        bad.append(f"trial {t} cap {cap} eps {eps}: polyblock {pb} outside grid sandwich")
                    for algo in ("full-power", "greedy"):
                        if rates[cap, eps, algo, t] > top:
                            bad.append(f"trial {t} cap {cap}: {algo} above the grid bound")
        return [f"{label}: {b}" for b in bad]

    return Task(
        label=label,
        call=lambda: E.power_sweep(cfg, caps, epsilons, trials, threads=2),
        check=check,
        digest=lambda res: tuple(r.sum_rate_nats for r in res.records),
        units=trials,
    )


def oracle_cdf(seed: int, smoke: bool) -> list[Task]:
    """Grid searches on instances with at most four powers, and K=3 CDF studies."""
    shapes = ((2, 2), (2, 1)) if smoke else ((2, 2), (4, 1), (3, 1), (2, 1))
    drops, cdfs, samples = (1, 1, 1000) if smoke else (2, 6, 100_000)
    tasks = []
    for K, L in shapes:
        for i in range(drops):
            s = E.generate_scenario(E.RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=2),
                                    seed=[seed, K, L, i])
            tasks.append(_grid_task(f"grid-K{K}L{L}d{i}", s, (_GATE_GRID if smoke else _TIMED_GRID)[K * L]))
    for c in range(cdfs):
        cfg = E.RadioConfig(num_cells=3, seed=_derived_seed(seed, c))
        tasks.append(Task(
            label=f"cdf{c}",
            call=lambda cfg=cfg: E.cdf_experiment(cfg, samples),
            check=lambda res, label=f"cdf{c}": [f"{label}: {b}" for b in _cdf_violations(res)],
            digest=lambda res: (res.p_nonneg, res.p_margin_nonneg, hashlib.sha256(res.values.tobytes()).hexdigest()),
        ))
    return tasks


def _grid_task(label: str, s, points: int) -> Task:
    def check(g) -> list[str]:
        bad = []
        r = R.reduce_scenario(s)
        alloc = R.allocation_from_powers(r, g.q)
        if not M.check_feasible(s, alloc).feasible:
            bad.append("grid point infeasible")
        rate = M.sum_rate(s, M.build_decoding_order(s), alloc)
        if abs(rate - g.value) > TOL:
            bad.append(f"grid value {g.value} but model rate {rate}")
        if max(_baseline_rates(s)) > g.value + g.error_bound + TOL:
            bad.append("a baseline beats the grid's upper bound")
        return [f"{label}: {b}" for b in bad]

    return Task(
        label=label,
        call=lambda: O.grid_optimum(s, points),
        check=check,
        digest=lambda g: (g.value, g.error_bound, g.evaluated),
        info=lambda g: {"points": g.evaluated},
    )


def _cdf_violations(res) -> list[str]:
    bad = []
    v = res.values
    if res.num_values != v.shape[0] or np.any(np.diff(v) < 0):
        bad.append("values not sorted or miscounted")
    if not np.all(np.diff(res.cdf) > 0) or res.cdf[-1] != 1.0:
        bad.append("cdf not increasing to 1")
    if res.p_nonneg != np.count_nonzero(v >= 0.0) / v.shape[0]:
        bad.append("p_nonneg disagrees with the values")
    for p, lo, hi in ((res.p_nonneg, res.ci_low, res.ci_high),
                      (res.p_margin_nonneg, res.margin_ci_low, res.margin_ci_high)):
        if not 0.0 <= lo <= p <= hi <= 1.0:
            bad.append(f"interval [{lo}, {hi}] does not hold {p}")
    return bad


WORKLOADS = {
    "multicarrier": multicarrier,
    "fading1": fading1,
    "sweep": sweep,
    "oracle-cdf": oracle_cdf,
}

"""Acceptance gate: end-to-end checks on solver quality, experiment
reproducibility, orderings, and structural properties.

Each test covers one acceptance criterion and prints a single PASS/FAIL
summary line (visible even without -s) before asserting, so a plain
``pytest -v`` run yields one verdict line per criterion.
"""

import math

import numpy as np
import pytest

from nomaopt.experiments import (
    RadioConfig,
    cdf_experiment,
    generate_scenario,
    power_sweep,
    runtime_bench,
    scenario_with_caps,
)
from nomaopt.fractional import dinkelbach_project
from nomaopt.model import Allocation, build_decoding_order, sic_pair_margin, sum_rate
from nomaopt.oracle import grid_optimum
from nomaopt.polyblock import solve
from nomaopt.reduction import (
    membership,
    objective,
    p_from_z,
    reduce_scenario,
    sum_rate_from_powers,
    z_from_p,
)

from conftest import random_scenario


def _report(capsys, ok, text):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {text}")


# Frozen reference statistics for the pairwise-statistic experiment with
# RadioConfig(users_per_cell=2, seed=0) and 100000 drops. The margin
# probability threshold 0.90 is the pre-registered bound; the frozen values
# pin bit-exact reproducibility of the estimator itself.
CDF_CFG = RadioConfig(users_per_cell=2, seed=0)
CDF_SAMPLES = 100_000
CDF_P_NONNEG = 0.80706
CDF_CI = (0.8053247021551136, 0.8087835024879885)
CDF_P_MARGIN = 0.994055
CDF_MARGIN_CI = (0.9937084700932648, 0.9943825513518854)
CDF_THRESHOLD = 0.90

SWEEP_CAPS = [1e-5, 3.162e-5, 1e-4]
SWEEP_EPS = [0.1, 0.5, 1.0]


@pytest.fixture(scope="module")
def certified_runs():
    """20 paired (solve, grid) runs on seeded two-cell instances.

    Default radio config: 2 cells, 3 users per cell, 1 carrier, 100 m
    radius, 4e-7 W per-carrier cap. Trials use per-trial seed streams.
    """
    cfg = RadioConfig()
    runs = []
    for trial in range(20):
        s = generate_scenario(cfg, seed=[0, trial])
        res = solve(s, epsilon=0.01)
        ref = grid_optimum(s, grid_points_per_dim=400)
        runs.append((s, res, ref))
    return runs


def test_a1_certified_value_matches_grid_oracle(certified_runs, capsys):
    problems = []
    worst_gap = 0.0
    worst_allow = math.inf
    worst_bound = 0.0
    slowest = 0.0
    for trial, (s, res, ref) in enumerate(certified_runs):
        gap = abs(res.sum_rate_nats - ref.value)
        allow = 0.01 + ref.error_bound
        worst_gap = max(worst_gap, gap)
        worst_allow = min(worst_allow, allow)
        worst_bound = max(worst_bound, ref.error_bound)
        slowest = max(slowest, res.wall_time_s)
        if res.status != "optimal" or not res.certified:
            problems.append(f"trial {trial}: status={res.status} certified={res.certified}")
        if gap > allow:
            problems.append(f"trial {trial}: |solver - grid| = {gap:.3e} > {allow:.3e}")
        if res.wall_time_s >= 60.0:
            problems.append(f"trial {trial}: took {res.wall_time_s:.1f} s")
        if ref.error_bound > 1e-3:
            problems.append(f"trial {trial}: grid error bound {ref.error_bound:.3e} > 1e-3 nats")
    _report(
        capsys,
        not problems,
        "A1 certified solves match 400-per-dim grid oracle on 20 seeded instances "
        f"(max |gap| {worst_gap:.2e}, tightest allowance {worst_allow:.2e}, "
        f"largest grid error bound {worst_bound:.2e} nats, "
        f"slowest solve {slowest * 1e3:.1f} ms, limit 60 s)",
    )
    assert not problems, "\n".join(problems)


def test_a2_pairwise_statistic_cdf(capsys):
    res = cdf_experiment(CDF_CFG, CDF_SAMPLES)
    res2 = cdf_experiment(CDF_CFG, CDF_SAMPLES)
    problems = []
    if not (
        np.array_equal(res.values, res2.values)
        and np.array_equal(res.cdf, res2.cdf)
        and res.p_nonneg == res2.p_nonneg
        and res.p_margin_nonneg == res2.p_margin_nonneg
    ):
        problems.append("repeat run is not bit-exact")
    if np.any(np.diff(res.values) < 0) or np.any(np.diff(res.cdf) < 0):
        problems.append("empirical CDF is not monotone")
    if res.cdf[-1] != 1.0:
        problems.append(f"CDF ends at {res.cdf[-1]}, expected 1.0")
    frozen = [
        ("p_nonneg", res.p_nonneg, CDF_P_NONNEG),
        ("ci_low", res.ci_low, CDF_CI[0]),
        ("ci_high", res.ci_high, CDF_CI[1]),
        ("p_margin_nonneg", res.p_margin_nonneg, CDF_P_MARGIN),
        ("margin_ci_low", res.margin_ci_low, CDF_MARGIN_CI[0]),
        ("margin_ci_high", res.margin_ci_high, CDF_MARGIN_CI[1]),
    ]
    for name, got, want in frozen:
        if got != want:
            problems.append(f"{name} = {got!r} drifted from frozen {want!r}")
    if res.num_values != 2 * CDF_SAMPLES or res.num_margins != 2 * CDF_SAMPLES:
        problems.append(f"sample counts {res.num_values}/{res.num_margins}")
    if res.p_margin_nonneg < res.p_nonneg:
        problems.append("margin probability below raw statistic probability")
    if res.margin_ci_low < CDF_THRESHOLD:
        problems.append(
            f"margin CI lower bound {res.margin_ci_low:.6f} < {CDF_THRESHOLD}"
        )
    _report(
        capsys,
        not problems,
        "A2 pairwise-statistic experiment reproducible bit-exactly; "
        f"P(statistic >= 0) = {res.p_nonneg:.5f} "
        f"[{res.ci_low:.5f}, {res.ci_high:.5f}], "
        f"P(margin >= 0 at cap {res.cap_w:g} W) = {res.p_margin_nonneg:.5f} "
        f"[{res.margin_ci_low:.5f}, {res.margin_ci_high:.5f}] "
        f">= {CDF_THRESHOLD} (n = {res.num_margins})",
    )
    assert not problems, "\n".join(problems)


def test_a3_power_sweep_orderings(capsys):
    trials = 10
    res = power_sweep(RadioConfig(), SWEEP_CAPS, SWEEP_EPS, trials=trials)
    by = {(r.cap_w, r.epsilon, r.algo, r.trial): r.sum_rate_nats for r in res.records}
    problems = []
    for t in range(trials):
        for algo in ("polyblock", "full-power", "greedy"):
            for eps in SWEEP_EPS:
                seq = [by[(c, eps, algo, t)] for c in SWEEP_CAPS]
                for i in range(len(seq) - 1):
                    if seq[i + 1] < seq[i] - 1e-9:
                        problems.append(
                            f"trial {t} {algo} eps={eps}: rate drops "
                            f"{seq[i]:.6f} -> {seq[i + 1]:.6f} as cap grows"
                        )
        for cap in SWEEP_CAPS:
            for eps in SWEEP_EPS:
                pb = by[(cap, eps, "polyblock", t)]
                for base in ("full-power", "greedy"):
                    if pb < by[(cap, eps, base, t)] - eps - 1e-12:
                        problems.append(
                            f"trial {t} cap={cap:g} eps={eps}: polyblock {pb:.6f} "
                            f"< {base} {by[(cap, eps, base, t)]:.6f} - eps"
                        )
            nested = [by[(cap, e, "polyblock", t)] for e in SWEEP_EPS]
            for i in range(len(nested) - 1):
                if nested[i] < nested[i + 1] - 1e-9:
                    problems.append(
                        f"trial {t} cap={cap:g}: f*({SWEEP_EPS[i]}) = {nested[i]:.9f} "
                        f"< f*({SWEEP_EPS[i + 1]}) = {nested[i + 1]:.9f}"
                    )
    for row in res.rows:
        if row.algo == "polyblock":
            for base_row in res.rows:
                if (
                    base_row.cap_w == row.cap_w
                    and base_row.epsilon == row.epsilon
                    and base_row.algo != "polyblock"
                    and row.mean_sum_rate_nats
                    < base_row.mean_sum_rate_nats - row.epsilon - 1e-12
                ):
                    problems.append(
                        f"row cap={row.cap_w:g} eps={row.epsilon}: mean polyblock "
                        f"below mean {base_row.algo} - eps"
                    )
    _report(
        capsys,
        not problems,
        "A3 sweep over caps [1e-05, 3.162e-05, 0.0001] W, eps {0.1, 0.5, 1}, 10 trials: "
        "per-trial rate non-decreasing in cap, polyblock >= each baseline - eps on "
        "every row and trial, f*(0.1) >= f*(0.5) >= f*(1.0) per instance",
    )
    assert not problems, "\n".join(problems)


def test_a4_runtime_non_increasing_in_epsilon(capsys):
    res = runtime_bench(RadioConfig(subcarrier_cap_w=1e-4), SWEEP_EPS, trials=20)
    rows = [r for r in res.rows if r.algo == "polyblock"]
    rows.sort(key=lambda r: r.epsilon)
    problems = []
    for lo, hi in zip(rows, rows[1:]):
        if hi.mean_ms > lo.mean_ms:
            problems.append(
                f"mean runtime rose {lo.mean_ms:.2f} ms (eps={lo.epsilon}) -> "
                f"{hi.mean_ms:.2f} ms (eps={hi.epsilon})"
            )
        if hi.mean_iters > lo.mean_iters:
            problems.append(
                f"mean iterations rose {lo.mean_iters:.2f} (eps={lo.epsilon}) -> "
                f"{hi.mean_iters:.2f} (eps={hi.epsilon})"
            )
    timing = ", ".join(f"eps {r.epsilon:g}: {r.mean_ms:.1f} ms" for r in rows)
    _report(
        capsys,
        not problems,
        f"A4 mean solver runtime non-increasing in eps over 20 trials ({timing})",
    )
    assert not problems, "\n".join(problems)


def _shrunk(rng, z):
    u = rng.uniform(0.0, 1.0, size=z.shape)
    return 1.0 + u * (z - 1.0)


def test_a5_structure_property_suites(capsys):
    rng = np.random.default_rng(20240811)
    problems = []

    # Monotone inverse: z1 <= z2 pointwise implies p(z1) <= p(z2) pointwise.
    checked = 0
    for _ in range(100):
        s = random_scenario(rng, num_cells=int(rng.integers(1, 3)), num_subcarriers=int(rng.integers(1, 3)))
        r = reduce_scenario(s)
        caps = r.cap_carrier.reshape(-1)
        for _ in range(10):
            q2 = caps * rng.uniform(0.0, 1.0, size=r.dim)
            sv2 = z_from_p(r, q2)
            sv1 = _shrunk(rng, sv2)
            p1 = p_from_z(r, sv1)
            p2 = p_from_z(r, sv2)
            if np.any(p1 > p2 + 1e-9):
                problems.append(f"monotonicity: p(z1) exceeds p(z2) by {np.max(p1 - p2):.2e}")
            checked += 1
    mono_n = checked

    # Downward closure: shrinking a realizable vector keeps it realizable.
    checked = 0
    for _ in range(100):
        s = random_scenario(rng, num_cells=int(rng.integers(1, 3)), num_subcarriers=int(rng.integers(1, 3)))
        r = reduce_scenario(s)
        caps = r.cap_carrier.reshape(-1)
        for _ in range(10):
            sv = z_from_p(r, caps * rng.uniform(0.0, 1.0, size=r.dim))
            if not membership(r, _shrunk(rng, sv)):
                problems.append("normality: shrunk realizable vector rejected")
            checked += 1
    norm_n = checked

    # Objective is Lipschitz in the 1-norm with constant max weight on z >= 1.
    checked = 0
    for _ in range(1000):
        s = random_scenario(rng)
        r = reduce_scenario(s)
        za = 1.0 + rng.uniform(0.0, 49.0, size=r.dim)
        zb = 1.0 + rng.uniform(0.0, 49.0, size=r.dim)
        w = rng.uniform(0.05, 1.0, size=r.dim)
        diff = abs(objective(za, w) - objective(zb, w))
        bound = float(np.max(w)) * float(np.sum(np.abs(za - zb)))
        if diff > bound + 1e-12:
            problems.append(f"lipschitz: |df| = {diff:.3e} > {bound:.3e}")
        checked += 1
    lip_n = checked

    # Pair margin sign agrees with the raw decode-SINR comparison.
    checked = 0
    while checked < 1000:
        s = random_scenario(rng, users_per_cell=int(rng.integers(2, 4)))
        order = build_decoding_order(s)
        l = 0
        for k in range(s.num_cells):
            pi = order.order[k][l]
            weak, strong = pi[0], pi[-1]
            gw = s.gains[k, s.global_user(k, weak), l]
            gs = s.gains[k, s.global_user(k, strong), l]
            if not gw < gs:
                continue
            p_cross = s.subcarrier_cap[:, l] * rng.uniform(0.0, 1.0, size=s.num_cells)
            p_w = rng.uniform(0.1, 1.0)
            p_s = rng.uniform(0.1, 1.0)
            i_s = sum(
                s.gains[j, s.global_user(k, strong), l] * p_cross[j]
                for j in range(s.num_cells)
                if j != k
            )
            i_w = sum(
                s.gains[j, s.global_user(k, weak), l] * p_cross[j]
                for j in range(s.num_cells)
                if j != k
            )
            at_strong = gs * p_w / (gs * p_s + i_s + s.noise_power)
            at_weak = gw * p_w / (gw * p_s + i_w + s.noise_power)
            direct = at_strong - at_weak
            margin = sic_pair_margin(s, k, l, weak, strong, p_cross)
            scale = at_strong + at_weak
            if abs(direct) <= 1e-12 * scale:
                if abs(margin) > 1e-9 * (gs * (i_w + s.noise_power) + gw * (i_s + s.noise_power)):
                    problems.append("sign equivalence: tie in one form only")
            elif (direct > 0) != (margin > 0):
                problems.append(
                    f"sign equivalence: direct {direct:.3e} vs margin {margin:.3e}"
                )
            checked += 1
    sign_n = checked

    # With per-cell totals fixed, interference seen from a cell depends only
    # on its total, so cells decouple and the check runs one cell at a time.
    # All-power-to-the-best-gain-user dominates every split and singleton in
    # a cell exactly when all gain-ordered pair margins of that cell are
    # non-negative at the fixed cross totals; a negative margin means the
    # weaker-gain user has the better effective ratio and the premise of the
    # dominance claim fails, so such cells are skipped and resampled.
    grid_evals = 0
    cells_checked = 0
    attempts = 0
    while cells_checked < 10 and attempts < 200:
        attempts += 1
        s = random_scenario(
            rng,
            num_cells=int(rng.integers(1, 3)),
            users_per_cell=int(rng.integers(2, 4)),
        )
        r = reduce_scenario(s)
        order = build_decoding_order(s)
        offsets = np.concatenate([[0], np.cumsum(s.users_per_cell)])
        totals = s.subcarrier_cap[:, 0] * rng.uniform(0.3, 1.0, size=s.num_cells)

        def value_of(cell_vecs):
            p = np.zeros(s.size)
            for k, vec in enumerate(cell_vecs):
                for u, pw in enumerate(vec):
                    p[s.flat_index(k, 0, u)] = pw
            alloc = Allocation(a=(p > 0).astype(int), p=p)
            return sum_rate(s, order, alloc)

        best_user_vecs = []
        for k in range(s.num_cells):
            vec = np.zeros(s.users_per_cell[k])
            vec[r.best_user[k][0]] = totals[k]
            best_user_vecs.append(vec)
        ref = value_of(best_user_vecs)

        for k in range(s.num_cells):
            m = s.users_per_cell[k]
            q = totals[k]
            pairs = []
            decodable = True
            for a in range(m):
                for b in range(a + 1, m):
                    ga = s.gains[k, offsets[k] + a, 0]
                    gb = s.gains[k, offsets[k] + b, 0]
                    if ga == gb:
                        decodable = False
                        break
                    weak, strong = (a, b) if ga < gb else (b, a)
                    if sic_pair_margin(s, k, 0, weak, strong, totals) < 0:
                        decodable = False
                        break
                    pairs.append((weak, strong))
                if not decodable:
                    break
            if not decodable:
                continue
            cands = []
            for u in range(m):
                vec = np.zeros(m)
                vec[u] = q
                cands.append(vec)
            for weak, strong in pairs:
                for x in np.linspace(0.0, q, 21)[1:-1]:
                    vec = np.zeros(m)
                    vec[strong] = x
                    vec[weak] = q - x
                    cands.append(vec)
            for vec in cands:
                grid_evals += 1
                combo = list(best_user_vecs)
                combo[k] = vec
                val = value_of(combo)
                if val > ref + 1e-9:
                    problems.append(
                        f"no-split: cell {k} allocation beats best-user by {val - ref:.3e}"
                    )
            cells_checked += 1
    if cells_checked < 10:
        problems.append(f"no-split: only {cells_checked} decodable cells in {attempts} draws")

    # Finite-difference slope of moving power toward the stronger user is
    # positive whenever the pair margin is non-negative.
    fd_checked = 0
    while fd_checked < 100:
        s = random_scenario(rng, users_per_cell=2)
        order = build_decoding_order(s)
        offsets = np.concatenate([[0], np.cumsum(s.users_per_cell)])
        k = int(rng.integers(0, s.num_cells))
        g0 = s.gains[k, offsets[k] + 0, 0]
        g1 = s.gains[k, offsets[k] + 1, 0]
        if g0 == g1:
            continue
        weak, strong = (0, 1) if g0 < g1 else (1, 0)
        totals = s.subcarrier_cap[:, 0] * rng.uniform(0.2, 1.0, size=s.num_cells)
        if sic_pair_margin(s, k, 0, weak, strong, totals) < 1e-9:
            continue
        q = totals[k]

        def phi(x):
            p = np.zeros(s.size)
            for j in range(s.num_cells):
                if j == k:
                    continue
                p[s.flat_index(j, 0, 0)] = totals[j]
            p[s.flat_index(k, 0, strong)] = x
            p[s.flat_index(k, 0, weak)] = q - x
            return sum_rate(s, order, Allocation(a=(p > 0).astype(int), p=p))

        x0 = q * rng.uniform(0.05, 0.95)
        h = 1e-6 * q
        slope = (phi(x0 + h) - phi(x0 - h)) / (2.0 * h)
        if not slope > 0.0:
            problems.append(f"derivative: slope {slope:.3e} <= 0 at margin >= 0")
        fd_checked += 1

    _report(
        capsys,
        not problems,
        f"A5 structure suites: inverse monotone on {mono_n} vector pairs, "
        f"downward closed on {norm_n} shrink tests, Lipschitz bound on {lip_n} pairs, "
        f"decode-margin sign equivalence on {sign_n} points, no-split optimality on "
        f"{cells_checked} exhaustively gridded decodable cells ({grid_evals} allocations), "
        f"positive power-shift slope at {fd_checked} decodable points",
    )
    assert not problems, "\n".join(problems)


def test_a6_reformulation_consistency(capsys):
    rng = np.random.default_rng(20240812)
    problems = []

    round_trips = 0
    for _ in range(100):
        s = random_scenario(rng, num_cells=int(rng.integers(1, 3)), num_subcarriers=int(rng.integers(1, 3)))
        r = reduce_scenario(s)
        caps = r.cap_carrier.reshape(-1)
        for _ in range(10):
            q = caps * rng.uniform(0.0, 1.0, size=r.dim)
            if rng.uniform() < 0.2:
                q[rng.integers(0, r.dim)] = 0.0
            sv = z_from_p(r, q)
            q_back = p_from_z(r, sv)
            scale = max(1.0, float(np.max(caps)))
            if np.any(np.abs(q_back - q) > 1e-9 * scale):
                problems.append(f"round trip drift {np.max(np.abs(q_back - q)):.2e}")
            f_obj = objective(sv)
            f_direct = sum_rate_from_powers(r, q)
            if abs(f_obj - f_direct) > 1e-9 * max(1.0, abs(f_direct)):
                problems.append(f"objective mismatch {abs(f_obj - f_direct):.2e}")
            round_trips += 1

    idem = 0
    for _ in range(100):
        s = random_scenario(rng, num_cells=int(rng.integers(1, 3)))
        r = reduce_scenario(s)
        caps = r.cap_carrier.reshape(-1)
        za = z_from_p(r, caps * rng.uniform(0.05, 1.0, size=r.dim))
        outside = 1.0 + (za - 1.0) * rng.uniform(1.0, 4.0)
        proj = dinkelbach_project(r, outside)
        again = dinkelbach_project(r, proj.z_proj)
        if abs(again.lam - 1.0) > 1e-6:
            problems.append(f"re-projection lambda {again.lam!r} not within 1e-6 of 1")
        idem += 1

    _report(
        capsys,
        not problems,
        f"A6 reformulation consistent: {round_trips} power/ratio round trips within "
        f"1e-9, objective equals direct sum rate on each, re-projection scale within "
        f"1e-6 of 1 on {idem} boundary points",
    )
    assert not problems, "\n".join(problems)


def test_a7_trace_invariants_and_certificates(certified_runs, capsys):
    results = [res for (_, res, _) in certified_runs]
    cfg = RadioConfig()
    for trial in range(6):
        s = scenario_with_caps(generate_scenario(cfg, seed=[7, trial]), 1e-4)
        results.append(solve(s, epsilon=0.1))
    s = scenario_with_caps(generate_scenario(cfg, seed=[7, 0]), 1e-4)
    results.append(solve(s, epsilon=1e-4, max_iterations=3))
    # distinct carriers: the trace sums bounds over carriers
    multi = RadioConfig(num_cells=2, num_subcarriers=3, users_per_cell=2, fading=True)
    s = generate_scenario(multi, seed=[7, 1])
    results.append(solve(s, epsilon=0.05))
    results.append(solve(s, epsilon=1e-4, max_iterations=3))

    problems = []
    rows_seen = 0
    for idx, res in enumerate(results):
        prev_ub = math.inf
        prev_inc = -math.inf
        for row in res.trace:
            rows_seen += 1
            if row.upper_bound > prev_ub + 1e-12 * abs(prev_ub):
                problems.append(f"result {idx}: upper bound rose at iteration {row.iteration}")
            if row.incumbent < prev_inc - 1e-12 * abs(prev_inc):
                problems.append(f"result {idx}: incumbent fell at iteration {row.iteration}")
            if row.upper_bound < row.incumbent - 1e-12 * abs(row.incumbent):
                problems.append(f"result {idx}: bound below incumbent at iteration {row.iteration}")
            prev_ub = row.upper_bound
            prev_inc = row.incumbent
        if res.certified:
            gap = res.upper_bound - res.sum_rate_nats
            if gap > res.epsilon + 1e-9:
                problems.append(f"result {idx}: certified gap {gap:.3e} > eps {res.epsilon}")
        elif res.status == "budget_exceeded":
            if res.upper_bound is None or res.upper_bound < res.sum_rate_nats - 1e-12:
                problems.append(f"result {idx}: budget run lacks a valid sandwich")
        else:
            problems.append(f"result {idx}: unexpected status {res.status}")
    certified = sum(1 for r in results if r.certified)
    _report(
        capsys,
        not problems,
        f"A7 loop invariants hold on {rows_seen} trace rows from {len(results)} solves; "
        f"all {certified} certified runs close the gap within eps",
    )
    assert not problems, "\n".join(problems)

"""Scenario generation from a radio layout and the three desk studies.

Cells are regular hexagons of a given circumradius with base stations on
the x axis at the edge-sharing spacing (sqrt(3) times the radius apart;
the hexagons have vertical side edges and their topmost point one radius
above the center). Users are dropped uniformly over their hexagon by
rejection sampling. Link gains follow the macro path-loss model
  PL_dB(d) = intercept + slope * log10(d_km)
with distances clamped below at a minimum separation, converted to linear
power gains; gains are identical across sub-carriers of a link unless the
off-by-default i.i.d. exponential fading hook is enabled. Noise power is
the configured spectral density integrated over one sub-carrier
bandwidth.

The three studies are: the empirical CDF of the pairwise decodability
statistic, mean sum rate versus per-carrier power cap for the solver and
both baselines, and solver runtime versus epsilon. All are deterministic
given the configured seed; Monte Carlo trials use independent
per-trial streams spawned as (seed, trial index).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .model import LN2, Scenario, ScenarioError, _integer, _read_json, _real, _write_csv
from .oracle import baseline_full_power, baseline_greedy
from .polyblock import solve

__all__ = [
    "RadioConfig",
    "generate_scenario",
    "scenario_with_caps",
    "CdfResult",
    "cdf_experiment",
    "SweepRecord",
    "SweepRow",
    "SweepResult",
    "power_sweep",
    "BenchRecord",
    "BenchRow",
    "BenchResult",
    "runtime_bench",
    "wilson_interval",
    "write_cdf_csv",
    "write_sweep_csv",
    "write_bench_csv",
]

@dataclass(frozen=True)
class RadioConfig:
    """Layout, propagation and budget parameters for scenario generation."""

    num_cells: int = 2
    users_per_cell: int = 3
    num_subcarriers: int = 1
    sic_limit: int = 2
    cell_radius_m: float = 100.0
    bandwidth_hz: float = 1e6
    noise_density_dbm_hz: float = -174.0
    pathloss_intercept_db: float = 128.1
    pathloss_slope_db: float = 37.6
    subcarrier_cap_w: float = 4e-7
    cell_cap_w: float | None = None
    min_distance_m: float = 1.0
    fading: bool = False
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                object.__setattr__(self, f.name, _integer(value, f.name))
            elif f.type == "bool":
                if not isinstance(value, bool):
                    raise ScenarioError(f"{f.name} must be true or false, got {value!r}")
            elif not (f.type == "float | None" and value is None):
                _real(value, f.name)
        if self.seed < 0:
            raise ScenarioError(f"seed must be non-negative, got {self.seed}")
        if self.num_cells < 1 or self.users_per_cell < 1 or self.num_subcarriers < 1:
            raise ScenarioError("cell, user and sub-carrier counts must be positive")
        if self.sic_limit < 1:
            raise ScenarioError("sic_limit must be positive")
        if not (self.cell_radius_m > 0 and self.bandwidth_hz > 0):
            raise ScenarioError("cell radius and bandwidth must be positive")
        if self.subcarrier_cap_w < 0:
            raise ScenarioError("subcarrier_cap_w must be non-negative")
        if self.cell_cap_w is not None and self.cell_cap_w < 0:
            raise ScenarioError("cell_cap_w must be non-negative")
        if self.min_distance_m <= 0:
            raise ScenarioError("min_distance_m must be positive")

    @property
    def noise_power_w(self) -> float:
        dbm = self.noise_density_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)
        return 10.0 ** ((dbm - 30.0) / 10.0)

    @property
    def effective_cell_cap_w(self) -> float:
        if self.cell_cap_w is not None:
            return self.cell_cap_w
        return self.num_subcarriers * self.subcarrier_cap_w

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RadioConfig":
        return _read_json(cls, "radio config", data=data)

    @classmethod
    def from_json(cls, text: str) -> "RadioConfig":
        return _read_json(cls, "radio config", text=text)


def _bs_positions(cfg: RadioConfig) -> np.ndarray:
    x = np.arange(cfg.num_cells) * math.sqrt(3.0) * cfg.cell_radius_m
    return np.stack([x, np.zeros(cfg.num_cells)], axis=1)


def _sample_hexagon(rng: np.random.Generator, radius: float, center: np.ndarray, out: np.ndarray):
    """Fill out, shape (count, 2), with uniform points in the hexagon around center.

    The hexagon is |x| <= sqrt(3)R/2, |y| <= R - |x|/sqrt(3) relative to
    center; points are drawn by rejection, x and y in rounds of at least 8.
    """
    half_w = math.sqrt(3.0) * radius / 2.0
    count = out.shape[0]
    filled = 0
    while filled < count:
        need = count - filled
        m = max(8, int(1.6 * need))
        x = rng.uniform(-half_w, half_w, size=m)
        y = rng.uniform(-radius, radius, size=m)
        keep = np.flatnonzero(np.abs(y) <= radius - np.abs(x) / math.sqrt(3.0))[:need]
        out[filled : filled + keep.size, 0] = x[keep]
        out[filled : filled + keep.size, 1] = y[keep]
        filled += keep.size
    out += center


def _gain_from_distance(cfg: RadioConfig, d_m: np.ndarray) -> np.ndarray:
    d_km = np.maximum(d_m, cfg.min_distance_m) / 1000.0
    pl_db = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * np.log10(d_km)
    return 10.0 ** (-pl_db / 10.0)


def generate_scenario(cfg: RadioConfig, seed=None) -> Scenario:
    """Drop users and build a Scenario; seed overrides the config's seed."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    K, M, L = cfg.num_cells, cfg.users_per_cell, cfg.num_subcarriers
    bs = _bs_positions(cfg)
    users = np.empty((K * M, 2))
    for k in range(K):
        _sample_hexagon(rng, cfg.cell_radius_m, bs[k], users[k * M : (k + 1) * M])
    d = np.linalg.norm(users[None, :, :] - bs[:, None, :], axis=2)
    gains = np.repeat(_gain_from_distance(cfg, d)[:, :, None], L, axis=2)
    if cfg.fading:
        gains = gains * rng.exponential(1.0, size=gains.shape)
    meta = {
        "seed": cfg.seed if seed is None else np.asarray(seed).tolist(),
        "radio": cfg.to_json_dict(),
        "bs_xy": bs.tolist(),
        "user_xy": users.tolist(),
    }
    return Scenario(
        num_cells=K,
        num_subcarriers=L,
        users_per_cell=(M,) * K,
        sic_limit=cfg.sic_limit,
        gains=gains,
        noise_power=cfg.noise_power_w,
        subcarrier_cap=np.full((K, L), cfg.subcarrier_cap_w),
        cell_cap=np.full(K, cfg.effective_cell_cap_w),
        meta=meta,
    )


def scenario_with_caps(s: Scenario, subcarrier_cap_w: float) -> Scenario:
    """Same gains and layout, every carrier capped at subcarrier_cap_w and
    every cell at the sum of its carrier caps."""
    return replace(
        s,
        subcarrier_cap=np.full((s.num_cells, s.num_subcarriers), subcarrier_cap_w),
        cell_cap=np.full(s.num_cells, s.num_subcarriers * subcarrier_cap_w),
        meta={**s.meta, "cap_override_w": subcarrier_cap_w},
    )


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # the standard normal quantile of a two-sided 95% interval
    if n <= 0:
        raise ValueError("need at least one observation")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


# Drops whose distances, gains and statistics cdf_experiment holds at once.
_CDF_BLOCK = 2048


@dataclass(frozen=True, eq=False)
class CdfResult:
    """Pooled decodability statistics over many independent drops.

    values holds the sorted pairwise gain-product statistic pooled over
    every (cell, sub-carrier, interfering cell, gain-ordered user pair).
    The empirical distribution at those points, ``cdf``, is (rank + 1) /
    num_values; it is derived from the count on each access and never
    stored, so a result holds 8 B per value. p_nonneg estimates the
    probability that this statistic is non-negative (decoding order valid
    for every power choice whatsoever), with a 95% Wilson interval.

    p_margin_nonneg estimates the probability that the full decodability
    margin stays non-negative at the configured caps: the noise term is
    included and every interferer transmits at whatever power in [0, cap]
    hurts most. This is the operative condition for the gain-based
    decoding order at the configured power budget; the product statistic
    is its infinite-power limit.
    """

    values: np.ndarray
    p_nonneg: float
    ci_low: float
    ci_high: float
    p_margin_nonneg: float
    margin_ci_low: float
    margin_ci_high: float
    cap_w: float
    num_scenarios: int
    num_values: int
    num_margins: int

    @property
    def cdf(self) -> np.ndarray:
        """A new array of (rank + 1) / num_values, one entry per value."""
        cdf = np.arange(1.0, self.num_values + 1)
        cdf /= self.num_values
        return cdf

    def summary_dict(self) -> dict:
        return {
            "num_scenarios": self.num_scenarios,
            "num_values": self.num_values,
            "p_nonneg": self.p_nonneg,
            "ci95_low": self.ci_low,
            "ci95_high": self.ci_high,
            "num_margins": self.num_margins,
            "p_margin_nonneg": self.p_margin_nonneg,
            "margin_ci95_low": self.margin_ci_low,
            "margin_ci95_high": self.margin_ci_high,
            "cap_w": self.cap_w,
        }


def cdf_experiment(cfg: RadioConfig, samples: int) -> CdfResult:
    """Empirical CDF of the pairwise decodability statistic.

    For the gain-ordered pair (weak, strong) of a cell on one sub-carrier
    and an interfering base station j, the statistic is
      g_strong * g_j_to_weak  -  g_weak * g_j_to_strong;
    it is non-negative exactly when no power choice of cell j can break
    the pair's decoding, so its mass at or above zero measures how often
    the decoding order is unconditionally safe. The result also carries
    the probability that the full margin (noise term included, every
    interferer at its most harmful power within the cap) is non-negative,
    the operative decodability condition at the configured budget.

    The user positions of all drops are drawn in bulk from the config
    seed, cell after cell. Distances, gains, fading factors, statistics
    and margins are then computed one block of ``_CDF_BLOCK`` drops at a
    time: each block's statistics go into one preallocated array, sorted
    in place at the end, and its margins are only counted. So memory is
    the positions, the ``values`` array and one block; ``cdf`` is derived
    from the count on access. The result is bit for bit that of one pass
    over all drops: each value comes from the same float operations on
    the same draws (exponential draws taken block by block continue one
    stream), the sorted array holds the same multiset, and the counts are
    sums. Every base station sits at y = 0, so a user's y offset is its y
    coordinate, squared once per block for all stations. Without fading
    every carrier sees the same gains, so one carrier's values are sorted
    and each is repeated once per carrier, and its counts are scaled by
    the carrier count.
    """
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(cfg.seed)
    K, M, L = cfg.num_cells, cfg.users_per_cell, cfg.num_subcarriers
    if K < 2:
        raise ScenarioError("the decodability statistic needs at least two cells")
    if M < 2:
        raise ScenarioError("the decodability statistic needs at least two users per cell")
    bs = _bs_positions(cfg)
    users = np.empty((K, samples, M, 2))
    for k in range(K):
        _sample_hexagon(rng, cfg.cell_radius_m, bs[k], users[k].reshape(samples * M, 2))

    cap = cfg.subcarrier_cap_w
    noise = cfg.noise_power_w
    u, v = np.triu_indices(M, 1)
    # without fading the arrays hold one carrier, which stands for all L
    reps = 1 if cfg.fading else L
    values = np.empty(samples * K * (K - 1) * u.size * (L // reps))
    filled = 0
    m_nonneg = 0
    for start in range(0, samples, _CDF_BLOCK):
        xy = users[:, start : start + _CDF_BLOCK].transpose(1, 0, 2, 3)
        # d[s, j, k, u]: BS j to user u of cell k; every BS sits at y = 0
        y = xy[..., 1]
        dx = xy[:, None, :, :, 0] - bs[None, :, None, None, 0]
        base = _gain_from_distance(cfg, np.sqrt(dx * dx + (y * y)[:, None]))
        if cfg.fading:
            g = base[..., None] * rng.exponential(1.0, size=base.shape + (L,))
        else:
            g = base[..., None]
        for k in range(K):
            ou, ov = g[:, k, k, u, :], g[:, k, k, v, :]
            u_weak = ou <= ov  # ties keep the lower index as weak
            worst = np.abs(ov - ou) * noise
            for j in range(K):
                if j == k:
                    continue
                cu, cv = g[:, j, k, u, :], g[:, j, k, v, :]
                # strong * weak-cross - weak * strong-cross is d with u weak and
                # its negation with u strong, taken as 0.0 - d: -d would turn
                # a +0.0 difference into -0.0
                d = ov * cu - ou * cv
                stat = np.where(u_weak, d, 0.0 - d)
                values[filled : filled + stat.size] = stat.reshape(-1)
                filled += stat.size
                worst += np.minimum(stat, 0.0) * cap
            m_nonneg += int(np.count_nonzero(worst >= 0.0)) * reps
    del users
    values.sort()
    nonneg = int(np.count_nonzero(values >= 0.0)) * reps
    if reps > 1:
        values = np.repeat(values, reps)
    m = values.shape[0]
    mm = samples * K * u.size * L
    lo, hi = wilson_interval(nonneg, m)
    mlo, mhi = wilson_interval(m_nonneg, mm)
    return CdfResult(
        values=values,
        p_nonneg=nonneg / m,
        ci_low=lo,
        ci_high=hi,
        p_margin_nonneg=m_nonneg / mm,
        margin_ci_low=mlo,
        margin_ci_high=mhi,
        cap_w=cap,
        num_scenarios=samples,
        num_values=m,
        num_margins=mm,
    )


class SweepRecord(NamedTuple):
    cap_w: float
    epsilon: float
    algo: str
    trial: int
    sum_rate_nats: float


class SweepRow(NamedTuple):
    cap_w: float
    epsilon: float
    algo: str
    mean_sum_rate_nats: float
    mean_sum_rate_bits: float
    trials: int


@dataclass(frozen=True, eq=False)
class SweepResult:
    records: tuple[SweepRecord, ...]
    rows: tuple[SweepRow, ...]


def _trial(cfg: RadioConfig, caps, epsilons, trial: int) -> list[tuple]:
    """(cap, epsilon, algorithm, trial, nats, ms, iterations) of every result on one trial's drop.

    Full power and greedy run once per cap; at each epsilon the solve is
    listed first, then both baselines.
    """
    base = generate_scenario(cfg, seed=[cfg.seed, trial])
    results = []
    for cap in caps:
        s = scenario_with_caps(base, cap)
        full, greedy = baseline_full_power(s), baseline_greedy(s)
        for eps in epsilons:
            for res in (solve(s, eps), full, greedy):
                results.append((cap, eps, res.algorithm, trial, res.sum_rate_nats, res.wall_time_s * 1e3,
                                res.iterations))
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_trials(cfg: RadioConfig, caps, epsilons, trials: int, threads: int) -> list[list[tuple]]:
    """Each trial's ``_trial`` results, in trial order, run as ``power_sweep`` describes.

    Every trial draws from its own (seed, trial) stream, so every field
    but the times is bit-for-bit that of a serial run. The trials list
    their results in one order, so ``zip`` groups each row's results.
    """
    caps = [_real(c, "cap") for c in caps]
    epsilons = [_real(e, "epsilon") for e in epsilons]
    trials, threads = _integer(trials, "trials"), _integer(threads, "threads")
    if not caps or not epsilons or trials < 1 or threads < 1:
        raise ValueError("need caps, epsilons, at least one trial and at least one worker")
    if len(set(caps)) < len(caps) or len(set(epsilons)) < len(epsilons):
        raise ValueError("caps and epsilons must not repeat a value: each names its own rows")
    # checked here, so that a bad value fails before any worker starts
    for cap in caps:
        if cap < 0.0:
            raise ValueError(f"caps must be non-negative watts, got {cap!r}")
    for eps in epsilons:
        if eps <= 0.0:
            raise ValueError(f"epsilon must be a positive finite number, got {eps!r}")
    run_trial = functools.partial(_trial, cfg, caps, epsilons)
    workers = min(threads, trials, _usable_cpus())
    if workers > 1:
        # imported here, so that `import nomaopt` does not pay for them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_trial, range(trials)))
    return [run_trial(t) for t in range(trials)]


def power_sweep(cfg: RadioConfig, caps, epsilons, trials: int, threads: int = 1) -> SweepResult:
    """Mean sum rate per (cap, epsilon, algorithm) over seeded trials.

    The user drop of a trial is shared across all caps and epsilons, so
    per-trial comparisons across columns are paired.

    ``threads`` caps the number of worker processes that run trials in
    parallel; the pool gets at most min(threads, trials, usable CPUs) of
    them, and with one the trials run in this process. Records hold no
    times, so records and rows are bit-for-bit those of a serial run.
    """
    per_trial = _run_trials(cfg, caps, epsilons, trials, threads)
    batches = [[SweepRecord(*res[:5]) for res in batch] for batch in per_trial]
    rows = []
    for group in zip(*batches):
        mean = float(np.mean([r.sum_rate_nats for r in group]))
        rows.append(SweepRow(*group[0][:3], mean, mean / LN2, len(group)))
    return SweepResult(records=tuple(r for batch in batches for r in batch), rows=tuple(rows))


class BenchRecord(NamedTuple):
    epsilon: float
    algo: str
    trial: int
    ms: float
    iterations: int


class BenchRow(NamedTuple):
    epsilon: float
    algo: str
    mean_ms: float
    std_ms: float
    mean_iters: float


@dataclass(frozen=True, eq=False)
class BenchResult:
    records: tuple[BenchRecord, ...]
    rows: tuple[BenchRow, ...]


def runtime_bench(cfg: RadioConfig, epsilons, trials: int) -> BenchResult:
    """Wall time and iteration statistics per (epsilon, algorithm).

    Trials run one after another in this process: this reports per-solve
    wall times, which parallel workers sharing the cores would inflate.
    Drops are capped by ``scenario_with_caps`` at the config's carrier cap.
    """
    batches = [
        [BenchRecord(eps, algo, trial, ms, iters) for _, eps, algo, trial, _, ms, iters in batch]
        for batch in _run_trials(cfg, [cfg.subcarrier_cap_w], epsilons, trials, 1)
    ]
    rows = []
    for group in zip(*batches):
        ms, iters = [r.ms for r in group], [r.iterations for r in group]
        std = float(np.std(ms, ddof=1)) if len(ms) > 1 else 0.0
        rows.append(BenchRow(*group[0][:2], float(np.mean(ms)), std, float(np.mean(iters))))
    return BenchResult(records=tuple(r for batch in batches for r in batch), rows=tuple(rows))


def write_cdf_csv(result: CdfResult, path):
    _write_csv(path, ("value", "cdf"), zip(result.values, result.cdf))


def write_sweep_csv(result: SweepResult, path):
    _write_csv(path, SweepRow._fields, result.rows)


def write_bench_csv(result: BenchResult, path):
    _write_csv(path, BenchRow._fields, result.rows)

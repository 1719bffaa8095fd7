"""Scenario generation, decodability statistics, sweeps and benchmarks."""

import concurrent.futures
import csv
import dataclasses
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from nomaopt import experiments
from nomaopt.experiments import (
    RadioConfig,
    cdf_experiment,
    generate_scenario,
    power_sweep,
    runtime_bench,
    scenario_with_caps,
    wilson_interval,
    write_bench_csv,
    write_cdf_csv,
    write_sweep_csv,
)
from nomaopt.model import ScenarioError, sic_pair_margin
from nomaopt.polyblock import solve
from nomaopt.reduction import InconsistentSinrError


SMALL = RadioConfig(users_per_cell=2, seed=3)


# -- configuration -----------------------------------------------------------


def test_noise_power_default_value():
    # -174 dBm/Hz over 1 MHz: -114 dBm = 10^-14.4 W
    assert RadioConfig().noise_power_w == pytest.approx(10.0**-14.4, rel=1e-12)
    assert RadioConfig().noise_power_w == pytest.approx(3.9810717055e-15, rel=1e-9)


def test_effective_cell_cap_defaults_to_carrier_sum():
    cfg = RadioConfig(num_subcarriers=3, subcarrier_cap_w=2e-7)
    assert cfg.effective_cell_cap_w == pytest.approx(6e-7)
    assert RadioConfig(cell_cap_w=1e-6).effective_cell_cap_w == 1e-6


def test_radio_config_validation():
    with pytest.raises(ScenarioError):
        RadioConfig(num_cells=0)
    with pytest.raises(ScenarioError):
        RadioConfig(cell_radius_m=0.0)
    with pytest.raises(ScenarioError):
        RadioConfig(subcarrier_cap_w=-1.0)
    with pytest.raises(ScenarioError):
        RadioConfig(cell_cap_w=-1.0)
    with pytest.raises(ScenarioError):
        RadioConfig(min_distance_m=0.0)
    with pytest.raises(ScenarioError):
        RadioConfig(sic_limit=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_cells", 2.5),
        ("num_cells", True),
        ("num_subcarriers", "2"),
        ("users_per_cell", None),
        ("sic_limit", 1.5),
        ("seed", "abc"),
        ("seed", float("inf")),
        ("fading", "no"),
        ("fading", 1),
        ("cell_radius_m", "100"),
        ("subcarrier_cap_w", True),
        ("cell_cap_w", "1e-6"),
        ("noise_density_dbm_hz", float("nan")),
        ("pathloss_slope_db", None),
        ("seed", -1),
    ],
)
def test_radio_config_rejects_mistyped_fields(field, value):
    with pytest.raises(ScenarioError, match=field):
        RadioConfig(**{field: value})


def test_radio_config_takes_integral_counts_as_int():
    # an integral float32 once raised "must be an integer"
    cfg = RadioConfig(num_cells=np.int64(3), users_per_cell=2.0, seed=np.uint8(4), num_subcarriers=np.float32(2))
    assert (cfg.num_cells, cfg.users_per_cell, cfg.seed, cfg.num_subcarriers) == (3, 2, 4, 2)
    assert all(type(v) is int for v in (cfg.num_cells, cfg.users_per_cell, cfg.seed, cfg.num_subcarriers))
    assert RadioConfig(num_cells=np.float32(2)).num_cells == 2
    with pytest.raises(ScenarioError, match="num_cells must be an integer"):
        RadioConfig(num_cells=np.float32(2.5))


def test_radio_config_json_round_trip():
    cfg = RadioConfig(num_cells=3, fading=True, seed=9)
    back = RadioConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    with pytest.raises(ScenarioError, match="unknown"):
        RadioConfig.from_json_dict({"num_cells": 2, "bogus": 1})
    with pytest.raises(ScenarioError, match="JSON"):
        RadioConfig.from_json("{oops")


# -- scenario generation -------------------------------------------------------


def test_generated_scenario_records_seed_override_as_plain_ints():
    s = generate_scenario(SMALL, seed=np.int64(3))
    assert type(s.meta["seed"]) is int
    assert s.to_json() == generate_scenario(SMALL, seed=3).to_json()
    assert generate_scenario(SMALL, seed=(3, 1)).meta["seed"] == [3, 1]


def test_generated_scenario_shape_and_caps():
    s = generate_scenario(SMALL)
    assert s.num_cells == 2
    assert s.users_per_cell == (2, 2)
    assert s.num_subcarriers == 1
    assert s.noise_power == pytest.approx(10.0**-14.4, rel=1e-12)
    assert np.all(s.subcarrier_cap == 4e-7)
    assert np.all(s.cell_cap == 4e-7)


def test_base_stations_on_hexagonal_pitch():
    s = generate_scenario(RadioConfig(num_cells=3, seed=1))
    bs = np.array(s.meta["bs_xy"])
    pitch = math.sqrt(3.0) * 100.0
    expected = np.array([[0.0, 0.0], [pitch, 0.0], [2 * pitch, 0.0]])
    assert np.allclose(bs, expected, rtol=1e-12, atol=0.0)


def test_users_fall_inside_their_hexagon():
    cfg = RadioConfig(num_cells=3, users_per_cell=50, seed=11)
    s = generate_scenario(cfg)
    bs = np.array(s.meta["bs_xy"])
    users = np.array(s.meta["user_xy"])
    R = cfg.cell_radius_m
    for k in range(3):
        rel = users[50 * k : 50 * (k + 1)] - bs[k]
        assert np.all(np.abs(rel[:, 0]) <= math.sqrt(3.0) * R / 2 + 1e-9)
        assert np.all(np.abs(rel[:, 1]) <= R - np.abs(rel[:, 0]) / math.sqrt(3.0) + 1e-9)


def test_gains_follow_distance_law():
    cfg = RadioConfig(users_per_cell=3, seed=7)
    s = generate_scenario(cfg)
    bs = np.array(s.meta["bs_xy"])
    users = np.array(s.meta["user_xy"])
    d = np.linalg.norm(users[None, :, :] - bs[:, None, :], axis=2)
    d_km = np.maximum(d, 1.0) / 1000.0
    expected = 10.0 ** (-(128.1 + 37.6 * np.log10(d_km)) / 10.0)
    assert np.allclose(s.gains[:, :, 0], expected, rtol=1e-12)


def test_distance_clamp_gives_known_gain():
    # clamping every distance to 100 km pins the path loss at 203.3 dB
    cfg = RadioConfig(users_per_cell=2, min_distance_m=100_000.0, seed=2)
    s = generate_scenario(cfg)
    assert np.allclose(s.gains, 10.0**-20.33, rtol=1e-12)


def test_generation_is_deterministic():
    a = generate_scenario(SMALL)
    b = generate_scenario(SMALL)
    assert a.to_json() == b.to_json()
    c = generate_scenario(SMALL, seed=[3, 1])
    assert not np.array_equal(a.gains, c.gains)
    assert c.meta["seed"] == [3, 1]


def test_fading_multiplies_gains():
    plain = generate_scenario(RadioConfig(seed=5))
    faded = generate_scenario(RadioConfig(seed=5, fading=True))
    assert plain.gains.shape == faded.gains.shape
    assert not np.allclose(plain.gains, faded.gains)


def test_scenario_with_caps_keeps_layout():
    s = generate_scenario(SMALL)
    t = scenario_with_caps(s, 1e-5)
    assert np.array_equal(t.gains, s.gains)
    assert np.all(t.subcarrier_cap == 1e-5)
    assert np.all(t.cell_cap == 1e-5)
    assert t.meta["cap_override_w"] == 1e-5
    assert t.meta["bs_xy"] == s.meta["bs_xy"]
    # each cell is capped at the sum of its carrier caps
    u = scenario_with_caps(generate_scenario(dataclasses.replace(SMALL, num_subcarriers=3)), 1e-5)
    assert np.all(u.cell_cap == 3 * 1e-5)


# -- Wilson interval -----------------------------------------------------------


def test_wilson_hand_values():
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.4902, abs=5e-4)
    assert hi == pytest.approx(0.9433, abs=5e-4)


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0, 10)
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert 0 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0, abs=1e-15)
    assert 0.65 < lo < 1
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_narrows_with_samples():
    lo1, hi1 = wilson_interval(80, 100)
    lo2, hi2 = wilson_interval(8000, 10000)
    assert hi2 - lo2 < hi1 - lo1


# -- decodability CDF ------------------------------------------------------------


def test_cdf_structure():
    res = cdf_experiment(SMALL, samples=400)
    assert res.num_scenarios == 400
    # 2 cells x 1 gain-ordered pair x 1 interferer each
    assert res.num_values == 800
    assert res.num_margins == 800
    assert np.all(np.diff(res.values) >= 0)
    assert res.cdf[0] == pytest.approx(1 / 800)
    assert res.cdf[-1] == 1.0
    assert np.all(np.diff(res.cdf) > 0)
    assert res.p_nonneg == pytest.approx(np.mean(res.values >= 0))
    assert res.ci_low <= res.p_nonneg <= res.ci_high
    assert res.margin_ci_low <= res.p_margin_nonneg <= res.margin_ci_high
    assert res.cap_w == 4e-7
    # decodability at finite power is easier than at infinite power
    assert res.p_margin_nonneg >= res.p_nonneg


def test_cdf_summary_dict_keys():
    res = cdf_experiment(SMALL, samples=50)
    assert set(res.summary_dict()) == {
        "num_scenarios", "num_values", "p_nonneg", "ci95_low", "ci95_high",
        "num_margins", "p_margin_nonneg", "margin_ci95_low", "margin_ci95_high",
        "cap_w",
    }


def test_cdf_bit_exact_repeatable():
    a = cdf_experiment(SMALL, samples=100)
    b = cdf_experiment(SMALL, samples=100)
    assert np.array_equal(a.values, b.values)
    assert a.p_nonneg == b.p_nonneg
    assert a.p_margin_nonneg == b.p_margin_nonneg


def test_cdf_input_validation():
    with pytest.raises(ScenarioError):
        cdf_experiment(RadioConfig(num_cells=1), samples=10)
    with pytest.raises(ScenarioError, match="at least two users per cell"):
        cdf_experiment(RadioConfig(users_per_cell=1), samples=10)
    with pytest.raises(ValueError):
        cdf_experiment(SMALL, samples=0)


def test_cdf_sample_count_must_be_an_integer():
    for samples in (True, 3.5, "3", None):
        with pytest.raises(ScenarioError, match="samples must be an integer"):
            cdf_experiment(SMALL, samples=samples)
    assert np.array_equal(cdf_experiment(SMALL, samples=3.0).values, cdf_experiment(SMALL, samples=3).values)


def test_cdf_memory_stays_near_its_output():
    # drops are processed in fixed-size blocks, so beyond the positions the
    # study holds no (drop, cell, cell, user) array; one spanning every
    # drop, with its temporaries, peaks above 8 times the values, and a
    # stored cdf array brings the peak to about 3.1 times the values
    cfg = RadioConfig(num_cells=3, users_per_cell=3, seed=5)
    cdf_experiment(cfg, 10)  # numpy imports some modules on first use
    tracemalloc.start()
    try:
        res = cdf_experiment(cfg, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * res.values.nbytes


def test_cdf_result_holds_only_its_values():
    # cdf is derived from the value count on each access: once the study
    # returns, it holds its values and a few small objects, not a second array
    cfg = RadioConfig(num_cells=3, users_per_cell=3, seed=5)
    cdf_experiment(cfg, 10)  # numpy imports some modules on first use
    tracemalloc.start()
    try:
        res = cdf_experiment(cfg, 20_000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= res.values.nbytes + 64 * 1024
    m = res.num_values
    assert res.cdf.tobytes() == (np.arange(1, m + 1) / m).tobytes()
    assert res.cdf is not res.cdf


@pytest.mark.parametrize("cfg", [SMALL, RadioConfig(num_cells=3, num_subcarriers=2, fading=True, seed=4)])
def test_cdf_csv_bytes_match_a_stored_cdf_writer(tmp_path, cfg):
    # the writer that stored cdf = arange(1, m + 1) / m in the result
    res = cdf_experiment(cfg, 200)
    m = res.num_values
    rows = zip(res.values, np.arange(1, m + 1) / m)
    expected = "value,cdf\n" + "".join(f"{x:.12g},{c:.12g}\n" for x, c in rows)
    path = tmp_path / "cdf.csv"
    write_cdf_csv(res, path)
    assert path.read_bytes() == expected.encode()


def test_cdf_carrier_tiling_without_fading():
    flat = cdf_experiment(RadioConfig(users_per_cell=2, num_subcarriers=2, seed=3), 50)
    assert flat.num_values == 2 * 2 * 50
    faded = cdf_experiment(
        RadioConfig(users_per_cell=2, num_subcarriers=2, seed=3, fading=True), 50
    )
    assert faded.num_values == 2 * 2 * 50


def test_margin_statistic_matches_model_pair_margin():
    """Dual route: the experiment's worst-case margin must equal the model's
    pair margin evaluated at each interferer's most harmful power."""
    for seed in (5, 6, 7):
        cfg = RadioConfig(num_cells=3, users_per_cell=2, seed=seed)
        s = generate_scenario(cfg)
        cap = cfg.subcarrier_cap_w
        noise = cfg.noise_power_w
        for k in range(3):
            g0 = s.gains[k, s.global_user(k, 0), 0]
            g1 = s.gains[k, s.global_user(k, 1), 0]
            if g0 == g1:
                continue
            weak, strong = (0, 1) if g0 <= g1 else (1, 0)
            gw, gs = min(g0, g1), max(g0, g1)
            formula = (gs - gw) * noise
            p_cross = np.zeros(3)
            for j in range(3):
                if j == k:
                    continue
                cw = s.gains[j, s.global_user(k, weak), 0]
                cs = s.gains[j, s.global_user(k, strong), 0]
                stat = gs * cw - gw * cs
                formula += min(stat, 0.0) * cap
                p_cross[j] = cap if stat < 0 else 0.0
            direct = sic_pair_margin(s, k, 0, weak, strong, p_cross)
            assert direct == pytest.approx(formula, rel=1e-12)


# -- power sweep -------------------------------------------------------------------


def test_sweep_structure_and_means():
    caps = [1e-7, 4e-7]
    res = power_sweep(SMALL, caps=caps, epsilons=[0.5], trials=2)
    assert len(res.rows) == len(caps) * 1 * 3
    assert [r.algo for r in res.rows[:3]] == ["polyblock", "full-power", "greedy"]
    assert [r.cap_w for r in res.rows] == [1e-7, 1e-7, 1e-7, 4e-7, 4e-7, 4e-7]
    for row in res.rows:
        recs = [
            r.sum_rate_nats
            for r in res.records
            if r.cap_w == row.cap_w and r.epsilon == row.epsilon and r.algo == row.algo
        ]
        assert row.trials == 2 == len(recs)
        assert row.mean_sum_rate_nats == pytest.approx(np.mean(recs), rel=1e-12)
        assert row.mean_sum_rate_bits == pytest.approx(
            row.mean_sum_rate_nats / math.log(2.0), rel=1e-14
        )


def test_sweep_certified_beats_baselines_within_epsilon():
    res = power_sweep(SMALL, caps=[4e-7], epsilons=[0.1], trials=2)
    by_algo = {}
    for rec in res.records:
        by_algo.setdefault((rec.trial, rec.algo), rec.sum_rate_nats)
    for trial in range(2):
        pb = by_algo[(trial, "polyblock")]
        assert pb >= by_algo[(trial, "full-power")] - 0.1 - 1e-9
        assert pb >= by_algo[(trial, "greedy")] - 0.1 - 1e-9


def test_sweep_threads_match_serial():
    serial = power_sweep(SMALL, caps=[4e-7], epsilons=[0.5], trials=3, threads=1)
    # 3 trials split unevenly over 2 workers; 4 workers asked for exceed the trials
    for threads in (2, 4):
        pooled = power_sweep(SMALL, caps=[4e-7], epsilons=[0.5], trials=3, threads=threads)
        assert pooled.records == serial.records
        assert pooled.rows == serial.rows


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap ProcessPoolExecutor for an in-process map; return the max_workers asked for."""
    created = []

    class InlineExecutor:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return created


def test_sweep_worker_count_is_capped(inline_pool, monkeypatch):
    def sweep(trials, threads):
        return power_sweep(SMALL, caps=[4e-7], epsilons=[0.5], trials=trials, threads=threads)

    ref = sweep(3, 1)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert sweep(3, 64).records == ref.records
    assert inline_pool == ([min(3, usable)] if usable > 1 else [])
    for cpus in (2, 8):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        inline_pool.clear()
        assert sweep(3, 64).records == ref.records
        assert inline_pool == [min(3, cpus)]
        # one worker runs in this process, without a pool
        sweep(3, 1)
        sweep(1, 64)
        assert inline_pool == [min(3, cpus)]


def test_sweep_rejects_bad_caps_and_epsilons_before_any_worker(inline_pool, monkeypatch):
    # a bad value fails before any pool is built, and the message names it
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    for caps, epsilons, message in (
        ([1e-7, -1e-6], [0.5], "caps must be non-negative watts, got -1e-06"),
        ([1e-7], [0.5, 0.0], "epsilon must be a positive finite number, got 0.0"),
        ([1e-7], [-0.1], "epsilon must be a positive finite number, got -0.1"),
    ):
        with pytest.raises(ValueError) as info:
            power_sweep(SMALL, caps=caps, epsilons=epsilons, trials=2, threads=2)
        assert str(info.value) == message
    assert inline_pool == []
    # a zero cap is a valid row: silence
    assert power_sweep(SMALL, caps=[0.0], epsilons=[0.5], trials=2, threads=2).rows
    assert inline_pool == [2]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched solve")
def test_sweep_worker_error_reaches_caller(monkeypatch):
    def failing_solve(*args, **kwargs):
        raise InconsistentSinrError("x", "singular")

    monkeypatch.setattr(experiments, "solve", failing_solve)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    with pytest.raises(InconsistentSinrError) as info:
        power_sweep(SMALL, caps=[4e-7], epsilons=[0.5], trials=2, threads=2)
    assert info.value.reason == "singular"


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        power_sweep(SMALL, caps=[], epsilons=[0.5], trials=1)
    with pytest.raises(ValueError):
        power_sweep(SMALL, caps=[1e-7], epsilons=[0.5], trials=0)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            power_sweep(SMALL, caps=[1e-7], epsilons=[0.5], trials=1, threads=threads)


def test_sweep_counts_must_be_integers():
    # a bool once ran as one trial, a fractional worker count failed inside range()
    for trials in (True, 1.5):
        with pytest.raises(ScenarioError, match="trials must be an integer"):
            power_sweep(SMALL, caps=[1e-7], epsilons=[0.5], trials=trials)
    for threads in (True, 1.5):
        with pytest.raises(ScenarioError, match="threads must be an integer"):
            power_sweep(SMALL, caps=[1e-7], epsilons=[0.5], trials=1, threads=threads)
    assert power_sweep(SMALL, caps=[1e-7], epsilons=[0.5], trials=2.0, threads=1.0).rows[0].trials == 2
    assert power_sweep(SMALL, caps=[1e-7], epsilons=[0.5], trials=np.float32(2)).rows[0].trials == 2


def test_sweep_caps_and_epsilons_must_be_numbers():
    # these once ran at caps of 1e-5 W and 1 W with epsilon 1
    with pytest.raises(ScenarioError, match="cap must be a finite number"):
        power_sweep(SMALL, caps=["1e-5", True], epsilons=[True], trials=1)
    for caps, epsilons in (([True], [0.5]), ([1e-7], [True]), ([1e-7], ["0.5"]), ([float("inf")], [0.5])):
        with pytest.raises(ScenarioError, match="must be a finite number"):
            power_sweep(SMALL, caps=caps, epsilons=epsilons, trials=1)
    res = power_sweep(SMALL, caps=[np.float32(1e-7)], epsilons=[1], trials=1)
    assert [type(v) for v in (res.rows[0].cap_w, res.rows[0].epsilon)] == [float, float]


def test_sweep_rejects_repeated_values():
    # a repeat would write its rows twice, each counting both copies' trials
    with pytest.raises(ValueError, match="caps"):
        power_sweep(SMALL, caps=[1e-5, 1e-5], epsilons=[0.5], trials=2)
    with pytest.raises(ValueError, match="epsilons"):
        power_sweep(SMALL, caps=[1e-5], epsilons=[0.5, 1.0, 0.5], trials=2)


# -- runtime bench ------------------------------------------------------------------


def test_bench_structure():
    res = runtime_bench(SMALL, epsilons=[1.0, 0.5], trials=2)
    assert len(res.rows) == 2 * 3
    assert [r.epsilon for r in res.rows] == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    for row in res.rows:
        assert row.mean_ms > 0
        assert row.std_ms >= 0
    pb_rows = [r for r in res.rows if r.algo == "polyblock"]
    for row in pb_rows:
        iters = [solve(generate_scenario(SMALL, seed=[SMALL.seed, t]), row.epsilon).iterations for t in range(2)]
        assert row.mean_iters == np.mean(iters)
    fp_rows = [r for r in res.rows if r.algo == "full-power"]
    assert all(r.mean_iters == 0 for r in fp_rows)


def test_bench_input_validation():
    with pytest.raises(ValueError):
        runtime_bench(SMALL, epsilons=[], trials=1)
    with pytest.raises(ValueError):
        runtime_bench(SMALL, epsilons=[0.5], trials=0)


def test_bench_trial_count_must_be_an_integer():
    for trials in (True, 1.5):
        with pytest.raises(ScenarioError, match="trials must be an integer"):
            runtime_bench(SMALL, epsilons=[0.5], trials=trials)
    assert len(runtime_bench(SMALL, epsilons=[0.5], trials=2.0).records) == 2 * 3


def test_bench_epsilons_must_be_numbers():
    for epsilons in ([True], ["0.5"], [float("nan")]):
        with pytest.raises(ScenarioError, match="epsilon must be a finite number"):
            runtime_bench(SMALL, epsilons=epsilons, trials=1)
    assert type(runtime_bench(SMALL, epsilons=[1], trials=1).rows[0].epsilon) is float


def test_bench_rejects_repeated_epsilons():
    with pytest.raises(ValueError, match="epsilons"):
        runtime_bench(SMALL, epsilons=[0.5, 0.5], trials=1)


# -- CSV output ---------------------------------------------------------------------


def test_cdf_csv_round_trip(tmp_path):
    res = cdf_experiment(SMALL, samples=30)
    path = tmp_path / "cdf.csv"
    write_cdf_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "cdf"]
    assert len(rows) == res.num_values + 1
    vals = np.array([float(r[0]) for r in rows[1:]])
    assert np.allclose(vals, res.values, rtol=1e-11)
    assert float(rows[-1][1]) == 1.0


def test_sweep_csv_round_trip(tmp_path):
    res = power_sweep(SMALL, caps=[4e-7], epsilons=[0.5], trials=1)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cap_w", "epsilon", "algo", "mean_sum_rate_nats", "mean_sum_rate_bits", "trials"]
    assert len(rows) == len(res.rows) + 1
    first = res.rows[0]
    assert float(rows[1][0]) == first.cap_w
    assert rows[1][2] == first.algo
    assert float(rows[1][3]) == pytest.approx(first.mean_sum_rate_nats, rel=1e-11)
    assert rows[1][5] == "1"


def test_bench_csv_round_trip(tmp_path):
    res = runtime_bench(SMALL, epsilons=[0.5], trials=1)
    path = tmp_path / "bench.csv"
    write_bench_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epsilon", "algo", "mean_ms", "std_ms", "mean_iters"]
    assert len(rows) == len(res.rows) + 1
    assert float(rows[1][2]) == pytest.approx(res.rows[0].mean_ms, rel=1e-11)

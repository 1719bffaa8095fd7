"""The hexagon sampler fills its output array in place and adds the cell
center there. The sampler it replaced, which returned fresh points around
the origin built with np.stack and left the shift to the caller, is kept
here as the reference, together with the scenario drop built on it. Both
take the same draws and do the same float operations, so points, gains
and the generator state after the drop must agree bit for bit."""

import math

import numpy as np
import pytest

from nomaopt.experiments import (
    RadioConfig,
    _bs_positions,
    _gain_from_distance,
    _sample_hexagon,
    generate_scenario,
)


def _reference_sample_hexagon(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform points in the hexagon |x| <= sqrt(3)R/2, |y| <= R - |x|/sqrt(3)."""
    half_w = math.sqrt(3.0) * radius / 2.0
    out = np.empty((count, 2))
    filled = 0
    while filled < count:
        need = count - filled
        m = max(8, int(1.6 * need))
        x = rng.uniform(-half_w, half_w, size=m)
        y = rng.uniform(-radius, radius, size=m)
        keep = np.abs(y) <= radius - np.abs(x) / math.sqrt(3.0)
        take = min(int(keep.sum()), need)
        out[filled : filled + take] = np.stack([x[keep][:take], y[keep][:take]], axis=1)
        filled += take
    return out


def _reference_drop(cfg: RadioConfig, seed):
    """User positions and gains as the scenario generator drew them with the reference sampler."""
    rng = np.random.default_rng(seed)
    K, M, L = cfg.num_cells, cfg.users_per_cell, cfg.num_subcarriers
    bs = _bs_positions(cfg)
    users = np.concatenate(
        [bs[k] + _reference_sample_hexagon(rng, M, cfg.cell_radius_m) for k in range(K)]
    )
    d = np.linalg.norm(users[None, :, :] - bs[:, None, :], axis=2)
    gains = np.repeat(_gain_from_distance(cfg, d)[:, :, None], L, axis=2)
    if cfg.fading:
        gains = gains * rng.exponential(1.0, size=gains.shape)
    return users, gains


def _first_round_accepts(seed: int, radius: float) -> int:
    """Points the sampler's first round of 8 accepts from a fresh generator."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-math.sqrt(3.0) * radius / 2.0, math.sqrt(3.0) * radius / 2.0, size=8)
    y = rng.uniform(-radius, radius, size=8)
    return int(np.count_nonzero(np.abs(y) <= radius - np.abs(x) / math.sqrt(3.0)))


@pytest.mark.parametrize("count", [1, 3, 5, 10_000])
def test_sampler_matches_reference(count):
    radius, center = 250.0, np.array([173.2, -0.5])
    seeds = range(40) if count < 10 else range(3)
    for seed in seeds:
        ref_rng = np.random.default_rng(seed)
        expected = center + _reference_sample_hexagon(ref_rng, count, radius)
        rng = np.random.default_rng(seed)
        out = np.empty((count, 2))
        _sample_hexagon(rng, radius, center, out)
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    if count == 5:
        # the seeds include drops whose first round of 8 accepts fewer than 5 points
        assert any(_first_round_accepts(seed, radius) < count for seed in seeds)


@pytest.mark.parametrize("fading", [False, True])
@pytest.mark.parametrize("K,M,L", [(1, 1, 1), (2, 3, 2), (4, 5, 3)])
def test_generate_scenario_matches_reference(K, M, L, fading):
    cfg = RadioConfig(num_cells=K, users_per_cell=M, num_subcarriers=L, fading=fading)
    for seed in ([7, 0], [7, 1], 12345):
        users, gains = _reference_drop(cfg, seed)
        s = generate_scenario(cfg, seed=seed)
        assert s.meta["user_xy"] == users.tolist()
        assert s.gains.tobytes() == gains.tobytes()

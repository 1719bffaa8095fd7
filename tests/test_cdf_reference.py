"""The decodability study builds its statistic from (drop, user pair,
sub-carrier) arrays one block of drops at a time and, without fading,
sorts one carrier's values once. The per-pair loop it replaced, which
held every drop at once, took distances with np.linalg.norm and tiled the
pooled values over the carriers before sorting, is kept here as the
reference; it also forms the statistic from the weak and strong users'
gains with four selections and two products, and each distance from both
coordinate offsets. Every element is computed by the same float
operations, so every field must agree bit for bit, also when the drops
span several blocks. The cdf, derived on access, is compared too."""

import dataclasses

import numpy as np
import pytest

import nomaopt.experiments as E
from nomaopt.experiments import (
    CdfResult,
    RadioConfig,
    _bs_positions,
    _sample_hexagon,
    cdf_experiment,
    wilson_interval,
)


def _reference_cdf(cfg, samples):
    """Reference: the pair loop over np.linalg.norm distances, tiled over carriers."""
    rng = np.random.default_rng(cfg.seed)
    K, M, L = cfg.num_cells, cfg.users_per_cell, cfg.num_subcarriers
    bs = _bs_positions(cfg)
    users = np.empty((samples, K, M, 2))
    for k in range(K):
        cell = np.empty((samples * M, 2))
        _sample_hexagon(rng, cfg.cell_radius_m, bs[k], cell)
        users[:, k] = cell.reshape(samples, M, 2)
    d = np.linalg.norm(users[:, None, :, :, :] - bs[None, :, None, None, :], axis=4)
    base = E._gain_from_distance(cfg, d)
    if cfg.fading:
        g = base[..., None] * rng.exponential(1.0, size=base.shape + (L,))
    else:
        g = base[..., None]

    cap = cfg.subcarrier_cap_w
    noise = cfg.noise_power_w
    chunks = []
    margin_chunks = []
    n_l = L if cfg.fading else 1
    for k in range(K):
        own = g[:, k, k, :, :]
        for u in range(M):
            for v in range(u + 1, M):
                ou, ov = own[:, u, :], own[:, v, :]
                u_weak = ou <= ov
                weak_own = np.where(u_weak, ou, ov)
                strong_own = np.where(u_weak, ov, ou)
                worst = (strong_own - weak_own) * noise
                for j in range(K):
                    if j == k:
                        continue
                    cu, cv = g[:, j, k, u, :], g[:, j, k, v, :]
                    weak_cross = np.where(u_weak, cu, cv)
                    strong_cross = np.where(u_weak, cv, cu)
                    stat = strong_own * weak_cross - weak_own * strong_cross
                    chunks.append(stat[:, :n_l].reshape(-1))
                    worst = worst + np.minimum(stat, 0.0) * cap
                margin_chunks.append(worst[:, :n_l].reshape(-1))
    pooled = np.concatenate(chunks)
    margins = np.concatenate(margin_chunks)
    if not cfg.fading and L > 1:
        pooled = np.tile(pooled, L)
        margins = np.tile(margins, L)
    values = np.sort(pooled)
    m = values.shape[0]
    nonneg = int(np.count_nonzero(values >= 0.0))
    lo, hi = wilson_interval(nonneg, m)
    mm = margins.shape[0]
    m_nonneg = int(np.count_nonzero(margins >= 0.0))
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


def _as_bytes(res):
    """Every field and the derived cdf, arrays as dtype, shape and raw bytes.
    The cdf is also checked against the formula of the stored array it
    replaced."""
    m = res.num_values
    assert res.cdf.tobytes() == (np.arange(1, m + 1) / m).tobytes()
    out = {}
    for name in [f.name for f in dataclasses.fields(res)] + ["cdf"]:
        x = getattr(res, name)
        out[name] = (x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x
    return out


@pytest.mark.parametrize("fading", [False, True])
@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("M", [2, 3, 4])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_cdf_matches_pair_loop_reference(K, M, L, fading):
    cfg = RadioConfig(num_cells=K, users_per_cell=M, num_subcarriers=L, fading=fading,
                      seed=100 * K + 10 * M + L)
    assert _as_bytes(cdf_experiment(cfg, 300)) == _as_bytes(_reference_cdf(cfg, 300))


@pytest.mark.parametrize("fading", [False, True])
@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("samples", [1, 6, 7, 8, 22])
def test_cdf_matches_reference_across_blocks(monkeypatch, samples, L, fading):
    # blocks of 7 drops: one partial block, one exact block, a block plus one, three and a part
    monkeypatch.setattr(E, "_CDF_BLOCK", 7)
    cfg = RadioConfig(num_cells=3, users_per_cell=3, num_subcarriers=L, fading=fading,
                      seed=1000 + samples)
    assert _as_bytes(cdf_experiment(cfg, samples)) == _as_bytes(_reference_cdf(cfg, samples))


@pytest.mark.parametrize("L", [1, 3])
def test_cdf_matches_reference_on_tied_gain_products(monkeypatch, L):
    # path gains rounded to powers of two make products exact, so many
    # pairs have a zero statistic; where u is the strong user, -d would
    # store -0.0 where the reference's subtraction gives +0.0 (fading
    # factors would break the ties)
    path_gain = E._gain_from_distance
    monkeypatch.setattr(E, "_gain_from_distance",
                        lambda cfg, d: np.exp2(np.round(np.log2(path_gain(cfg, d)) / 4) * 4))
    cfg = RadioConfig(num_cells=3, users_per_cell=4, num_subcarriers=L, seed=9)
    res = cdf_experiment(cfg, 200)
    assert np.count_nonzero(res.values == 0.0) > 100
    assert _as_bytes(res) == _as_bytes(_reference_cdf(cfg, 200))

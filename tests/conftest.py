"""Shared scenario builders for the test suite."""

import os
from pathlib import Path

import numpy as np

from nomaopt.model import Scenario

# pyproject.toml puts src/ on this process's path; the CLI tests start
# child interpreters, which need it on PYTHONPATH as well.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def make_scenario(
    gains,
    noise=1.0,
    subcarrier_cap=None,
    cell_cap=None,
    sic_limit=2,
    weights=None,
    meta=None,
    users_per_cell=None,
):
    """Scenario from a nested gains list [cell][user][carrier].

    The user axis is global. Unless ``users_per_cell`` says otherwise,
    users are split into equal blocks. Caps default to 2 W per carrier
    and carriers-times-2 per cell.
    """
    g = np.asarray(gains, dtype=float)
    K, U, L = g.shape
    if users_per_cell is None:
        assert U % K == 0, "equal users per cell expected"
        users_per_cell = (U // K,) * K
    assert sum(users_per_cell) == U
    if subcarrier_cap is None:
        subcarrier_cap = np.full((K, L), 2.0)
    else:
        subcarrier_cap = np.broadcast_to(np.asarray(subcarrier_cap, dtype=float), (K, L)).copy()
    if cell_cap is None:
        cell_cap = subcarrier_cap.sum(axis=1)
    else:
        cell_cap = np.broadcast_to(np.asarray(cell_cap, dtype=float), (K,)).copy()
    return Scenario(
        num_cells=K,
        num_subcarriers=L,
        users_per_cell=tuple(users_per_cell),
        sic_limit=sic_limit,
        gains=g,
        noise_power=noise,
        subcarrier_cap=subcarrier_cap,
        cell_cap=cell_cap,
        weights=weights,
        meta=meta or {},
    )


def k1_scenario(gain=1.0, noise=1.0, cap=2.0):
    """One cell, one user, one carrier; closed-form optimum log(1+g*cap/N)."""
    return make_scenario([[[gain]]], noise=noise, subcarrier_cap=cap)


def sym2_scenario(q_cap=2.0):
    """Two cells, one user each, own gain 2, cross gain 1, noise 1.

    At powers (1, 1): interference-plus-noise is 2, received power 2,
    so both SINR ratios are exactly 2.
    """
    g = np.zeros((2, 2, 1))
    g[0, 0, 0] = 2.0  # BS0 -> user0 (cell 0)
    g[1, 0, 0] = 1.0  # BS1 -> user0
    g[0, 1, 0] = 1.0  # BS0 -> user1 (cell 1)
    g[1, 1, 0] = 2.0  # BS1 -> user1
    return make_scenario(g, noise=1.0, subcarrier_cap=q_cap)


def random_scenario(rng, num_cells=2, num_subcarriers=1, users_per_cell=2,
                    noise=1.0, cap_scale=4.0):
    """Random positive gains spread over two decades, uniform caps."""
    U = num_cells * users_per_cell
    g = 10.0 ** rng.uniform(-1.0, 1.0, size=(num_cells, U, num_subcarriers))
    cap = cap_scale * rng.uniform(0.5, 1.0)
    return make_scenario(g, noise=noise, subcarrier_cap=cap)

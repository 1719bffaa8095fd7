"""Drops the polyblock finds hard, one list for every test that runs them.

All have one carrier and 2 users per cell, and are solved at ``EPSILON``:

- region A: many cells with fading at the default carrier cap;
- region A': more cells still;
- region B: few cells with fading at a high cap, 1e-4 W;
- two slow drops in small cells: three cells without fading at 13 m,
  where full power is far below the optimum, and four fading cells at
  10 m and 1e-5 W, where one projection sits just under the scale at
  which a cell switches on.

Names read "<region> K=<cells> <seed>"; ``scenario(name)`` builds one.
"""

from nomaopt.experiments import RadioConfig, generate_scenario

EPSILON = 0.01


def _fading(K: int, **kw) -> RadioConfig:
    return RadioConfig(num_cells=K, users_per_cell=2, fading=True, **kw)


HARD_DROPS: dict[str, tuple[RadioConfig, list[int]]] = {
    **{f"A K={K} [0, {d}]": (_fading(K), [0, d]) for K, d in ((10, 7), (16, 0), (20, 4), (20, 5))},
    **{f"A' K=30 [0, {d}]": (_fading(30), [0, d]) for d in (0, 1)},
    **{f"B K=4 [0, {d}]": (_fading(4, subcarrier_cap_w=1e-4), [0, d]) for d in range(8)},
    "slow K=3 [3, 1, 0]": (
        RadioConfig(
            num_cells=3,
            users_per_cell=2,
            subcarrier_cap_w=5.709144562287183e-05,
            cell_radius_m=13.163601700597692,
        ),
        [3, 1, 0],
    ),
    "slow K=4 [0, 1]": (_fading(4, subcarrier_cap_w=1e-5, cell_radius_m=10.0), [0, 1]),
}


def scenario(name: str):
    config, seed = HARD_DROPS[name]
    return generate_scenario(config, seed=seed)

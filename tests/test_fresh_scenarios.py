"""A Scenario keeps its reduced problem, decoding order and SIC flag once
worked out (``model._memo``), and the line search and the result scoring
skip re-checks on the solver's own arrays. Neither may show in a result:
``solve`` and both baselines on a fresh ``dataclasses.replace(s)`` must
return bit for bit what they return on ``s`` carrying its memos."""

import dataclasses
import struct

import pytest

from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt.oracle import baseline_full_power, baseline_greedy
from nomaopt.polyblock import solve

BUDGET = 120


def _drops():
    """The benchmark's solver drops and a few sweep drops that certify
    with no projection, as (label, scenario, epsilon)."""
    out = []
    for K, L in ((3, 2), (2, 3), (2, 4)):
        for i in range(2):
            cfg = RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=2)
            out.append((f"K{K}L{L}d{i}", generate_scenario(cfg, seed=[0, i]), 0.05))
    for K in (5, 6):
        for i in range(4):
            cfg = RadioConfig(num_cells=K, users_per_cell=2, fading=True)
            out.append((f"K{K}fading d{i}", generate_scenario(cfg, seed=[0, i]), 0.01))
    cfg = RadioConfig(seed=2968811710)
    for t in range(2):
        base = generate_scenario(cfg, seed=[cfg.seed, t])
        for cap in (1e-7, 1e-6):
            out.append((f"sweep t{t} cap {cap}", scenario_with_caps(base, cap), 0.5))
    return out


DROPS = _drops()


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _fields(res) -> tuple:
    """status, iterations, trace, rate, bound, z and powers, as bytes."""
    upper = None if res.upper_bound is None else _bits(res.upper_bound)
    trace = tuple((row.iteration, _bits(row.upper_bound), _bits(row.incumbent)) for row in res.trace)
    return (res.status, res.iterations, trace, _bits(res.sum_rate_nats), type(res.sum_rate_nats), upper,
            res.z.tobytes(), res.allocation.p.tobytes(), res.allocation.a.tobytes())


@pytest.mark.parametrize("label, s, epsilon", DROPS, ids=[d[0] for d in DROPS])
def test_results_do_not_depend_on_memo_state(label, s, epsilon):
    runs = {
        "solve": lambda x: solve(x, epsilon, max_iterations=BUDGET),
        "full power": baseline_full_power,
        "greedy": baseline_greedy,
    }
    for name, run in runs.items():
        run(s)  # s now carries its memos
        kept, fresh = run(s), run(dataclasses.replace(s))
        assert "_reduced" in s.__dict__
        assert _fields(fresh) == _fields(kept), f"{label}: {name}"


def test_some_sweep_drops_certify_without_projection():
    # the drops where the whole cost is the search set-up and the scoring
    iterations = [solve(s, eps).iterations for label, s, eps in DROPS if label.startswith("sweep")]
    assert iterations == [0, 0, 0, 0]

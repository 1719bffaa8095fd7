"""``baseline_greedy`` scores its golden-section points on one
preallocated trial vector, with the powers checked once. The loop it
replaced, which copies the powers and calls ``sum_rate_from_powers`` at
every point, is kept here as the reference. Both evaluate the same float
expression at the same points, so the powers, the sum rate and the sweep
count must agree bit for bit."""

import time
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nomaopt import oracle
from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt.oracle import _HEURISTIC, _golden_max, baseline_greedy
from nomaopt.polyblock import SolveResult
from nomaopt.reduction import reduce_scenario, sum_rate_from_powers

from conftest import make_scenario

# -- the reference: a fresh copy and a checked rate at every point ---------------


def ref_baseline_greedy(s, sweeps=50, stall_tol=1e-6):
    t0 = time.perf_counter()
    r = reduce_scenario(s)
    caps = r.cap_carrier.reshape(-1)
    q = caps.copy()
    f = sum_rate_from_powers(r, q)
    used = 0
    for _ in range(sweeps):
        used += 1
        gained = 0.0
        for j in range(r.dim):
            if caps[j] <= 0:
                continue

            def slice_val(x):
                trial = q.copy()
                trial[j] = x
                return sum_rate_from_powers(r, trial)

            gx, gv = _golden_max(slice_val, 0.0, caps[j])
            for cand_x, cand_v in ((gx, gv), (0.0, slice_val(0.0)), (caps[j], slice_val(caps[j]))):
                if cand_v > f:
                    q[j] = cand_x
                    gained += cand_v - f
                    f = cand_v
        if gained < stall_tol:
            break
    return SolveResult.from_powers(r, q, t0, algorithm="greedy", iterations=used, **_HEURISTIC)


# -- random instances ------------------------------------------------------------


@st.composite
def _scenarios(draw):
    """A generated drop (fading on or off, caps 1e-7-1e-4 W) or synthetic
    gains across 1e-16-1e-4 at noise 1e-13; K 1-4, L 1-3, 1-2 users per
    cell, some carrier caps zero."""
    K = draw(st.integers(1, 4))
    L = draw(st.integers(1, 3))
    M = draw(st.integers(1, 2))
    if draw(st.booleans()):
        cfg = RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=M, fading=draw(st.booleans()))
        drop = generate_scenario(cfg, seed=[draw(st.integers(0, 1000)), 0])
        return scenario_with_caps(drop, draw(st.sampled_from([1e-7, 1e-6, 1e-5, 1e-4])))
    exponents = draw(st.lists(st.floats(-16.0, -4.0), min_size=K * K * M * L, max_size=K * K * M * L))
    gains = 10.0 ** np.array(exponents).reshape(K, K * M, L)
    caps = draw(st.lists(st.sampled_from([0.0, 1e-6, 1e-3]), min_size=K * L, max_size=K * L))
    return make_scenario(gains, noise=1e-13, subcarrier_cap=np.array(caps).reshape(K, L))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_scenarios(), st.integers(0, 3), st.sampled_from([0.0, 1e-6, 1e-3]))
def test_greedy_matches_the_copying_reference(s, sweeps, stall_tol):
    with patch.object(oracle, "_SWEEPS", sweeps), patch.object(oracle, "_STALL_TOL", stall_tol):
        got = baseline_greedy(s)
    ref = ref_baseline_greedy(s, sweeps=sweeps, stall_tol=stall_tol)
    assert got.allocation.p.tobytes() == ref.allocation.p.tobytes()
    assert got.z.tobytes() == ref.z.tobytes()
    assert got.sum_rate_nats == ref.sum_rate_nats
    assert got.iterations == ref.iterations

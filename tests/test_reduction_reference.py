"""``reduce_scenario`` gathers the served users' gains with numpy fancy
indexing. The per-entry loop it replaced is kept here as the reference.
Both copy the same gain entries, so the reduced arrays, their flags and
the active indices must agree bit for bit, ties included."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nomaopt.experiments import RadioConfig, generate_scenario
from nomaopt.model import Scenario
from nomaopt.reduction import ReducedProblem, UnsupportedWeightsError, reduce_scenario

from conftest import make_scenario

# -- the reference: the per-entry loop -------------------------------------------


def ref_reduce_scenario(s: Scenario) -> ReducedProblem:
    if np.any(s.weights != 1.0):
        raise UnsupportedWeightsError("the reduction requires all rate weights equal to 1")
    K, L = s.num_cells, s.num_subcarriers
    best = np.zeros((K, L), dtype=np.int64)
    g_act = np.zeros((K, L))
    g_cross = np.zeros((K, L, K))
    active = []
    for k in range(K):
        off = s.global_user(k, 0)
        own = s.gains[k, off : off + s.users_per_cell[k], :]
        for l in range(L):
            u = int(np.argmax(own[:, l]))
            best[k, l] = u
            g_act[k, l] = own[u, l]
            gu = s.global_user(k, u)
            for j in range(K):
                if j != k:
                    g_cross[k, l, j] = s.gains[j, gu, l]
            active.append(s.flat_index(k, l, u))
    best.setflags(write=False)
    g_act.setflags(write=False)
    g_cross.setflags(write=False)
    order = np.argsort(active)
    if not np.all(order == np.arange(len(active))):
        # canonical order is cell-major then carrier, same as our fill order
        raise AssertionError("active indices not in canonical order")
    return ReducedProblem(
        scenario=s,
        best_user=best,
        active=tuple(active),
        gain_active=g_act,
        gain_cross=g_cross,
        cap_carrier=s.subcarrier_cap,
    )


# -- random instances ------------------------------------------------------------

# a few exact values, so that gains tie within and across users and cells
_TIED = [0.25, 0.5, 1.0, 2.0]


@st.composite
def _scenarios(draw):
    """A generated drop (fading on or off) or synthetic gains, K 1-5, L 1-4,
    1-4 users per cell (ragged), with exact gain ties."""
    K = draw(st.integers(1, 5))
    L = draw(st.integers(1, 4))
    users = draw(st.lists(st.integers(1, 4), min_size=K, max_size=K))
    offsets = np.cumsum([0] + users[:-1])
    if draw(st.booleans()):
        cfg = RadioConfig(num_cells=K, num_subcarriers=L, users_per_cell=4, fading=draw(st.booleans()))
        drop = generate_scenario(cfg, seed=[draw(st.integers(0, 1000)), 0])
        keep = [4 * k + u for k in range(K) for u in range(users[k])]
        gains = drop.gains[:, keep, :].copy()
        # a user sharing every gain with a lower-indexed user of its cell
        for k in range(K):
            if users[k] > 1 and draw(st.booleans()):
                src, dst = sorted(draw(st.lists(st.integers(0, users[k] - 1), min_size=2, max_size=2, unique=True)))
                gains[:, offsets[k] + dst, :] = gains[:, offsets[k] + src, :]
        return dataclasses.replace(
            drop,
            users_per_cell=tuple(users),
            gains=gains,
            weights=np.ones(sum(users)),
        )
    U = sum(users)
    gain = st.one_of(st.sampled_from(_TIED), st.floats(min_value=1e-9, max_value=1e3))
    gains = np.array(draw(st.lists(gain, min_size=K * U * L, max_size=K * U * L))).reshape(K, U, L)
    caps = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=K * L, max_size=K * L)))
    return make_scenario(gains, subcarrier_cap=caps.reshape(K, L), users_per_cell=users)


def _array_fields(a: np.ndarray) -> tuple:
    return a.tobytes(), a.dtype, a.shape, a.flags.writeable


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_scenarios())
def test_reduction_matches_the_per_entry_reference(s):
    got, ref = reduce_scenario(s), ref_reduce_scenario(s)
    for name in ("best_user", "gain_active", "gain_cross", "cap_carrier"):
        assert _array_fields(getattr(got, name)) == _array_fields(getattr(ref, name)), name
    assert got.active == ref.active
    assert all(type(i) is int for i in got.active)
    assert got.scenario is s


"""``reduce_scenario`` gathers the served users' gains with numpy fancy
indexing. The per-entry loop it replaced is kept here as the reference.
Both copy the same gain entries, so the reduced arrays, their flags and
the active indices must agree bit for bit, ties included.

``power_systems`` keeps the negated scaled cross gains with the problem,
sets the diagonal through a strided view, masks columns only when some
SINR is 0 and reads its verdicts in Python, and the reduce step's
``_cap_ceilings`` subtracts the product with those negated gains, in
place. The bodies they replaced, which negate the gains, index the
diagonal and mask on every call, reduce the verdicts with numpy and add
the product with the gains, are kept here too. Negating a float and multiplying by 1 are exact, so
the powers, inverses and verdicts must agree bit for bit.

``z_from_p`` returns the ratios n / d of ``compute_nd``, the one 1 + SINR
evaluation. The formula 1 + g q / d it replaced is kept here too. The two
round differently, so they agree to a few ulps, not bit for bit."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nomaopt.experiments import RadioConfig, generate_scenario
from nomaopt.model import Scenario
from nomaopt.polyblock import reduce_children
from nomaopt.reduction import (
    _CAP_RTOL,
    ReducedProblem,
    UnsupportedWeightsError,
    _over_cap,
    _solve_batch,
    power_systems,
    reduce_scenario,
    z_from_p,
)

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



# -- the reference: power systems with the gains negated on every call ------------


def _ref_system(r):
    scale = 1.0 / r.gain_active.T
    cross = np.ascontiguousarray(np.transpose(r.gain_cross, (1, 0, 2))) * scale[:, :, None]
    return scale, cross


def ref_power_systems(r, gamma):
    B, K = gamma.shape
    scale, cross = _ref_system(r)
    on = gamma > 0.0
    A = gamma[:, :, None] * -cross * on[:, None, :]
    diag = np.arange(K)
    A[:, diag, diag] = 1.0
    rhs = np.zeros((B, K, K + 1))
    rhs[:, :, 0] = gamma * scale * r.scenario.noise_power
    rhs.reshape(B, K * (K + 1))[:, 1 :: K + 2] = 1.0
    x = _solve_batch(A, rhs)
    growth = np.abs(x.reshape(B, K * (K + 1))[:, 1 :: K + 2])
    q, inv = x[:, :, 0], x[:, :, 1:]
    negative = q.min(axis=1) < 0.0
    if negative.any():
        b, qc = rhs[:, :, :1], x[:, :, :1]
        slack = 4.0 * (K + 2) * np.finfo(float).eps * (np.abs(A) @ np.abs(qc) + b)
        negative = (qc < -(np.abs(inv) @ (np.abs(b - A @ qc) + slack))).any(axis=(1, 2))
    return q, inv, ~(growth.max(axis=1) <= 1e12), negative


def ref_reduce_children(r, children, t):
    logs = np.log(children)
    f = logs.sum(axis=1, keepdims=True)
    slack = 4.0 * (children.shape[1] + 2) * np.finfo(float).eps * (1.0 + abs(t) + f)
    a = np.maximum(np.exp(t - f + logs - slack), 1.0)
    q, _, singular, negative = ref_power_systems(r, a - 1.0)
    over = np.any(_over_cap(r, q), axis=1)
    scale, cross = _ref_system(r)
    den = scale * r.scenario.noise_power + np.maximum(q, 0.0) @ cross[0].T
    bound = 1.0 + r.cap_carrier.reshape(-1) / den * (1.0 + _CAP_RTOL)
    keep = singular | (f[:, 0] <= t)
    lowered = np.where(keep[:, None], children, np.minimum(children, bound))
    return lowered[keep | ~(negative | over)]


def _batches(rng):
    """(reduced problem, SINR rows) pairs: random gains across 1e-16-1e-4 at
    noise 1e-13, K 1-8, L 1-3, SINRs from well before to far past the pole,
    a fifth of them 0; one row per carrier, passed as the transposed view
    a multi-carrier projection passes, or with one carrier up to 8 rows,
    and then its first row alone, C-contiguous, as the solver's line
    search passes it. Then a two-cell problem whose scaled cross gains are
    exactly 1, with exactly singular rows (gamma_0 gamma_1 = 1) and rows
    past the pole."""
    for _ in range(400):
        K, L = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        g = 10.0 ** rng.uniform(-16.0, -4.0, (K, K, L))
        caps = rng.choice([0.0, 1e-6, 1e-3], (K, L))
        r = reduce_scenario(make_scenario(g, noise=1e-13, subcarrier_cap=caps))
        B = int(rng.integers(1, 9)) if L == 1 else L
        gamma = 10.0 ** rng.uniform(-6.0, 6.0, (K, B)) * (rng.random((K, B)) > 0.2)
        yield r, gamma.T
        if L == 1:
            yield r, np.array([gamma[:, 0].tolist()])
    r = reduce_scenario(make_scenario(np.full((2, 2, 1), 1e-9), noise=1e-13))
    yield r, np.array([[2.0, 0.5], [0.5, 2.0], [0.25, 4.0], [4.0, 4.0], [3.0, 1.0], [0.0, 9.0], [0.5, 0.5]])


def test_power_systems_match_the_negating_reference():
    seen = {"singular": 0, "negative": 0, "zero": 0, "solved": 0}
    for r, gamma in _batches(np.random.default_rng(18)):
        x, singular, negative = power_systems(r, gamma)
        got = x[:, :, 0], x[:, :, 1:], np.array(singular, dtype=bool), np.array(negative, dtype=bool)
        ref = ref_power_systems(r, gamma)
        for name, a, b in zip(("q", "inv", "singular", "negative"), got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        q, _, singular, negative = got
        seen["singular"] += int(singular.sum())
        seen["negative"] += int((negative & ~singular).sum())
        seen["zero"] += int((gamma == 0.0).any(axis=1).sum())
        seen["solved"] += int((~singular & ~negative & (q > 0.0).any(axis=1)).sum())
    assert min(seen.values()) >= 3, seen


def test_reduce_children_matches_the_positive_gain_reference():
    rng = np.random.default_rng(19)
    kept = 0
    for _ in range(200):
        K = int(rng.integers(1, 6))
        g = 10.0 ** rng.uniform(-16.0, -4.0, (K, K, 1))
        r = reduce_scenario(make_scenario(g, noise=1e-13, subcarrier_cap=rng.choice([0.0, 1e-6, 1e-3], (K, 1))))
        children = 1.0 + 10.0 ** rng.uniform(-3.0, 4.0, (int(rng.integers(1, 9)), K))
        t = float(rng.uniform(0.0, 1.0)) * float(np.log(children).sum(axis=1).max())
        got, ref = reduce_children(r, children, t), ref_reduce_children(r, children, t)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        kept += got.shape[0]
    assert kept > 0


# -- the replaced 1 + SINR formula -------------------------------------------------


def ref_z_from_p(r: ReducedProblem, q: np.ndarray) -> np.ndarray:
    K, L = r.gain_active.shape
    den = np.einsum("klj,jl->kl", r.gain_cross, q.reshape(K, L)).reshape(-1) + r.scenario.noise_power
    return 1.0 + r.gain_active.reshape(-1) * q / den


def test_z_from_p_agrees_with_the_replaced_formula():
    rng = np.random.default_rng(20)
    moved = 0
    for _ in range(300):
        K, L = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        g = 10.0 ** rng.uniform(-16.0, -2.0, (K, K, L))
        caps = rng.choice([0.0, 1e-6, 1e-4, 1e-2], (K, L))
        noise = float(rng.choice([1e-15, 6.3e-15, 1e-13]))
        r = reduce_scenario(make_scenario(g, noise=noise, subcarrier_cap=caps))
        q = caps.reshape(-1) * rng.uniform(0.0, 1.0, r.dim) * (rng.random(r.dim) > 0.2)
        got, ref = z_from_p(r, q), ref_z_from_p(r, q)
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))
        moved += int(np.count_nonzero(got != ref))
    # the bound is met by entries that do move, not only by equal ones
    assert moved > 0

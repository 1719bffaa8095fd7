"""The dense simplex eliminates with one rank-one update per pivot; the
per-row loop it replaced does the same floating-point work per entry, so
both must agree bit for bit."""

import numpy as np

from nomaopt.simplex import solve_canonical_max


def _row_loop_simplex(c, A, b, tol=1e-9):
    """Reference: the same Bland simplex, eliminating row by row."""
    m, n = A.shape
    row_scale = np.max(np.abs(A), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A / row_scale[:, None]
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = np.maximum(b / row_scale, 0.0)
    T[m, :n] = c
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        candidates = np.flatnonzero(T[m, : n + m] > tol)
        if candidates.size == 0:
            break
        enter = int(candidates[0])
        rows = np.flatnonzero(T[:m, enter] > tol)
        ratios = T[rows, -1] / T[rows, enter]
        best = ratios.min()
        tied = rows[ratios <= best + tol * max(1.0, abs(best))]
        leave = int(min(tied, key=lambda i: basis[i]))
        T[leave] /= T[leave, enter]
        for r in range(m + 1):
            if r != leave and T[r, enter] != 0.0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
        pivots += 1
    x = np.zeros(n + m)
    for i, col in enumerate(basis):
        x[col] = T[i, -1]
    x = x[:n]
    x[np.abs(x) < np.finfo(float).tiny] = 0.0
    return x, pivots


def test_rank_one_pivots_match_row_loop_bit_for_bit():
    rng = np.random.default_rng(97)
    total = 0
    for _ in range(300):
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        A = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) > 0.3)
        A = np.vstack([A, np.eye(n)])  # box rows keep every LP bounded
        b = np.concatenate([rng.uniform(0.0, 2.0, size=m), np.ones(n)])
        c = rng.normal(size=n)
        sol = solve_canonical_max(c, A, b)
        x, pivots = _row_loop_simplex(c, A, b)
        assert np.array_equal(sol.x, x)
        assert sol.iterations == pivots
        total += pivots
    assert total > 300  # most LPs pivot more than once

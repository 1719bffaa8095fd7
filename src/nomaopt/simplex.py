"""Dense simplex method for small canonical-form linear programs.

Solves max c.x subject to A x <= b, x >= 0 with b >= 0, which is the only
form the projection step needs (its epigraph variable is shifted so every
right-hand side is non-negative, making the all-slack basis feasible and a
phase-1 search unnecessary). Bland's smallest-index rule is used for both
the entering and the leaving choice, so the method cannot cycle, and each
pivot eliminates the entering column with one rank-one update. Rows are
equilibrated by their largest coefficient before pivoting; the pivot
tolerance ``_TOL`` applies to the equilibrated tableau, and more than
``_MAX_PIVOTS`` pivots raise SimplexError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexError", "SimplexSolution", "solve_canonical_max"]

_TOL = 1e-9
_MAX_PIVOTS = 100_000


class SimplexError(RuntimeError):
    """The LP is malformed, unbounded, or the pivot budget ran out."""


@dataclass(frozen=True, eq=False)
class SimplexSolution:
    x: np.ndarray
    value: float
    iterations: int


def solve_canonical_max(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> SimplexSolution:
    """Maximize c.x subject to A x <= b, x >= 0, for b >= 0 up to ``_TOL``
    relative to each row's largest coefficient."""
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape != (b.shape[0], c.shape[0]):
        raise SimplexError(f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise SimplexError("LP data must be finite")
    if np.any(b < -_TOL * np.maximum(1.0, np.max(np.abs(A), axis=1, initial=0.0))):
        raise SimplexError("right-hand side must be non-negative")
    m, n = A.shape

    row_scale = np.max(np.abs(A), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A / row_scale[:, None]
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = np.maximum(b / row_scale, 0.0)
    T[m, :n] = c

    basis = list(range(n, n + m))
    iterations = 0
    while True:
        reduced = T[m, : n + m]
        candidates = np.flatnonzero(reduced > _TOL)
        if candidates.size == 0:
            break
        enter = int(candidates[0])
        col = T[:m, enter]
        rows = np.flatnonzero(col > _TOL)
        if rows.size == 0:
            raise SimplexError("objective unbounded above over the feasible region")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + _TOL * max(1.0, abs(best))]
        leave = int(min(tied, key=lambda i: basis[i]))

        T[leave] /= T[leave, enter]
        f = T[:, enter].copy()
        f[leave] = 0.0
        T -= np.outer(f, T[leave])
        basis[leave] = enter
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise SimplexError(f"pivot budget of {_MAX_PIVOTS} exhausted")

    x = np.zeros(n + m)
    for i, col in enumerate(basis):
        x[col] = T[i, -1]
    x = x[:n]
    x[np.abs(x) < np.finfo(float).tiny] = 0.0
    return SimplexSolution(x=x, value=float(c @ x), iterations=iterations)

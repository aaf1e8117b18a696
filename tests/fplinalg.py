"""Dense Gaussian elimination mod a prime q: the test oracle for the
degree-1 forest division in ``circlift.winding``.

Matrices are numpy int64 arrays with entries reduced to [0, q); q stays
small (a few hundred at most) so int64 products cannot overflow. Used for
membership-in-image tests and for solving coboundary systems over F_q.
"""

from __future__ import annotations

import numpy as np


def to_numpy_mod(mat: np.ndarray, q: int) -> np.ndarray:
    """An integer matrix reduced mod q."""
    return np.mod(mat, q)


def _inv_mod(a: int, q: int) -> int:
    return pow(int(a), q - 2, q) if q > 2 else int(a) % q


def row_echelon_mod(A: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of A mod q and its pivot columns."""
    R = np.mod(A.astype(np.int64), q).copy()
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * _inv_mod(R[r, c], q)) % q
        rows = np.nonzero(R[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            R[rows] = (R[rows] - np.outer(R[rows, c], R[r])) % q
        pivots.append(c)
        r += 1
    return R, pivots


def rank_mod(A: np.ndarray, q: int) -> int:
    return len(row_echelon_mod(A, q)[1])


def solve_mod(A: np.ndarray, b: np.ndarray, q: int,
              free_values: np.ndarray | None = None) -> np.ndarray | None:
    """One solution x of A x = b (mod q), or None when inconsistent.

    Free variables take the corresponding ``free_values`` entries (zero by
    default), which keeps the output deterministic and minimal-support.
    """
    A = np.mod(np.asarray(A, dtype=np.int64), q)
    b = np.mod(np.asarray(b, dtype=np.int64), q)
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(m, 1)], axis=1)
    R, pivots = row_echelon_mod(aug, q)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    free = [c for c in range(n) if c not in set(pivots)]
    if free_values is not None and free:
        x[free] = np.mod(free_values[: len(free)], q)
        # solved rows must absorb the chosen free values
        rhs = (R[:, n] - R[:, :n] @ x) % q
    else:
        rhs = R[:, n]
    for r, c in enumerate(pivots):
        x[c] = rhs[r] % q
    return x


def in_image_mod(A: np.ndarray, b: np.ndarray, q: int) -> bool:
    return solve_mod(A, b, q) is not None


def nullspace_mod(A: np.ndarray, q: int) -> list[np.ndarray]:
    """Basis of the kernel of A mod q (one vector per free column)."""
    A = np.mod(np.asarray(A, dtype=np.int64), q)
    m, n = A.shape
    R, pivots = row_echelon_mod(A, q)
    basis = []
    pivot_set = set(pivots)
    for c in range(n):
        if c in pivot_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r, c]) % q
        basis.append(v)
    return basis

"""Smith normal form over Z and the integer linear algebra built on it.

Arbitrary-precision throughout (plain Python ints): coefficients grow
quickly under unimodular reduction and must stay exact. Desk-scale only;
callers enforce their own size caps.
"""

from __future__ import annotations

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(A: Matrix, i: int, j: int) -> None:
    A[i], A[j] = A[j], A[i]


def _swap_cols(A: Matrix, i: int, j: int) -> None:
    for row in A:
        row[i], row[j] = row[j], row[i]


def _add_row(A: Matrix, src: int, dst: int, c: int) -> None:
    if c:
        row_s, row_d = A[src], A[dst]
        for k in range(len(row_d)):
            row_d[k] += c * row_s[k]


def _add_col(A: Matrix, src: int, dst: int, c: int) -> None:
    if c:
        for row in A:
            row[dst] += c * row[src]


def smith_normal_form(matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (S, U, V) with S = U @ A @ V, U and V unimodular, S diagonal
    with nonnegative entries satisfying the divisibility chain
    S[0][0] | S[1][1] | ...
    """
    S: Matrix = [[int(v) for v in row] for row in matrix]
    m = len(S)
    n = len(S[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def find_pivot(t: int) -> tuple[int, int] | None:
        best_pos, best = None, None
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best, best_pos = abs(v), (i, j)
                    if best == 1:
                        return best_pos
        return best_pos

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            _swap_rows(S, pi, t)
            _swap_rows(U, pi, t)
        if pj != t:
            _swap_cols(S, pj, t)
            _swap_cols(V, pj, t)

        # reduce row/column against the pivot; each retry strictly shrinks
        # the least magnitude in the block, so this terminates
        for i in range(t + 1, m):
            q = S[i][t] // S[t][t]
            _add_row(S, t, i, -q)
            _add_row(U, t, i, -q)
        for j in range(t + 1, n):
            q = S[t][j] // S[t][t]
            _add_col(S, t, j, -q)
            _add_col(V, t, j, -q)
        if any(S[i][t] for i in range(t + 1, m)) or any(S[t][j] for j in range(t + 1, n)):
            continue

        # divisibility chain: fold any offending row into row t and redo
        offender = None
        for i in range(t + 1, m):
            if any(S[i][j] % S[t][t] for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            _add_row(S, offender, t, 1)
            _add_row(U, offender, t, 1)
            continue
        if S[t][t] < 0:
            for j in range(n):
                S[t][j] = -S[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1

    return S, U, V


def elementary_divisors(matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, ascending by divisibility."""
    S, _, _ = smith_normal_form(matrix)
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i]]


def solve_integer(matrix, rhs: list[int]) -> list[int] | None:
    """One integer solution x of A x = b, or None when none exists."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0 or n == 0:
        return None if any(rhs) else [0] * n
    S, U, V = smith_normal_form(matrix)
    c = [sum(U[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    r = min(m, n)
    for i in range(m):
        d = S[i][i] if i < r else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return [sum(V[i][k] * y[k] for k in range(n)) for i in range(n)]

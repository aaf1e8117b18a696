import numpy as np
import pytest

from conftest import dense_rank_mod
from fplinalg import (in_image_mod, nullspace_mod, rank_mod, row_echelon_mod,
                      solve_mod)


class TestRank:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 47])
    def test_matches_plain_elimination(self, q):
        rng = np.random.default_rng(q)
        for _ in range(20):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = rng.integers(-10, 11, size=(m, n))
            assert rank_mod(A, q) == dense_rank_mod(A.tolist(), q)

    def test_echelon_pivots_are_unit(self):
        rng = np.random.default_rng(1)
        A = rng.integers(0, 7, size=(5, 6))
        R, pivots = row_echelon_mod(A, 7)
        for r, c in enumerate(pivots):
            col = R[:, c] % 7
            assert col[r] == 1 and (np.delete(col, r) == 0).all()


class TestSolve:
    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_recovers_planted_solutions(self, q):
        rng = np.random.default_rng(q + 100)
        for _ in range(25):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            A = rng.integers(0, q, size=(m, n))
            x0 = rng.integers(0, q, size=n)
            b = (A @ x0) % q
            x = solve_mod(A, b, q)
            assert x is not None
            assert ((A @ x) % q == b).all()

    def test_detects_inconsistency(self):
        A = np.array([[1, 0], [1, 0]])
        assert solve_mod(A, np.array([1, 2]), 5) is None
        assert not in_image_mod(A, np.array([1, 2]), 5)

    def test_free_values_are_honored(self):
        # one equation, three unknowns: two free columns
        A = np.array([[1, 1, 1]])
        b = np.array([4])
        q = 7
        x = solve_mod(A, b, q, free_values=np.array([2, 3]))
        assert x is not None
        assert (A @ x) % q == 4
        assert x[1] == 2 and x[2] == 3

    def test_default_free_values_are_zero(self):
        A = np.array([[1, 1, 1]])
        x = solve_mod(A, np.array([4]), 7)
        assert list(x) == [4, 0, 0]


class TestNullspace:
    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_basis_spans_kernel(self, q):
        rng = np.random.default_rng(q + 7)
        for _ in range(15):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            A = rng.integers(0, q, size=(m, n))
            basis = nullspace_mod(A, q)
            assert len(basis) == n - rank_mod(A, q)
            for v in basis:
                assert ((A @ v) % q == 0).all()
            if basis:
                mat = np.stack(basis)
                assert rank_mod(mat, q) == len(basis)

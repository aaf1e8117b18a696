import numpy as np

from circlift.snf import elementary_divisors, smith_normal_form, solve_integer
from conftest import integer_determinant, random_complex, rp2_complex
from oracles import nullspace_integer, rank_integer


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


class TestSmithNormalForm:
    def test_known_form(self):
        S, U, V = smith_normal_form([[2, 4], [6, 8]])
        assert [S[0][0], S[1][1]] == [2, 4]
        assert S[0][1] == S[1][0] == 0

    def test_transforms_and_divisibility_random(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            A = [[int(v) for v in row] for row in rng.integers(-9, 10, (m, n))]
            S, U, V = smith_normal_form(A)
            assert mat_mul(mat_mul(U, A), V) == S
            assert abs(integer_determinant(U)) == 1
            assert abs(integer_determinant(V)) == 1
            diag = [S[i][i] for i in range(min(m, n))]
            for i in range(len(diag) - 1):
                if diag[i + 1]:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert S[i][j] == 0

    def test_zero_matrix(self):
        S, U, V = smith_normal_form([[0, 0], [0, 0]])
        assert S == [[0, 0], [0, 0]]

    def test_wider_entry_range_stays_exact(self):
        rng = np.random.default_rng(314)
        for _ in range(15):
            m, n = int(rng.integers(4, 9)), int(rng.integers(4, 9))
            A = [[int(v) for v in row] for row in rng.integers(-50, 51, (m, n))]
            S, U, V = smith_normal_form(A)
            assert mat_mul(mat_mul(U, A), V) == S
            assert abs(integer_determinant(U)) == 1
            assert abs(integer_determinant(V)) == 1
            diag = [S[i][i] for i in range(min(m, n))]
            for i in range(len(diag) - 1):
                if diag[i + 1]:
                    assert diag[i + 1] % diag[i] == 0


class TestSolve:
    def test_solvable(self):
        x = solve_integer([[2, 0], [0, 3]], [4, -9])
        assert x == [2, -3]

    def test_divisibility_obstruction(self):
        assert solve_integer([[2]], [3]) is None

    def test_inconsistent(self):
        assert solve_integer([[1], [1]], [1, 2]) is None

    def test_empty_system(self):
        # no equations, or equations in no unknowns
        assert solve_integer([], []) == []
        assert solve_integer([[], []], [0, 0]) == []
        assert solve_integer([[], []], [0, 1]) is None

    def test_underdetermined(self):
        x = solve_integer([[1, 2, 3]], [6])
        assert x is not None
        assert x[0] + 2 * x[1] + 3 * x[2] == 6

    def test_random_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = [[int(v) for v in row] for row in rng.integers(-6, 7, (m, n))]
            x0 = [int(v) for v in rng.integers(-6, 7, n)]
            b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
            x = solve_integer(A, b)
            assert x is not None
            assert [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)] == b


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            A = [[int(v) for v in row] for row in rng.integers(-5, 6, (m, n))]
            basis = nullspace_integer(A)
            assert len(basis) == n - rank_integer(A)
            for v in basis:
                assert all(sum(A[i][j] * v[j] for j in range(n)) == 0
                           for i in range(m))


class TestTorsionDetection:
    def test_rp2_has_single_two(self):
        rp2 = rp2_complex()
        divs = elementary_divisors(rp2.boundary_matrix(2))
        assert sorted(divs) == [1] * 9 + [2]

    def test_contractible_complexes_torsion_free(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            cx = random_complex(rng, n_max=8)
            if cx.dimension < 2:
                continue
            divs = elementary_divisors(cx.boundary_matrix(1))
            # boundary into degree 0 never carries torsion
            assert all(d == 1 for d in divs)

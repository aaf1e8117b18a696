"""Shared fixtures: hand-checkable example complexes and random generators."""

from __future__ import annotations

import numpy as np
import pytest

from circlift import (Chain, Cochain, FilteredComplex, GF, ZZ,
                      build_from_simplices, build_rips)
from circlift.experiments import sample_circle


def assert_same_arrays(cx: FilteredComplex, want) -> None:
    """The five arrays of every dimension, bitwise and of the same dtype:
    those of the complex ``want``, or `reference_complex_arrays`."""
    names = ("verts", "filt", "faces", "keys", "lex")
    if isinstance(want, FilteredComplex):
        want = [{name: getattr(want, "_" + name)[m] for name in names}
                for m in range(want.dimension + 1)]
    assert cx.dimension == len(want) - 1
    for m, ref in enumerate(want):
        for name in names:
            mine, arr = getattr(cx, "_" + name)[m], ref[name]
            assert (mine.dtype, mine.shape) == (arr.dtype, arr.shape), (m, name)
            assert mine.tobytes() == arr.tobytes(), (m, name)


@pytest.fixture
def filled_triangle() -> FilteredComplex:
    """Vertices a=0, b=1, c=2 with the 2-simplex filled in."""
    return build_from_simplices([((0, 1, 2), 1.0)])


@pytest.fixture
def hexagon() -> FilteredComplex:
    """Unit hexagon graph: 6 evenly spaced circle points, edges only. No
    three lie within 1.05, so max_dim 2 stores the arrays of the 1-skeleton
    and reads its empty degree 2, which the skeleton refuses."""
    pts, _ = sample_circle(6, 0.0, 2, seed=1)
    cx = build_rips(pts, 1.05, 2)
    assert_same_arrays(cx, build_rips(pts, 1.05, 1))
    return cx


@pytest.fixture
def square_with_diagonals() -> FilteredComplex:
    """a=0, b=1, c=2, d=3: the four sides plus both diagonals, no triangles."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    return build_from_simplices([(e, 1.0) for e in edges])


@pytest.fixture
def triangle_cocycle_f7(filled_triangle) -> Cochain:
    """The (3, 4, 1) cocycle on (bc, ac, ab) over F_7."""
    return Cochain.from_simplices(filled_triangle, 1, GF(7),
                                  {(1, 2): 3, (0, 2): 4, (0, 1): 1})


@pytest.fixture
def square_cycle_f7(square_with_diagonals) -> Chain:
    """The 3ab + 2bc + 3cd + 3ad + ac + bd cycle over F_7."""
    return Chain.from_simplices(
        square_with_diagonals, 1, GF(7),
        {(0, 1): 3, (1, 2): 2, (2, 3): 3, (0, 3): 3, (0, 2): 1, (1, 3): 1})


def hexagon_generator(cx: FilteredComplex) -> Cochain:
    """Integer indicator cocycle of the edge (0, 1)."""
    return Cochain.from_simplices(cx, 1, ZZ, {(0, 1): 1})


def hexagon_fundamental_cycle(cx: FilteredComplex) -> Chain:
    """The oriented 6-edge loop as an integer cycle."""
    return Chain.from_simplices(
        cx, 1, ZZ,
        {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (0, 5): -1})


def moore_z3_complex() -> FilteredComplex:
    """Mapping cone of a degree-3 simplicial wrap of a 9-gon onto a
    triangle: H_1 = Z/3, so degree-2 cohomology carries 3-torsion."""
    tris = []
    f = lambda i: 9 + (i % 3)
    for i in range(9):
        j = (i + 1) % 9
        tris.append(tuple(sorted((i, j, f(j)))))
        tris.append(tuple(sorted((i, f(i), f(j)))))
        tris.append(tuple(sorted((12, i, j))))
    return build_from_simplices([(t, 1.0) for t in tris])


def rp2_complex() -> FilteredComplex:
    """Minimal 6-vertex triangulation of the projective plane (H_1 = Z/2)."""
    faces = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
    return build_from_simplices([(t, 1.0) for t in faces])


@pytest.fixture
def moore_z3() -> FilteredComplex:
    return moore_z3_complex()


@pytest.fixture
def rp2() -> FilteredComplex:
    return rp2_complex()


def random_complex(rng: np.random.Generator, n_max: int = 12,
                   edge_prob: float = 0.55, tri_prob: float = 0.45,
                   n_min: int = 3) -> FilteredComplex:
    """Random filtered complex with integer filtration values (exact ties)."""
    n = int(rng.integers(n_min, n_max + 1))
    table = {(i,): 0.0 for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                table[(i, j)] = float(rng.integers(1, 8))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if ((i, j) in table and (i, k) in table and (j, k) in table
                        and rng.random() < tri_prob):
                    base = max(table[(i, j)], table[(i, k)], table[(j, k)])
                    table[(i, j, k)] = float(base + rng.integers(0, 3))
    return FilteredComplex(table)


def random_connected_complex(rng: np.random.Generator, n_max: int = 12,
                             extra_edge_prob: float = 0.4,
                             tri_prob: float = 0.5) -> FilteredComplex:
    """Connected random complex: a random spanning tree plus extras."""
    n = int(rng.integers(4, n_max + 1))
    table = {(i,): 0.0 for i in range(n)}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        table[tuple(sorted((u, v)))] = float(rng.integers(1, 6))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in table and rng.random() < extra_edge_prob:
                table[(i, j)] = float(rng.integers(1, 6))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if ((i, j) in table and (i, k) in table and (j, k) in table
                        and rng.random() < tri_prob):
                    base = max(table[(i, j)], table[(i, k)], table[(j, k)])
                    table[(i, j, k)] = float(base + rng.integers(0, 3))
    return FilteredComplex(table)


def random_fp_cocycle(rng: np.random.Generator, cx: FilteredComplex,
                      p: int) -> Cochain:
    """A random 1-cocycle over F_p: a coboundary plus, when the complex is a
    graph, arbitrary edge noise (every 1-cochain on a graph is closed)."""
    f = Cochain(cx, 0, GF(p),
                {i: int(v) for i, v in enumerate(rng.integers(0, p, cx.n_vertices))})
    from circlift import apply_coboundary
    c = apply_coboundary(f)
    if cx.dimension == 1:
        noise = Cochain(cx, 1, GF(p),
                        {i: int(v) for i, v in
                         enumerate(rng.integers(0, p, cx.n_simplices(1)))})
        c = c + noise
    return c


def dense_rank_mod(rows: list[list[int]], q: int) -> int:
    """Plain-Python Gaussian elimination rank mod q (test-local oracle)."""
    mat = [[v % q for v in row] for row in rows]
    rank = 0
    n_cols = len(mat[0]) if mat else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], q - 2, q) if q > 2 else mat[rank][col]
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def integer_determinant(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant (test-local, exact)."""
    n = len(rows)
    mat = [[int(v) for v in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]

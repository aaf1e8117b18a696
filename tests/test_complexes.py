import json
import math

import numpy as np
import pytest

from circlift import (Chain, Cochain, FilteredComplex, GF, RR, ZZ,
                      apply_boundary, apply_coboundary, build_from_simplices,
                      build_rips, kronecker_pairing, run_pipeline)
from circlift.errors import DimensionMismatch, DimensionOutOfRange, EmptyInput
from conftest import hexagon_fundamental_cycle, random_complex
from oracles import boundary_faces


class TestBuildRips:
    def test_equilateral_triangle(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        cx = build_rips(pts, 2.0, 2)
        assert cx.n_simplices(0) == 3
        assert cx.n_simplices(1) == 3
        assert cx.n_simplices(2) == 1
        assert all(abs(f - 1.0) < 1e-12 for f in cx.filtration_values(1))
        assert abs(cx.filtration((0, 1, 2)) - 1.0) < 1e-12

    def test_small_threshold_keeps_vertices_only(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        cx = build_rips(pts, 0.5, 2)
        assert cx.dimension == 0
        assert cx.n_simplices(0) == 3

    def test_hexagon_graph(self):
        # pairwise circle distances are 2 sin(k pi / 6): only adjacent pairs
        # fall below 1.05
        angles = np.arange(6) / 6
        pts = np.stack([np.cos(2 * np.pi * angles), np.sin(2 * np.pi * angles)], 1)
        cx = build_rips(pts, 1.05, 1)
        assert cx.n_simplices(1) == 6
        assert all(abs(f - 1.0) < 1e-9 for f in cx.filtration_values(1))
        expected = {(k, (k + 1) % 6) for k in range(6)}
        assert {tuple(sorted(e)) for e in cx.simplices(1)} == \
            {tuple(sorted(e)) for e in expected}

    def test_filtration_is_diameter(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((12, 3))
        cx = build_rips(pts, 1.8, 2)
        for s in cx.simplices(2):
            diam = max(np.linalg.norm(pts[a] - pts[b])
                       for a in s for b in s if a < b)
            assert abs(cx.filtration(s) - diam) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_rips(np.zeros((0, 2)), 1.0, 1)
        with pytest.raises(EmptyInput, match="^complex has no simplices$"):
            FilteredComplex({})
        with pytest.raises(EmptyInput, match="^no simplices supplied$"):
            build_from_simplices([])
        for threshold in ("auto", 0.9):
            with pytest.raises(EmptyInput, match="no points"):
                run_pipeline(points=np.zeros((0, 2)), threshold=threshold)


class TestComplexInvariants:
    def test_closed_under_faces_and_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pts = rng.standard_normal((10, 2))
            cx = build_rips(pts, 1.5, 2)   # constructor validates both
            for m in range(1, cx.dimension + 1):
                for s in cx.simplices(m):
                    for idx, _ in boundary_faces(cx, s):
                        face = cx.simplices(m - 1)[idx]
                        assert cx.filtration(face) <= cx.filtration(s) + 1e-12

    def test_missing_face_rejected(self):
        with pytest.raises(ValueError):
            FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1, 2): 1.0})

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1): 0.5,
                             (2,): 0.0, (0, 2): 0.5, (1, 2): 0.5,
                             (0, 1, 2): 0.1})

    def test_dense_index_sorted_by_filtration_then_lex(self):
        cx = build_from_simplices([((0, 1), 2.0), ((1, 2), 1.0), ((0, 2), 1.0)])
        assert cx.simplices(1) == [(0, 2), (1, 2), (0, 1)]


class TestOperators:
    def test_triangle_coboundary_matrix(self, filled_triangle):
        mat = filled_triangle.coboundary_matrix(1)
        assert mat.shape == (1, 3)
        edges = filled_triangle.simplices(1)
        by_edge = dict(zip(edges, mat[0].tolist()))
        assert by_edge[(0, 1)] == 1 and by_edge[(0, 2)] == -1 and by_edge[(1, 2)] == 1

    def test_hexagon_has_no_degree_one_coboundary(self, hexagon):
        mat = hexagon.coboundary_matrix(1)
        assert mat.shape == (0, 6)

    def test_degrees_without_a_matrix_are_refused(self, hexagon):
        for matrix, degree in ((hexagon.boundary_matrix, 0), (hexagon.boundary_matrix, 2),
                               (hexagon.coboundary_matrix, -1),
                               (hexagon.coboundary_matrix, 2)):
            with pytest.raises(DimensionOutOfRange, match=f"in degree {degree}$"):
                matrix(degree)

    def test_operators_refuse_degrees_out_of_range(self, filled_triangle):
        # degree 3 is the empty target of the top coboundary, with none of its own
        with pytest.raises(DimensionOutOfRange, match="^degree 3 out of range$"):
            apply_coboundary(Cochain(filled_triangle, 3, ZZ, {}))
        with pytest.raises(DimensionOutOfRange, match="^degree -1 out of range$"):
            apply_boundary(Chain(filled_triangle, 0, ZZ, {0: 1}))

    def test_coboundary_is_boundary_transpose(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            cx = random_complex(rng, n_max=9)
            if cx.dimension < 2:
                continue
            cob = cx.coboundary_matrix(1)
            bd = cx.boundary_matrix(2)
            for i in range(len(cob)):
                for j in range(len(cob[0])):
                    assert cob[i][j] == bd[j][i]

    @pytest.mark.parametrize("ring", [ZZ, GF(5), RR])
    def test_chain_complex_identity(self, ring):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cx = random_complex(rng, n_max=9)
            if cx.dimension < 2:
                continue
            c = Cochain(cx, 0, ring,
                        {i: ring.normalize(int(v)) for i, v in
                         enumerate(rng.integers(-4, 5, cx.n_vertices))})
            assert apply_coboundary(apply_coboundary(c)).is_zero()
            ch = Chain(cx, 2, ring,
                       {i: ring.normalize(int(v)) for i, v in
                        enumerate(rng.integers(-4, 5, cx.n_simplices(2)))})
            assert apply_boundary(apply_boundary(ch)).is_zero()

    def test_square_cycle_boundary_of_naive_lift(self, square_with_diagonals):
        # integer boundary of the centered lift concentrates on a and d
        chain = Chain.from_simplices(
            square_with_diagonals, 1, ZZ,
            {(0, 1): 3, (1, 2): 2, (2, 3): 3, (0, 3): 3, (0, 2): 1, (1, 3): 1})
        b = apply_boundary(chain)
        assert b.coefficient((0,)) == -7
        assert b.coefficient((1,)) == 0
        assert b.coefficient((2,)) == 0
        assert b.coefficient((3,)) == 7

    def test_triangle_lifted_cochain_coboundary(self, filled_triangle):
        c = Cochain.from_simplices(filled_triangle, 1, ZZ,
                                   {(1, 2): 3, (0, 2): -3, (0, 1): 1})
        assert apply_coboundary(c).coefficient((0, 1, 2)) == 7

    def test_coboundary_of_zero(self, filled_triangle):
        z = Cochain(filled_triangle, 1, ZZ, {})
        assert apply_coboundary(z).is_zero()


class TestKroneckerPairing:
    def test_single_overlap(self, hexagon):
        alpha = Cochain.from_simplices(hexagon, 1, ZZ, {(0, 1): 1})
        beta = hexagon_fundamental_cycle(hexagon)
        assert kronecker_pairing(alpha, beta) == 1

    def test_bilinearity(self, hexagon):
        alpha = Cochain.from_simplices(hexagon, 1, ZZ, {(0, 1): 5})
        beta = hexagon_fundamental_cycle(hexagon)
        assert kronecker_pairing(alpha, beta) == 5

    def test_coboundary_pairs_to_zero(self, hexagon):
        rng = np.random.default_rng(2)
        beta = hexagon_fundamental_cycle(hexagon)
        for _ in range(20):
            f = Cochain(hexagon, 0, ZZ,
                        {i: int(v) for i, v in enumerate(rng.integers(-9, 10, 6))})
            assert kronecker_pairing(apply_coboundary(f), beta) == 0

    def test_adjointness(self):
        # <delta f, beta> == <f, boundary beta> on random complexes
        rng = np.random.default_rng(8)
        for _ in range(25):
            cx = random_complex(rng, n_max=9)
            f = Cochain(cx, 0, ZZ,
                        {i: int(v) for i, v in
                         enumerate(rng.integers(-5, 6, cx.n_vertices))})
            beta = Chain(cx, 1, ZZ,
                         {i: int(v) for i, v in
                          enumerate(rng.integers(-5, 6, cx.n_simplices(1)))})
            assert kronecker_pairing(apply_coboundary(f), beta) == \
                kronecker_pairing(f, apply_boundary(beta))

    def test_dimension_mismatch(self, filled_triangle):
        alpha = Cochain(filled_triangle, 1, ZZ, {0: 1})
        beta = Chain(filled_triangle, 0, ZZ, {0: 1})
        with pytest.raises(DimensionMismatch):
            kronecker_pairing(alpha, beta)


class TestSerialization:
    def test_chain_json_round_trip(self, square_with_diagonals):
        chain = Chain.from_simplices(square_with_diagonals, 1, ZZ,
                                     {(0, 1): 3, (1, 3): -10 ** 25})
        blob = json.dumps(chain.to_json_dict())
        back = Chain.from_json_dict(square_with_diagonals, json.loads(blob))
        assert back == chain
        # big integers survive as decimal strings
        assert any(v == str(-10 ** 25) for _, v in json.loads(blob)["entries"])

    def test_complex_json_round_trip(self, hexagon, tmp_path):
        hexagon.write_json(tmp_path / "cx.json")
        text = (tmp_path / "cx.json").read_text()
        assert text.endswith("}\n")
        for back in (FilteredComplex.from_json_dict(hexagon.to_json_dict()),
                     FilteredComplex.from_json_dict(json.loads(text))):
            assert back.simplices(1) == hexagon.simplices(1)
            for e in hexagon.simplices(1):
                assert back.filtration(e) == hexagon.filtration(e)

    def test_real_cochain_round_trip(self, hexagon):
        c = Cochain(hexagon, 1, RR, {0: 0.25, 3: -1.5})
        back = Cochain.from_json_dict(hexagon, c.to_json_dict())
        assert back == c


class TestRefusedEntries:
    # a triangle (0, 1, 2) and an edge (2, 3): the triangle's own index in
    # degree 2 is 0, which is also an edge's index in degree 1
    @pytest.fixture
    def cx(self):
        return build_from_simplices([((0, 1, 2), 1.0), ((2, 3), 0.5)])

    def test_simplex_of_another_degree(self, cx):
        with pytest.raises(ValueError, match=r"^simplex \(0, 1, 2\) is not of degree 1$"):
            Cochain.from_simplices(cx, 1, GF(5), {(0, 1, 2): 3})
        with pytest.raises(ValueError, match=r"^simplex \(2,\) is not of degree 1$"):
            Cochain.from_json_dict(cx, {"dim": 1, "ring": "F_5", "entries": [[[2], "4"]]})
        c = Cochain.from_simplices(cx, 1, GF(5), {(2, 3): 3})
        with pytest.raises(ValueError, match=r"^simplex \(0, 1, 2\) is not of degree 1$"):
            c.coefficient((0, 1, 2))
        with pytest.raises(ValueError, match=r"^simplex \(\) is not of degree 1$"):
            c.coefficient(())
        assert c.coefficient((2, 3)) == 3 and c.coefficient((0, 1)) == 0

    def test_descending_simplex(self, cx):
        with pytest.raises(ValueError,
                           match=r"^vertices must be strictly ascending, got \(1, 0\)$"):
            Cochain.from_simplices(cx, 1, GF(5), {(1, 0): 3})

    def test_cli_refuses_a_cochain_of_another_degree(self, cx, tmp_path):
        from circlift.cli import main
        (tmp_path / "cx.json").write_text(json.dumps(cx.to_json_dict()))
        (tmp_path / "c.json").write_text(json.dumps(
            {"dim": 1, "ring": "F_5", "entries": [[[0, 1, 2], "4"]]}))
        assert main(["lift", "--complex", str(tmp_path / "cx.json"), "--input",
                     str(tmp_path / "c.json"), "--prime", "5", "--out", str(tmp_path)]) == 1
        err = json.loads((tmp_path / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValueError", "simplex (0, 1, 2) is not of degree 1")

    def test_index_or_length_outside_the_degree(self, cx):
        n = cx.n_simplices(1)
        with pytest.raises(ValueError, match=f"^simplex index {n} out of range in degree 1$"):
            Cochain(cx, 1, ZZ, {n: 1})
        with pytest.raises(ValueError, match="^simplex index -1 out of range in degree 1$"):
            Cochain(cx, 1, ZZ, {-1: 1})
        for length in (n - 1, n + 1):
            with pytest.raises(ValueError,
                               match=f"^{length} coefficients for {n} simplices in degree 1$"):
                Cochain.from_array(cx, 1, ZZ, np.ones(length, dtype=np.int64))


class TestRestrict:
    def test_restrict_drops_late_simplices(self):
        cx = build_from_simplices([((0, 1), 1.0), ((1, 2), 2.0), ((0, 2), 3.0)])
        sub = cx.restrict(2.0)
        assert sub.n_simplices(1) == 2
        assert not sub.has_simplex((0, 2))

    def test_push_to_subcomplex(self):
        cx = build_from_simplices([((0, 1), 1.0), ((1, 2), 2.0), ((0, 2), 3.0)])
        c = Cochain.from_simplices(cx, 1, ZZ, {(0, 1): 4, (0, 2): 9})
        sub = cx.restrict(2.0)
        pushed = c.push_to(sub)
        assert pushed.coefficient((0, 1)) == 4
        assert pushed.complex is sub
        assert len(pushed.entries) == 1

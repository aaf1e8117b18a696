from collections import deque

import numpy as np
import pytest

import circlift.smoothing as smoothing
from circlift import (Chain, Cochain, RR, ZZ, apply_coboundary,
                      build_from_simplices, circular_correlation, circular_map,
                      harmonic_smooth, kronecker_pairing)
from circlift.errors import InconsistentCocycle, NotACocycle, SolverDiverged, VertexSetMismatch
from circlift.smoothing import CircularCoords, SmoothedCocycle
from conftest import (hexagon_fundamental_cycle, hexagon_generator,
                      random_complex, random_connected_complex)


def reference_circular_map(smoothed, base_vertex=None) -> dict[int, float]:
    """Oracle: per-component adjacency-list BFS, each component rooted at
    its lowest vertex index or at the base vertex, integrating mod 1."""
    alpha = smoothed.alpha_tilde
    cx = alpha.complex
    n_v = cx.n_vertices
    adj = [[] for _ in range(n_v)]
    for j, (a, b) in enumerate(cx.simplices(1)):
        ia, ib = cx.index((a,)), cx.index((b,))
        v = float(alpha.entries.get(j, 0.0))
        adj[ia].append((ib, v))
        adj[ib].append((ia, -v))
    theta = np.full(n_v, np.nan)
    starts = list(range(n_v))
    if base_vertex is not None:
        starts.insert(0, cx.index((base_vertex,)))
    for root in starts:
        if not np.isnan(theta[root]):
            continue
        theta[root] = 0.0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, v in adj[u]:
                if np.isnan(theta[w]):
                    theta[w] = (theta[u] + v) % 1.0
                    queue.append(w)
    return {vid: float(theta[i] % 1.0) for i, vid in enumerate(cx.vertex_ids)}


def dense_harmonic(alpha) -> np.ndarray:
    """Oracle: alpha + B f for the dense E x V coboundary B, where f solves
    the normal equations by np.linalg.solve with the lowest vertex index of
    each component held at 0."""
    cx = alpha.complex
    n_v, n_e = cx.n_vertices, cx.n_simplices(1)
    B = np.zeros((n_e, n_v))
    component = list(range(n_v))

    def find(v):
        while component[v] != v:
            v = component[v]
        return v

    for j, (a, b) in enumerate(cx.simplices(1)):
        ia, ib = cx.index((a,)), cx.index((b,))
        B[j, ia], B[j, ib] = -1.0, 1.0
        ra, rb = find(ia), find(ib)
        component[max(ra, rb)] = min(ra, rb)
    keep = [v for v in range(n_v) if find(v) != v]
    a = np.array([float(alpha.entries.get(j, 0)) for j in range(n_e)])
    f = np.zeros(n_v)
    if keep:
        Bk = B[:, keep]
        f[keep] = np.linalg.solve(Bk.T @ Bk, -(Bk.T @ a))
    return a + B @ f


def random_graph_cocycle(rng, cx) -> Cochain:
    """Integer 1-cocycle: arbitrary on a graph, a coboundary otherwise."""
    if cx.dimension == 1:
        return Cochain(cx, 1, ZZ, {i: int(v) for i, v in
                                   enumerate(rng.integers(-4, 5, cx.n_simplices(1)))})
    g = Cochain(cx, 0, ZZ, {i: int(v) for i, v in
                            enumerate(rng.integers(-4, 5, cx.n_vertices))})
    return apply_coboundary(g)


class TestHarmonicSmooth:
    def test_hexagon_uniform_sixth(self, hexagon):
        smoothed = harmonic_smooth(hexagon_generator(hexagon))
        # one sixth on every edge, oriented around the loop: the ascending
        # edge (0,5) runs against the loop, so it carries -1/6
        for edge in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            assert smoothed.alpha_tilde.coefficient(edge) == pytest.approx(1 / 6, abs=1e-9)
        assert smoothed.alpha_tilde.coefficient((0, 5)) == pytest.approx(-1 / 6, abs=1e-9)

    def test_coboundary_smooths_to_zero(self, hexagon):
        rng = np.random.default_rng(0)
        g = Cochain(hexagon, 0, ZZ,
                    {i: int(v) for i, v in enumerate(rng.integers(-5, 6, 6))})
        smoothed = harmonic_smooth(apply_coboundary(g))
        assert all(abs(v) < 1e-9 for v in smoothed.alpha_tilde.entries.values())

    def test_contractible_complex_smooths_to_zero(self, filled_triangle):
        alpha = Cochain.from_simplices(filled_triangle, 1, ZZ,
                                       {(1, 2): -4, (0, 2): -3, (0, 1): 1})
        smoothed = harmonic_smooth(alpha)
        assert all(abs(v) < 1e-9 for v in smoothed.alpha_tilde.entries.values())

    def test_decomposition_is_exact_as_constructed(self, hexagon):
        alpha = hexagon_generator(hexagon).scale(3)
        smoothed = harmonic_smooth(alpha)
        delta_f = apply_coboundary(smoothed.potential)
        for j in range(hexagon.n_simplices(1)):
            lhs = smoothed.alpha_tilde.entries.get(j, 0.0)
            rhs = float(alpha.entries.get(j, 0)) + delta_f.entries.get(j, 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_residual_and_minimality_random(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            cx = random_connected_complex(rng, n_max=10)
            g = Cochain(cx, 0, ZZ,
                        {i: int(v) for i, v in
                         enumerate(rng.integers(-4, 5, cx.n_vertices))})
            alpha = apply_coboundary(g)
            smoothed = harmonic_smooth(alpha)
            a = np.zeros(cx.n_simplices(1))
            for i, v in alpha.entries.items():
                a[i] = v
            assert smoothed.residual_norm <= 1e-9 * max(1.0, np.linalg.norm(a))
            tilde = np.zeros(cx.n_simplices(1))
            for i, v in smoothed.alpha_tilde.entries.items():
                tilde[i] = v
            norm = np.linalg.norm(tilde)
            for _ in range(25):
                f = Cochain(cx, 0, ZZ,
                            {i: int(v) for i, v in
                             enumerate(rng.integers(-3, 4, cx.n_vertices))})
                other = np.zeros(cx.n_simplices(1))
                for i, v in (alpha + apply_coboundary(f)).entries.items():
                    other[i] = v
                assert norm <= np.linalg.norm(other) + 1e-9

    def test_winding_fidelity(self, hexagon):
        # the smoothed class integrates to exactly w around the loop
        beta = Chain(hexagon, 1, RR, hexagon_fundamental_cycle(hexagon).entries)
        for w in (1, 2, 5, 10):
            smoothed = harmonic_smooth(hexagon_generator(hexagon).scale(w))
            total = kronecker_pairing(smoothed.alpha_tilde, beta)
            assert total == pytest.approx(w, abs=1e-9)

    def test_rejects_non_cocycle(self, filled_triangle):
        alpha = Cochain.from_simplices(filled_triangle, 1, ZZ, {(0, 1): 1})
        with pytest.raises(NotACocycle):
            harmonic_smooth(alpha)

    def test_rejects_a_cochain_over_a_field(self, hexagon):
        with pytest.raises(ValueError, match="^expected integer coefficients$"):
            harmonic_smooth(hexagon_generator(hexagon).reduce_mod(5))

    def test_rejects_other_degrees(self, filled_triangle):
        for dim in (0, 2):
            with pytest.raises(ValueError, match="^smoothing applies to 1-cochains$"):
                harmonic_smooth(Cochain(filled_triangle, dim, ZZ, {}))

    def test_solver_that_does_not_converge_is_refused(self, hexagon, monkeypatch):
        # a solver that stops at its starting point leaves the full residual
        monkeypatch.setattr(smoothing, "_jacobi_cg",
                            lambda matvec, diag, rhs: np.zeros_like(rhs))
        with pytest.raises(SolverDiverged, match="^normal-equation residual .* above tolerance$"):
            harmonic_smooth(hexagon_generator(hexagon))

    def test_iterative_solver_matches_direct(self, hexagon):
        # edge-list conjugate gradients against the dense direct solve, on
        # the hexagon and on random complexes with several components
        rng = np.random.default_rng(12)
        cases = [hexagon_generator(hexagon).scale(3)]
        while len(cases) < 30:
            cx = random_complex(rng, n_max=12, edge_prob=0.3,
                                tri_prob=0.0 if len(cases) % 2 else 0.4)
            if cx.dimension >= 1:
                cases.append(random_graph_cocycle(rng, cx))
        for alpha in cases:
            got = harmonic_smooth(alpha).alpha_tilde
            want = dense_harmonic(alpha)
            for j in range(alpha.complex.n_simplices(1)):
                assert got.entries.get(j, 0.0) == pytest.approx(want[j], abs=1e-9)

    def test_iterative_solver_on_larger_cloud(self):
        from circlift import run_pipeline
        from circlift.experiments import sample_circle
        pts, angles = sample_circle(80, 0.0, 3, seed=21)
        result = run_pipeline(points=pts, prime=47, threshold=0.6)
        want = dense_harmonic(result.winding_report.reduced_cocycle)
        got = result.smoothed.alpha_tilde
        assert max(abs(got.entries.get(j, 0.0) - v) for j, v in enumerate(want)) <= 1e-9
        truth = {i: float(a) for i, a in enumerate(angles)}
        assert circular_correlation(result.coords, truth) > 0.99


class TestCircularMap:
    def test_hexagon_sixths(self, hexagon):
        smoothed = harmonic_smooth(hexagon_generator(hexagon))
        coords = circular_map(smoothed)
        for k in range(6):
            assert coords.values[k] == pytest.approx(k / 6, abs=1e-9)

    def test_zero_cochain_maps_to_zero(self, hexagon):
        smoothed = harmonic_smooth(Cochain(hexagon, 1, ZZ, {}))
        coords = circular_map(smoothed)
        assert all(v == 0.0 for v in coords.values.values())

    def test_two_components(self):
        cx = build_from_simplices([((0, 1), 1.0), ((2, 3), 1.0)])
        smoothed = harmonic_smooth(Cochain(cx, 1, ZZ, {}))
        coords = circular_map(smoothed)
        assert set(coords.values) == {0, 1, 2, 3}
        assert all(v == 0.0 for v in coords.values.values())

    def test_base_vertex_anchored(self, hexagon):
        smoothed = harmonic_smooth(hexagon_generator(hexagon))
        coords = circular_map(smoothed, base_vertex=3)
        assert coords.values[3] == 0.0

    def test_base_vertex_not_in_the_complex_is_named(self, hexagon):
        smoothed = harmonic_smooth(hexagon_generator(hexagon))
        for base in (999, -1, 6):
            with pytest.raises(ValueError, match=f"^base vertex {base} is not a vertex of the "
                                                 "complex$") as refused:
                circular_map(smoothed, base_vertex=base)
            assert refused.value.operation == "smoothing_coords.circular_map"

    def test_edge_consistency_everywhere(self, hexagon):
        smoothed = harmonic_smooth(hexagon_generator(hexagon).scale(5))
        coords = circular_map(smoothed)
        for j, (a, b) in enumerate(hexagon.simplices(1)):
            gap = (coords.values[b] - coords.values[a]
                   - smoothed.alpha_tilde.entries.get(j, 0.0)) % 1.0
            assert min(gap, 1.0 - gap) < 1e-6

    def test_inconsistent_cocycle_detected(self, hexagon):
        # hand-built fake: values do not close up around the loop
        bad = Cochain(hexagon, 1, RR,
                      {j: 0.21 for j in range(hexagon.n_simplices(1))})
        fake = SmoothedCocycle(bad, Cochain(hexagon, 0, RR, {}), 0.0)
        with pytest.raises(InconsistentCocycle):
            circular_map(fake)


class TestCircularMapOracle:
    def test_matches_reference_with_and_without_base_vertex(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 60:
            cx = random_complex(rng, n_max=10, edge_prob=0.35,
                                tri_prob=0.0 if done % 2 else 0.4)
            if cx.dimension < 1:
                continue
            done += 1
            smoothed = harmonic_smooth(random_graph_cocycle(rng, cx))
            vids = cx.vertex_ids
            for base in (None, vids[int(rng.integers(0, len(vids)))]):
                got = circular_map(smoothed, base_vertex=base).values
                want = reference_circular_map(smoothed, base)
                assert set(got) == set(want)
                gap = np.array([(got[v] - want[v]) % 1.0 for v in want])
                assert np.minimum(gap, 1.0 - gap).max() <= 1e-12
                if base is not None:
                    assert got[base] == 0.0

    def test_one_anchor_per_component(self):
        # anchors stay at potential 0: the lowest vertex of each component
        cx = build_from_simplices([((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0),
                                   ((3, 4), 1.0), ((5,), 0.0)])
        alpha = Cochain.from_simplices(cx, 1, ZZ, {(0, 1): 1, (3, 4): 7})
        smoothed = harmonic_smooth(alpha)
        for v in (0, 3, 5):
            assert cx.index((v,)) not in smoothed.potential.entries
        assert not smoothed.alpha_tilde.is_zero()
        assert smoothed.alpha_tilde.coefficient((3, 4)) == pytest.approx(0.0, abs=1e-12)


class TestCircularCorrelation:
    def test_identity(self):
        c = CircularCoords({i: i / 10 for i in range(10)})
        assert circular_correlation(c, dict(c.values)) == pytest.approx(1.0, abs=1e-12)

    def test_offset_invariance(self):
        c = CircularCoords({i: i / 10 for i in range(10)})
        shifted = {i: (v + 0.37) % 1.0 for i, v in c.values.items()}
        assert circular_correlation(c, shifted) == pytest.approx(1.0, abs=1e-12)

    def test_reflection_invariance(self):
        c = CircularCoords({i: i / 10 for i in range(10)})
        reflected = {i: (-v) % 1.0 for i, v in c.values.items()}
        assert circular_correlation(c, reflected) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_is_low(self):
        rng = np.random.default_rng(0)
        c = CircularCoords({i: i / 200 for i in range(200)})
        noise = {i: float(v) for i, v in enumerate(rng.random(200))}
        assert circular_correlation(c, noise) < 0.6

    def test_vertex_mismatch(self):
        with pytest.raises(VertexSetMismatch):
            circular_correlation(CircularCoords({0: 0.0}), {1: 0.0})

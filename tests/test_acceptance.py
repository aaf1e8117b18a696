"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget.

Run with:  pytest tests/test_acceptance.py -v
"""

import itertools
import math
import time

import numpy as np

from circlift import (Cochain, OddPrime, ZZ, apply_boundary, apply_coboundary,
                      candidate_primes, circular_correlation, circular_map,
                      class_vanishes_mod, cocycle_index_system, divide_step,
                      harmonic_smooth, kronecker_pairing, lift_closed,
                      naive_lift, reduce_winding, run_pipeline, scaling_search)
from circlift.experiments import (sample_circle, sample_trefoil,
                                  sparsity_sweep, trend_slope)
from circlift.fields import FpElement, abs_mod, abs_p, lift_coeff, primes_in_range
from circlift.lifting import CERT_VERIFIED_ONLY
from circlift.snf import solve_integer
from conftest import random_connected_complex
from oracles import boundary_faces


def _report(number: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"\n[acceptance] criterion {number:2d} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_triangle_scaling_regression(filled_triangle, triangle_cocycle_f7):
    t0 = time.monotonic()
    naive = naive_lift(triangle_cocycle_f7)
    defect = apply_coboundary(naive)
    assert defect.coefficient((0, 1, 2)) == 7        # not a cocycle
    report = lift_closed(triangle_cocycle_f7, "cocycle")
    assert report.r == 2
    working = report.working_lift
    assert (working.coefficient((1, 2)), working.coefficient((0, 2)),
            working.coefficient((0, 1))) == (-1, 1, 2)
    assert apply_coboundary(working).is_zero()
    pre = report.exact_preimage
    assert (pre.coefficient((1, 2)), pre.coefficient((0, 2)),
            pre.coefficient((0, 1))) == (-4, 4, 8)
    assert apply_coboundary(pre).is_zero()
    assert pre.reduce_mod(7) == triangle_cocycle_f7
    _report(1, "triangle scaling lift", t0, 1.0)


def test_criterion_02_square_cycle_regression(square_with_diagonals, square_cycle_f7):
    t0 = time.monotonic()
    naive = naive_lift(square_cycle_f7)
    boundary = apply_boundary(naive)
    assert boundary.coefficient((0,)) == -7
    assert boundary.coefficient((1,)) == 0
    assert boundary.coefficient((2,)) == 0
    assert boundary.coefficient((3,)) == 7
    system = cocycle_index_system(square_cycle_f7)
    assert all(len(rel) == 3 for rel in system.relations)
    assert scaling_search(square_cycle_f7,
                          system.bounds(list(square_cycle_f7.entries))) is None
    report = lift_closed(square_cycle_f7, "cycle")
    assert report.r == 2
    assert report.certificate == CERT_VERIFIED_ONLY
    assert apply_boundary(report.working_lift).is_zero()
    assert apply_boundary(report.exact_preimage).is_zero()
    assert report.exact_preimage.reduce_mod(7) == square_cycle_f7
    _report(2, "square-with-diagonals cycle lift", t0, 1.0)


def test_criterion_03_pigeonhole_exhaustiveness():
    t0 = time.monotonic()
    k = 3
    for n, p in ((1, 5), (2, 11), (3, 29)):
        # smallest prime with p - 1 > k^n
        assert p - 1 > k ** n
        assert all(q - 1 <= k ** n for q in primes_in_range(3, p - 1))
        bound = (p - 1) // k
        half = (p - 1) // 2
        for vec in itertools.product(range(p), repeat=n):
            found = any(
                all(abs_mod(r * v, p) <= bound for v in vec)
                for r in range(1, half + 1))
            assert found, (n, p, vec)
    _report(3, "pigeonhole exhaustiveness", t0, 120.0)


def test_criterion_04_sparsity_sweep_trend():
    t0 = time.monotonic()
    for seed in (0, 1, 2, 3, 4):
        rows = sparsity_sweep(6, 13, 293, 10_000, 3, seed=seed)
        assert trend_slope(rows) <= 0.0, f"seed {seed} trend increased"
    spot = sparsity_sweep(6, 739, 739, 10_000, 3, seed=0)[0]
    assert spot.non_liftable == 0
    _report(4, "non-liftable lines are sparse", t0, 300.0)


def test_criterion_05_winding_divisibility_and_reduction(hexagon):
    t0 = time.monotonic()
    from conftest import hexagon_fundamental_cycle, hexagon_generator
    g = hexagon_generator(hexagon)
    beta = hexagon_fundamental_cycle(hexagon)
    rng = np.random.default_rng(2024)
    for w in (1, 2, 5, 10):
        for _ in range(20):
            h = Cochain(hexagon, 0, ZZ,
                        {i: int(v) for i, v in enumerate(rng.integers(-5, 6, 6))})
            alpha = g.scale(w) + apply_coboundary(h)
            assert kronecker_pairing(alpha, beta) == w
            report = reduce_winding(alpha, beta)
            assert report.winding_number == w
            assert abs(kronecker_pairing(report.reduced_cocycle, beta)) == 1
            for q in candidate_primes(w) if w > 1 else []:
                assert not class_vanishes_mod(report.reduced_cocycle, q)
    _report(5, "winding divisibility + reduction", t0, 10.0)


def test_criterion_06_division_route_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    done = 0
    while done < 200:
        cx = random_connected_complex(rng, n_max=10)
        q = int(rng.choice([2, 3, 5, 7]))
        gamma0 = apply_coboundary(
            Cochain(cx, 0, ZZ, {i: int(v) for i, v in
                                enumerate(rng.integers(-2, 3, cx.n_vertices))}))
        noise = apply_coboundary(
            Cochain(cx, 0, ZZ, {i: int(v) for i, v in
                                enumerate(rng.integers(-3, 4, cx.n_vertices))}))
        alpha = gamma0.scale(q) + noise
        s_mod = divide_step(alpha, q, route="modp")
        assert s_mod.gamma.scale(q) + apply_coboundary(s_mod.potential) == alpha
        s_snf = divide_step(alpha, q, route="snf")
        assert s_snf.gamma.scale(q) + apply_coboundary(s_snf.potential) == alpha
        diff = s_mod.gamma - s_snf.gamma
        rows = cx.coboundary_matrix(0)
        b = [0] * cx.n_simplices(1)
        for i, v in diff.entries.items():
            b[i] = int(v)
        assert solve_integer(rows, b) is not None, "routes differ in cohomology"
        done += 1
    _report(6, "division mod-p vs SNF oracle", t0, 120.0)


def test_criterion_07_smoothing_characterization():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        # alternate triangle-rich complexes (coboundary inputs) with graphs,
        # where every integer cochain is a cocycle with nontrivial classes
        as_graph = done % 2 == 1
        cx = random_connected_complex(rng, n_max=10,
                                      tri_prob=0.0 if as_graph else 0.5)
        if as_graph:
            alpha = Cochain(cx, 1, ZZ,
                            {i: int(v) for i, v in
                             enumerate(rng.integers(-4, 5, cx.n_simplices(1)))})
        else:
            g = Cochain(cx, 0, ZZ,
                        {i: int(v) for i, v in
                         enumerate(rng.integers(-4, 5, cx.n_vertices))})
            alpha = apply_coboundary(g)
        smoothed = harmonic_smooth(alpha)

        n_e, n_v = cx.n_simplices(1), cx.n_vertices
        B = np.zeros((n_e, n_v))
        for j, s in enumerate(cx.simplices(1)):
            for idx, sign in boundary_faces(cx, s):
                B[j, idx] = sign
        a = np.zeros(n_e)
        for i, v in alpha.entries.items():
            a[i] = v
        tilde = np.zeros(n_e)
        for i, v in smoothed.alpha_tilde.entries.items():
            tilde[i] = v
        f = np.zeros(n_v)
        for i, v in smoothed.potential.entries.items():
            f[i] = v

        assert smoothed.residual_norm <= 1e-9 * max(1.0, float(np.linalg.norm(a)))
        assert np.max(np.abs(tilde - (a + B @ f))) <= 1e-12
        norm = np.linalg.norm(tilde)
        perturb = rng.integers(-3, 4, size=(n_v, 100))
        others = a[:, None] + B @ perturb
        assert (norm <= np.linalg.norm(others, axis=0) + 1e-9).all()
        done += 1
    _report(7, "harmonic smoothing characterization", t0, 60.0)


def test_criterion_08_end_to_end_circle():
    t0 = time.monotonic()
    pts, angles = sample_circle(60, 0.0, 300, seed=7)
    truth = {i: float(a) for i, a in enumerate(angles)}
    result = run_pipeline(points=pts, prime=47, threshold="auto")
    assert circular_correlation(result.coords, truth) >= 0.99

    # a winding-3 representative breaks the coordinates unless reduced
    rng = np.random.default_rng(3)
    sub = result.working_complex
    gen = result.winding_report.reduced_cocycle
    h = Cochain(sub, 0, ZZ,
                {i: int(v) for i, v in enumerate(rng.integers(-2, 3, sub.n_vertices))})
    alpha3 = gen.scale(3) + apply_coboundary(h)

    skipped = circular_map(harmonic_smooth(alpha3))
    assert circular_correlation(skipped, truth) < 0.9

    reduced = reduce_winding(alpha3, result.cycle_lift.working_lift)
    assert reduced.winding_number == 3
    restored = circular_map(harmonic_smooth(reduced.reduced_cocycle))
    assert circular_correlation(restored, truth) >= 0.99
    _report(8, "end-to-end circle in R^300", t0, 60.0)


def test_criterion_09_trefoil_demo():
    t0 = time.monotonic()
    pts = sample_trefoil(200, 0.0, seed=3)
    result = run_pipeline(points=pts, prime=47, threshold=1.0)
    ones = result.diagram.pairs(1)
    assert ones, "no 1-dimensional class found"
    top = ones[0]
    if len(ones) > 1 and not math.isinf(top.persistence):
        assert top.persistence >= 2.0 * ones[1].persistence
    report = result.winding_report
    # the reduced class is a generator: nonvanishing mod every candidate prime
    beta = result.cycle_lift.working_lift
    pairing = kronecker_pairing(report.reduced_cocycle, beta)
    assert pairing != 0
    for q in candidate_primes(pairing):
        assert not class_vanishes_mod(report.reduced_cocycle, q)
    for q in report.candidate_primes:
        assert not class_vanishes_mod(report.reduced_cocycle, q)
    _report(9, "trefoil winding postconditions", t0, 120.0)


def test_criterion_10_norm_preservation_exhaustive():
    t0 = time.monotonic()
    for p in primes_in_range(3, 101):
        prime = OddPrime(p)
        for x in range(p):
            e = FpElement(x, prime)
            assert abs(lift_coeff(e)) == abs_p(e)
    _report(10, "pointwise norm preservation", t0, 1.0)

import numpy as np
import pytest

import circlift.lifting as lifting
from circlift import (Chain, Cochain, FilteredComplex, GF, OddPrime, ZZ, apply_boundary,
                      apply_coboundary, build_from_simplices,
                      cocycle_index_system, has_p_torsion, lift_closed,
                      naive_lift, pigeonhole_bound, scaling_search, snf_repair)
from circlift.errors import (ComplexTooLargeForSnf, NotClosed,
                             TorsionObstruction, Unliftable, ValidationFailed)
from circlift.fields import abs_mod, is_prime, primes_in_range
from circlift.lifting import (CERT_IN_RANGE, CERT_PER_FACE_RANGE,
                              CERT_SNF_REPAIRED, CERT_VERIFIED_ONLY, IndexSystem)
from conftest import moore_z3_complex, random_complex, random_fp_cocycle, rp2_complex
from fplinalg import in_image_mod, nullspace_mod, to_numpy_mod


class TestNaiveLift:
    def test_triangle_example(self, triangle_cocycle_f7):
        lifted = naive_lift(triangle_cocycle_f7)
        assert lifted.coefficient((1, 2)) == 3
        assert lifted.coefficient((0, 2)) == -3
        assert lifted.coefficient((0, 1)) == 1

    def test_scaled_triangle_example(self, filled_triangle):
        c = Cochain.from_simplices(filled_triangle, 1, GF(7),
                                   {(1, 2): 6, (0, 2): 1, (0, 1): 2})
        lifted = naive_lift(c)
        assert lifted.coefficient((1, 2)) == -1
        assert lifted.coefficient((0, 2)) == 1
        assert lifted.coefficient((0, 1)) == 2

    def test_zero(self, filled_triangle):
        assert naive_lift(Cochain(filled_triangle, 1, GF(7), {})).is_zero()


class TestIndexSystem:
    def test_triangle_single_relation(self, triangle_cocycle_f7):
        system = cocycle_index_system(triangle_cocycle_f7)
        assert len(system.relations) == 1
        assert len(system.relations[0]) == 3

    def test_square_cycle_four_relations_of_three(self, square_cycle_f7):
        system = cocycle_index_system(square_cycle_f7)
        assert len(system.relations) == 4
        assert all(len(rel) == 3 for rel in system.relations)

    def test_hexagon_cycle_six_relations_of_two(self, hexagon):
        cyc = Chain.from_simplices(
            hexagon, 1, GF(7),
            {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (0, 5): 6})
        system = cocycle_index_system(cyc)
        assert len(system.relations) == 6
        assert all(len(rel) == 2 for rel in system.relations)

    def test_not_closed_rejected(self, filled_triangle):
        c = Cochain.from_simplices(filled_triangle, 1, GF(7),
                                   {(1, 2): 1, (0, 2): 0, (0, 1): 1})
        with pytest.raises(NotClosed):
            cocycle_index_system(c)

    def test_empty_relation_is_refused(self):
        with pytest.raises(ValueError, match="^empty relation$"):
            IndexSystem(1, 7, np.array([0]), np.array([1]), np.array([0, 0, 1]))

    def test_uncovered_positions_get_half_range(self, hexagon):
        # a cochain on a graph has no coface relations at all
        c = Cochain.from_simplices(hexagon, 1, GF(11), {(0, 1): 5})
        system = cocycle_index_system(c)
        assert system.relations == ()
        assert system.bounds([hexagon.index((0, 1))]) == {hexagon.index((0, 1)): 5}


class TestScalingSearch:
    def test_triangle_needs_two(self, triangle_cocycle_f7):
        system = cocycle_index_system(triangle_cocycle_f7)
        r = scaling_search(triangle_cocycle_f7,
                           system.bounds(list(triangle_cocycle_f7.entries)))
        assert r is not None and r.value == 2

    def test_square_cycle_exhausts(self, square_cycle_f7):
        system = cocycle_index_system(square_cycle_f7)
        assert scaling_search(square_cycle_f7,
                              system.bounds(list(square_cycle_f7.entries))) is None

    def test_in_range_needs_one(self, filled_triangle):
        c = Cochain.from_simplices(filled_triangle, 1, GF(7),
                                   {(1, 2): 1, (0, 2): 2, (0, 1): 1})
        system = cocycle_index_system(c)
        r = scaling_search(c, system.bounds(list(c.entries)))
        assert r is not None and r.value == 1


class TestLiftClosed:
    def test_triangle_regression(self, triangle_cocycle_f7):
        rep = lift_closed(triangle_cocycle_f7)
        assert rep.r == 2
        assert rep.certificate == CERT_IN_RANGE
        assert rep.working_lift.coefficient((1, 2)) == -1
        assert rep.working_lift.coefficient((0, 2)) == 1
        assert rep.working_lift.coefficient((0, 1)) == 2
        assert rep.exact_preimage.coefficient((1, 2)) == -4
        assert rep.exact_preimage.coefficient((0, 2)) == 4
        assert rep.exact_preimage.coefficient((0, 1)) == 8
        assert apply_coboundary(rep.exact_preimage).is_zero()
        assert rep.exact_preimage.reduce_mod(7) == triangle_cocycle_f7

    def test_square_cycle_verified_only(self, square_cycle_f7):
        rep = lift_closed(square_cycle_f7)
        assert rep.r == 2
        assert rep.certificate == CERT_VERIFIED_ONLY
        expect = {(0, 1): -1, (1, 2): -3, (2, 3): -1, (0, 3): -1,
                  (0, 2): 2, (1, 3): 2}
        for edge, value in expect.items():
            assert rep.working_lift.coefficient(edge) == value
        assert apply_boundary(rep.working_lift).is_zero()
        assert apply_boundary(rep.exact_preimage).is_zero()
        assert rep.exact_preimage.reduce_mod(7) == square_cycle_f7
        for edge, value in expect.items():
            assert rep.exact_preimage.coefficient(edge) == 4 * value

    def test_small_coboundary_lifts_at_one(self, filled_triangle):
        c = Cochain.from_simplices(filled_triangle, 1, GF(7),
                                   {(1, 2): 1, (0, 2): 2, (0, 1): 1})
        rep = lift_closed(c)
        assert rep.r == 1 and rep.certificate == CERT_IN_RANGE

    def test_cycle_certificate_name(self, hexagon):
        cyc = Chain.from_simplices(
            hexagon, 1, GF(7),
            {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (0, 5): 4})
        rep = lift_closed(cyc)
        assert rep.certificate == CERT_PER_FACE_RANGE

    def test_degree_zero_cycle_lifts_at_one(self, filled_triangle):
        # every 0-chain is a cycle, and it has no face relations
        z = Chain(filled_triangle, 0, GF(7), {0: 3, 1: 5, 2: 6})
        assert cocycle_index_system(z).relations == ()
        rep = lift_closed(z)
        assert (rep.r, rep.certificate) == (1, CERT_PER_FACE_RANGE)
        assert rep.working_lift == Chain(filled_triangle, 0, ZZ, {0: 3, 1: -2, 2: -1})
        assert rep.exact_preimage == rep.working_lift

    def test_each_prime_is_proven_once(self, filled_triangle):
        # lift_closed constructs OddPrime(p), which proves p prime, more
        # than once
        p = 1_099_511_627_791
        c = Cochain.from_simplices(filled_triangle, 1, GF(p),
                                   {(1, 2): 3, (0, 2): 4, (0, 1): 1})
        is_prime.cache_clear()
        for _ in range(2):
            assert lift_closed(c).certificate == CERT_IN_RANGE
        assert is_prime.cache_info().misses == 1

    def test_kind_contradicting_the_type_is_refused(self, filled_triangle,
                                                    triangle_cocycle_f7):
        # the type decides: a 1-chain with the values of a cocycle is not a
        # cocycle to certify InRange, and not a cycle either
        c = Chain(filled_triangle, 1, GF(7), triangle_cocycle_f7.entries)
        with pytest.raises(ValueError, match="Chain does not lift as a cocycle"):
            lift_closed(c, "cocycle")
        with pytest.raises(NotClosed):
            lift_closed(c)
        with pytest.raises(ValueError, match="Cochain does not lift as a cycle"):
            lift_closed(triangle_cocycle_f7, "cycle")
        z = Chain.from_simplices(filled_triangle, 1, GF(7), {(0, 1): 1, (1, 2): 1, (0, 2): 6})
        assert lift_closed(z, "cycle").to_json_dict() == lift_closed(z).to_json_dict()

    def test_coefficients_not_in_a_prime_field_are_refused(self, filled_triangle):
        for vec in (Cochain(filled_triangle, 1, ZZ, {}), Chain(filled_triangle, 0, ZZ, {0: 1})):
            with pytest.raises(ValueError, match="^expected F_p coefficients, got Z$"):
                lift_closed(vec)

    def test_preimage_that_does_not_reduce_to_the_input(self, triangle_cocycle_f7,
                                                         monkeypatch):
        # twice a closed lift is closed, but reduces to twice the input
        honest = lifting.naive_lift
        monkeypatch.setattr(lifting, "naive_lift", lambda v: honest(v).scale(2))
        with pytest.raises(ValidationFailed, match="^preimage does not reduce to the input$"):
            lift_closed(triangle_cocycle_f7)

    def test_not_closed(self, filled_triangle):
        c = Cochain.from_simplices(filled_triangle, 1, GF(7), {(0, 1): 1})
        with pytest.raises(NotClosed, match=r"relation \(\(0, 1\),\) does not vanish mod 7"):
            lift_closed(c)

    def test_polygon_cycles_always_certified(self):
        # every face relation has two support terms, so r=1 is always inside
        # the certified range, for any odd prime
        rng = np.random.default_rng(12)
        for p in (3, 5, 7, 31, 97):
            for _ in range(10):
                n = int(rng.integers(3, 9))
                poly = build_from_simplices(
                    [(tuple(sorted((i, (i + 1) % n))), 1.0) for i in range(n)])
                w = int(rng.integers(1, p))
                entries = {}
                for i in range(n):
                    a, b = sorted((i, (i + 1) % n))
                    sign = 1 if (a, b) == (i, (i + 1) % n) else -1
                    entries[(a, b)] = (w * sign) % p
                cyc = Chain.from_simplices(poly, 1, GF(p), entries)
                assert apply_boundary(cyc).is_zero()
                rep = lift_closed(cyc)
                assert rep.certificate == CERT_PER_FACE_RANGE

    def test_soundness_random_trials(self):
        # whenever the scaling search accepts r, the lifted scaled vector is
        # closed over Z: 10^4 randomized trials
        rng = np.random.default_rng(99)
        complexes = [random_complex(rng, n_max=8) for _ in range(40)]
        accepted = 0
        trials = 0
        while trials < 10_000:
            cx = complexes[int(rng.integers(0, len(complexes)))]
            p = int(rng.choice([3, 5, 7, 11, 13]))
            c = random_fp_cocycle(rng, cx, p)
            if c.is_zero():
                continue
            trials += 1
            system = cocycle_index_system(c)
            r = scaling_search(c, system.bounds(list(c.entries)))
            if r is None:
                continue
            accepted += 1
            assert apply_coboundary(naive_lift(c.scale(r.value))).is_zero()
        assert accepted > 1000   # the property must actually fire


class TestSnfRepair:
    def test_triangle_repair(self, filled_triangle):
        alpha = Cochain.from_simplices(filled_triangle, 1, ZZ,
                                       {(1, 2): 3, (0, 2): -3, (0, 1): 1})
        repaired = snf_repair(alpha, OddPrime(7))
        assert apply_coboundary(repaired).is_zero()
        assert repaired.reduce_mod(7) == alpha.reduce_mod(7)

    def test_true_cocycle_unchanged(self, hexagon):
        alpha = Cochain.from_simplices(hexagon, 1, ZZ, {(0, 1): 40})
        assert snf_repair(alpha, OddPrime(7)) == alpha

    def test_random_mod_p_cocycles(self):
        rng = np.random.default_rng(123)
        done = 0
        while done < 1000:
            cx = random_complex(rng, n_max=7)
            if cx.dimension < 2:
                continue
            p = OddPrime(int(rng.choice([3, 5, 7])))
            alpha = naive_lift(random_fp_cocycle(rng, cx, p.p))
            repaired = snf_repair(alpha, p)
            assert apply_coboundary(repaired).is_zero()
            assert repaired.reduce_mod(p.p) == alpha.reduce_mod(p.p)
            done += 1

    def test_torsion_obstruction(self):
        moore = moore_z3_complex()
        q = 3
        # a 1-cocycle over F_3 whose class generates H^1(X; F_3): it cannot
        # lift because the integral H^1 is trivial while H^2 has 3-torsion
        d1 = to_numpy_mod(moore.coboundary_matrix(1), q)
        d0 = to_numpy_mod(moore.coboundary_matrix(0), q)
        witness = None
        for vec in nullspace_mod(d1, q):
            if not in_image_mod(d0, vec, q):
                witness = vec
                break
        assert witness is not None
        alpha = naive_lift(Cochain(moore, 1, GF(q),
                                   {i: int(v) for i, v in enumerate(witness)}))
        with pytest.raises(TorsionObstruction):
            snf_repair(alpha, OddPrime(q))
        # the full lifting pipeline reports the same obstruction
        with pytest.raises(Unliftable):
            lift_closed(Cochain(moore, 1, GF(q),
                                {i: int(v) for i, v in enumerate(witness)}))

    def test_repair_route_fires_when_both_searches_fail(self):
        # frozen instance: no scalar makes the heuristic lift closed, yet the
        # class lifts (no 5-torsion), so the repair route must produce it
        edges = {(4, 5): 1.0, (0, 2): 2.0, (0, 4): 3.0, (1, 5): 4.0,
                 (2, 5): 5.0, (3, 5): 5.0, (0, 1): 7.0, (0, 5): 7.0,
                 (1, 4): 7.0, (3, 4): 7.0}
        tris = {(0, 1, 4): 7.0, (0, 1, 5): 9.0, (3, 4, 5): 9.0}
        cx = build_from_simplices(list(edges.items()) + list(tris.items()))
        c = Cochain.from_simplices(
            cx, 1, GF(5),
            {(4, 5): 2, (0, 2): 2, (0, 4): 4, (1, 5): 3, (2, 5): 4,
             (3, 5): 2, (0, 1): 3, (0, 5): 1, (1, 4): 1})
        for r in range(1, 5):
            assert not apply_coboundary(naive_lift(c.scale(r))).is_zero()
        rep = lift_closed(c)
        assert rep.certificate == CERT_SNF_REPAIRED
        assert rep.r == 1
        assert apply_coboundary(rep.working_lift).is_zero()
        assert rep.working_lift.reduce_mod(5) == c
        assert rep.exact_preimage == rep.working_lift

    def test_size_cap(self, filled_triangle):
        alpha = Cochain.from_simplices(filled_triangle, 1, ZZ,
                                       {(1, 2): 3, (0, 2): -3, (0, 1): 1})
        with pytest.raises(ComplexTooLargeForSnf):
            snf_repair(alpha, OddPrime(7), snf_cap=2)

    def test_not_closed_mod_p(self, filled_triangle):
        alpha = Cochain.from_simplices(filled_triangle, 1, ZZ, {(0, 1): 1})
        with pytest.raises(NotClosed):
            snf_repair(alpha, OddPrime(7))

    def test_cap_checked_before_any_matrix_is_built(self, filled_triangle, monkeypatch):
        def build(*args):
            raise AssertionError("matrix built before the SNF cap was checked")

        monkeypatch.setattr(FilteredComplex, "boundary_matrix", build)
        monkeypatch.setattr(FilteredComplex, "coboundary_matrix", build)
        cocycle = Cochain.from_simplices(filled_triangle, 1, ZZ,
                                         {(1, 2): 3, (0, 2): -3, (0, 1): 1})
        cycle = Chain.from_simplices(filled_triangle, 1, ZZ, {(0, 1): 7})
        with pytest.raises(ComplexTooLargeForSnf, match=r"3\+1 simplices .* cap 2"):
            snf_repair(cocycle, OddPrime(7), snf_cap=2)
        with pytest.raises(ComplexTooLargeForSnf, match=r"3\+3 simplices .* cap 2"):
            snf_repair(cycle, OddPrime(7), snf_cap=2)
        with pytest.raises(ComplexTooLargeForSnf, match=r"1\+3 simplices .* cap 2"):
            has_p_torsion(filled_triangle, 2, OddPrime(3), snf_cap=2)


class TestPigeonhole:
    def test_examples(self):
        assert pigeonhole_bound(4, 3) == 82
        assert pigeonhole_bound(6, 3) == 730
        assert pigeonhole_bound(1, 3) == 4
        assert pigeonhole_bound(1, 9) == 10

    def test_arbitrary_precision(self):
        assert pigeonhole_bound(64, 3) == 3 ** 64 + 1

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            pigeonhole_bound(0, 3)
        with pytest.raises(ValueError):
            pigeonhole_bound(3, 1)

    def test_exhaustive_single_coordinate(self):
        # n=1: the first prime beyond the bound already lifts everything
        k = 3
        p = next(q for q in primes_in_range(2, 50) if q - 1 > k)
        bound = (p - 1) // k
        for x in range(p):
            assert any(abs_mod(r * x, p) <= bound for r in range(1, p))

    def test_four_coordinates_not_liftable_at_thirteen_but_at_thirty_one(self):
        # the bound is not vacuous: with four coordinates some vectors admit
        # no scaling over F_13, while over F_31 every vector does
        def count_bad(n, p, k=3):
            bound = (p - 1) // k
            idx = np.arange(p ** n)
            vecs = np.stack([(idx // p ** i) % p for i in range(n)],
                            axis=1).astype(np.int64)
            ok = np.zeros(len(vecs), dtype=bool)
            for r in range(1, (p - 1) // 2 + 1):
                s = (vecs * r) % p
                ok |= (np.minimum(s, p - s) <= bound).all(axis=1)
            return int((~ok).sum())

        assert count_bad(4, 13) > 0
        assert count_bad(4, 31) == 0


class TestTorsionFlags:
    def test_contractible_and_graph_are_torsion_free(self, filled_triangle, hexagon):
        assert not has_p_torsion(filled_triangle, 2, OddPrime(3))
        assert not has_p_torsion(hexagon, 2, OddPrime(5))

    def test_projective_plane_odd_primes_clear(self):
        rp2 = rp2_complex()
        assert not has_p_torsion(rp2, 2, OddPrime(3))
        assert not has_p_torsion(rp2, 2, OddPrime(7))

    def test_moore_space_detects_three(self):
        moore = moore_z3_complex()
        assert has_p_torsion(moore, 2, OddPrime(3))
        assert not has_p_torsion(moore, 2, OddPrime(5))

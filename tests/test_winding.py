import json
import re
from itertools import combinations

import numpy as np
import pytest

import circlift.complexes as complexes
import circlift.winding as winding
from circlift import (Chain, Cochain, OddPrime, ZZ,
                      apply_coboundary, build_from_simplices, build_rips, candidate_primes,
                      class_vanishes_mod, cycle_representative, divide_step,
                      has_p_torsion, kronecker_pairing, lift_closed, persistent_cohomology,
                      reduce_winding, run_pipeline, select_class, snf_repair)
from circlift.cli import main
from circlift.errors import (ComplexTooLargeForSnf, NotACocycle, NotDivisible,
                             ValidationFailed, ZeroPairing)
from circlift.experiments import sample_circle
from circlift.snf import solve_integer
from circlift.winding import ROUTE_MOD_P, ROUTE_SNF
from conftest import (hexagon_fundamental_cycle, hexagon_generator,
                      moore_z3_complex, random_complex,
                      random_connected_complex, rp2_complex)
from oracles import nullspace_integer
from fplinalg import in_image_mod, to_numpy_mod


def random_vertex_cochain(rng, cx, lo=-5, hi=5):
    return Cochain(cx, 0, ZZ,
                   {i: int(v) for i, v in
                    enumerate(rng.integers(lo, hi + 1, cx.n_vertices))})


def is_integer_coboundary(cx, diff: Cochain) -> bool:
    A = cx.coboundary_matrix(diff.dim - 1)
    return solve_integer(A, diff.to_array().tolist()) is not None


class TestClassVanishes:
    def test_doubled_generator_dies_mod_two(self, hexagon):
        alpha = hexagon_generator(hexagon).scale(2)
        assert class_vanishes_mod(alpha, 2)

    def test_generator_survives_mod_five(self, hexagon):
        # im(delta_0) over F_5 has dimension 5 inside a 6-dimensional edge
        # space, and the generator pairs to 1 with the loop
        alpha = hexagon_generator(hexagon)
        assert not class_vanishes_mod(alpha, 5)

    def test_coboundaries_always_vanish(self, hexagon):
        rng = np.random.default_rng(7)
        for q in (2, 3, 5, 7, 11):
            alpha = apply_coboundary(random_vertex_cochain(rng, hexagon))
            assert class_vanishes_mod(alpha, q)

    def test_non_cocycle_rejected(self, filled_triangle):
        alpha = Cochain.from_simplices(filled_triangle, 1, ZZ, {(0, 1): 1})
        with pytest.raises(NotACocycle):
            class_vanishes_mod(alpha, 3)

    def test_degree_zero_class_vanishes_where_q_divides_it(self, hexagon):
        # no coboundary lands in degree 0: a 0-cocycle's class is itself
        alpha = Cochain(hexagon, 0, ZZ, {v: 6 for v in range(6)})
        assert [class_vanishes_mod(alpha, q) for q in (2, 3, 5, 7)] == [True, True, False, False]


class TestCandidatePrimes:
    def test_examples(self):
        assert candidate_primes(10) == [2, 5]
        assert candidate_primes(1) == []
        assert candidate_primes(-6) == [2, 3]

    def test_zero_pairing(self):
        with pytest.raises(ZeroPairing):
            candidate_primes(0)


class TestDivideStep:
    def test_exact_double(self, hexagon):
        g = hexagon_generator(hexagon)
        step = divide_step(g.scale(2), 2)
        assert step.gamma == g
        assert step.potential.is_zero()

    def test_exact_tenfold_by_five(self, hexagon):
        g = hexagon_generator(hexagon)
        step = divide_step(g.scale(10), 5)
        assert step.gamma == g.scale(2)

    def test_division_identity_and_pairing(self, hexagon):
        rng = np.random.default_rng(3)
        beta = hexagon_fundamental_cycle(hexagon)
        g = hexagon_generator(hexagon)
        for q in (2, 3, 5):
            alpha = g.scale(q) + apply_coboundary(random_vertex_cochain(rng, hexagon))
            step = divide_step(alpha, q)
            assert step.gamma.scale(q) + apply_coboundary(step.potential) == alpha
            assert kronecker_pairing(step.gamma, beta) == \
                kronecker_pairing(alpha, beta) // q

    def test_circle_sample_synthetic_winding_two(self):
        pts, _ = sample_circle(40, 0.0, 2, seed=5)
        cx = build_rips(pts, 0.6, 2)
        p = OddPrime(7)
        dg = persistent_cohomology(cx, p, 1)
        pair = select_class(dg, "max-persistence", dim=1)
        sub = cx.restrict(pair.scale)
        g = lift_closed(pair.representative_cocycle.push_to(sub)).working_lift
        beta = lift_closed(cycle_representative(cx, p, pair).push_to(sub),
                           "cycle").working_lift
        rng = np.random.default_rng(8)
        h = random_vertex_cochain(rng, sub, -3, 3)
        alpha = g.scale(2) + apply_coboundary(h)
        step = divide_step(alpha, 2)
        assert step.gamma.scale(2) + apply_coboundary(step.potential) == alpha
        base = kronecker_pairing(g, beta)
        assert kronecker_pairing(step.gamma, beta) == base
        assert is_integer_coboundary(sub, step.gamma - g)

    def test_not_divisible(self, hexagon):
        with pytest.raises(NotDivisible):
            divide_step(hexagon_generator(hexagon), 3)

    def test_composite_divisor_and_degree_zero_are_refused(self, hexagon):
        for q in (4, 1, 0, -3):
            with pytest.raises(ValueError, match=f"^{q} is not prime$"):
                divide_step(hexagon_generator(hexagon).scale(4), q)
        # a constant 0-cochain is a cocycle, and 2 divides it
        with pytest.raises(ValueError, match="^degree must be >= 1$"):
            divide_step(Cochain(hexagon, 0, ZZ, dict.fromkeys(range(6), 2)), 2)

    def test_broken_division_identity(self, hexagon, monkeypatch):
        # the quotient shifted by a coboundary no longer decomposes alpha
        honest = winding._split

        def shifted(*args):
            f, gamma, route = honest(*args)
            return f, gamma + apply_coboundary(Cochain(hexagon, 0, ZZ, {0: 1})), route

        monkeypatch.setattr(winding, "_split", shifted)
        with pytest.raises(ValidationFailed, match="^division identity broken$"):
            divide_step(hexagon_generator(hexagon).scale(2), 2)

    def test_unknown_route_is_refused(self, hexagon):
        with pytest.raises(ValueError, match="unknown division route 'bogus'"):
            divide_step(hexagon_generator(hexagon).scale(2), 2, route="bogus")

    def test_integer_route_names_its_budget(self, hexagon):
        with pytest.raises(ComplexTooLargeForSnf):
            divide_step(hexagon_generator(hexagon).scale(2), 2, route="snf", snf_cap=17)
        assert divide_step(hexagon_generator(hexagon).scale(2), 2, route="snf",
                           snf_cap=18).route == ROUTE_SNF

    def test_snf_route_agrees_in_cohomology(self, hexagon):
        rng = np.random.default_rng(10)
        g = hexagon_generator(hexagon)
        for q in (2, 3, 5):
            alpha = g.scale(2 * q) + apply_coboundary(
                random_vertex_cochain(rng, hexagon))
            s_mod = divide_step(alpha, q, route="modp")
            s_snf = divide_step(alpha, q, route="snf")
            assert s_mod.route == ROUTE_MOD_P
            assert s_snf.route == ROUTE_SNF
            assert s_snf.gamma.scale(q) + apply_coboundary(s_snf.potential) == alpha
            assert is_integer_coboundary(hexagon, s_mod.gamma - s_snf.gamma)


class TestReduceWinding:
    def test_doubled_generator(self, hexagon):
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        report = reduce_winding(g.scale(2), beta)
        assert report.pairing == 2
        assert report.candidate_primes == (2,)
        assert report.winding_number == 2
        assert report.division_trace == ((2, 1, ROUTE_MOD_P),)
        assert abs(kronecker_pairing(report.reduced_cocycle, beta)) == 1

    def test_generator_untouched(self, hexagon):
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        report = reduce_winding(g, beta)
        assert report.winding_number == 1
        assert report.reduced_cocycle == g
        assert report.division_trace == ()

    def test_winding_ten_divides_two_then_five(self, hexagon):
        rng = np.random.default_rng(4)
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        alpha = g.scale(10) + apply_coboundary(random_vertex_cochain(rng, hexagon))
        report = reduce_winding(alpha, beta)
        assert report.winding_number == 10
        assert dict((q, t) for q, t, _ in report.division_trace) == {2: 1, 5: 1}
        assert abs(kronecker_pairing(report.reduced_cocycle, beta)) == 1

    def test_prime_power_winding_terminates(self, hexagon):
        rng = np.random.default_rng(6)
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        alpha = g.scale(8) + apply_coboundary(random_vertex_cochain(rng, hexagon))
        report = reduce_winding(alpha, beta)
        assert report.winding_number == 8
        assert dict((q, t) for q, t, _ in report.division_trace) == {2: 3}

    def test_divisibility_of_pairing(self, hexagon):
        # w * generator + coboundary always pairs to a multiple of w
        rng = np.random.default_rng(2)
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        for w in (1, 2, 3, 5, 10):
            for _ in range(100):
                alpha = g.scale(w) + apply_coboundary(
                    random_vertex_cochain(rng, hexagon))
                assert kronecker_pairing(alpha, beta) % w == 0

    def test_decomposition_witness_is_exact(self, hexagon):
        rng = np.random.default_rng(9)
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        alpha = g.scale(6) + apply_coboundary(random_vertex_cochain(rng, hexagon))
        report = reduce_winding(alpha, beta)
        rebuilt = report.reduced_cocycle.scale(report.winding_number) + \
            apply_coboundary(report.coboundary_witness)
        assert rebuilt == alpha

    def test_postcondition_nonvanishing(self, hexagon):
        rng = np.random.default_rng(13)
        g = hexagon_generator(hexagon)
        beta = hexagon_fundamental_cycle(hexagon)
        alpha = g.scale(30) + apply_coboundary(random_vertex_cochain(rng, hexagon))
        report = reduce_winding(alpha, beta)
        for q in report.candidate_primes:
            assert not class_vanishes_mod(report.reduced_cocycle, q)

    def test_zero_pairing_raises(self, hexagon):
        rng = np.random.default_rng(1)
        beta = hexagon_fundamental_cycle(hexagon)
        alpha = apply_coboundary(random_vertex_cochain(rng, hexagon))
        with pytest.raises(ZeroPairing):
            reduce_winding(alpha, beta)

    def test_division_beyond_the_pairing_bound(self, hexagon, monkeypatch):
        # a split that never fails would divide by 2 more often than 2 divides
        # the pairing
        zero = Cochain(hexagon, 0, ZZ, {})
        monkeypatch.setattr(winding, "_split", lambda alpha, *args: (zero, alpha, ROUTE_MOD_P))
        with pytest.raises(ValidationFailed,
                           match="^division by 2 exceeded the pairing bound 1$"):
            reduce_winding(hexagon_generator(hexagon).scale(2),
                           hexagon_fundamental_cycle(hexagon))

    def test_cycle_over_a_field_is_refused(self, hexagon):
        # over F_7 the loop's -1 reads 6, so it would pair as 2 + 6 + 1 = 9;
        # the integer loop pairs 2 and gives w = 2
        alpha = Cochain.from_simplices(hexagon, 1, ZZ, {(0, 1): 2, (4, 5): 1, (0, 5): 1})
        beta = hexagon_fundamental_cycle(hexagon)
        assert reduce_winding(alpha, beta).winding_number == 2
        with pytest.raises(ValueError, match="beta must be an integer cycle"):
            reduce_winding(alpha, beta.reduce_mod(7))

    def test_own_snf_cap_reaches_the_vanishing_test(self, monkeypatch):
        # S^2 as the boundary of a tetrahedron: a degree-2 class is divided on
        # the integer route, whose 6 + 2 * 4 unknowns and equations exceed 10
        monkeypatch.setattr(winding, "DEFAULT_SNF_CAP", 10)
        sphere = build_from_simplices([(t, 1.0) for t in combinations(range(4), 3)])
        gen = Cochain.from_simplices(sphere, 2, ZZ, {(0, 1, 2): 1})
        beta = Chain.from_simplices(sphere, 2, ZZ, {(1, 2, 3): 1, (0, 2, 3): -1,
                                                    (0, 1, 3): 1, (0, 1, 2): -1})
        report = reduce_winding(gen.scale(2), beta, snf_cap=1500)
        assert report.winding_number == 2
        assert report.division_trace == ((2, 1, ROUTE_SNF),)

    def test_closedness_is_checked_once(self, hexagon, monkeypatch):
        rng = np.random.default_rng(9)
        beta = hexagon_fundamental_cycle(hexagon)
        alpha = hexagon_generator(hexagon).scale(6) + apply_coboundary(
            random_vertex_cochain(rng, hexagon))
        degrees = []

        def counting_coboundary(c):
            degrees.append(c.dim)
            return apply_coboundary(c)

        monkeypatch.setattr(complexes, "apply_coboundary", counting_coboundary)
        report = reduce_winding(alpha, beta)
        assert report.winding_number == 6
        assert degrees.count(1) == 1


class TestRouteEquivalenceRandom:
    def test_modp_and_snf_agree_on_random_complexes(self):
        # smaller sibling of the acceptance criterion: both routes must give
        # exact decompositions with cohomologous gamma
        rng = np.random.default_rng(20)
        done = 0
        while done < 40:
            cx = random_connected_complex(rng, n_max=8)
            q = int(rng.choice([2, 3, 5]))
            gamma0 = apply_coboundary(random_vertex_cochain(rng, cx, -2, 2))
            alpha = gamma0.scale(q) + apply_coboundary(
                random_vertex_cochain(rng, cx, -3, 3))
            s_mod = divide_step(alpha, q, route="modp")
            s_snf = divide_step(alpha, q, route="snf")
            for step in (s_mod, s_snf):
                assert step.gamma.scale(q) + apply_coboundary(step.potential) == alpha
            assert is_integer_coboundary(cx, s_mod.gamma - s_snf.gamma)
            done += 1


def random_integer_cocycle(rng, cx, m: int) -> Cochain:
    """Small integer combination of a Z-basis of the m-cocycles."""
    n = cx.n_simplices(m)
    if m == cx.dimension:
        basis = np.eye(n, dtype=np.int64)
    else:
        basis = np.array(nullspace_integer(
            cx.coboundary_matrix(m)), dtype=np.int64).reshape(-1, n)
    vec = rng.integers(-3, 4, len(basis)) @ basis
    return Cochain(cx, m, ZZ, {i: int(v) for i, v in enumerate(vec)})


def dense_vanishes(alpha: Cochain, q: int) -> bool:
    """Dense F_q oracle: alpha mod q lies in the image of delta."""
    cx, m = alpha.complex, alpha.dim
    b = alpha.reduce_mod(q).to_array(np.int64)
    return in_image_mod(to_numpy_mod(cx.coboundary_matrix(m - 1), q), b, q)


def oracle_cases(seed: int, m: int, count: int):
    """(alpha, q) over random complexes, several components and isolated
    vertices included; in degree 2 every other case is on the hollow
    tetrahedron or one of the torsion examples."""
    rng = np.random.default_rng(seed)
    fixed = []
    if m == 2:
        sphere = build_from_simplices([((0, 1, 2), 1.0), ((0, 1, 3), 1.0),
                                       ((0, 2, 3), 1.0), ((1, 2, 3), 1.0)])
        fixed = [sphere, rp2_complex(), moore_z3_complex()]
    cases = []
    while len(cases) < count:
        if fixed and len(cases) % 2 == 0:
            cx = fixed[len(cases) // 2 % len(fixed)]
        else:
            cx = random_complex(rng, n_max=8, edge_prob=0.45)
        if cx.dimension < m or cx.n_simplices(m) == 0:
            continue
        q = int(rng.choice([2, 3, 5, 7]))
        alpha = random_integer_cocycle(rng, cx, m)
        if rng.random() < 0.25:
            alpha = alpha.scale(q)
        cases.append((alpha, q))
    return cases


class TestDenseOracle:
    @pytest.mark.parametrize("m", [1, 2])
    def test_class_vanishes_matches_dense_elimination(self, m):
        outcomes = []
        for alpha, q in oracle_cases(100 + m, m, 120):
            got = class_vanishes_mod(alpha, q)
            assert got == dense_vanishes(alpha, q)
            outcomes.append(got)
        assert 5 <= sum(outcomes) <= len(outcomes) - 5

    def test_forest_covers_components_and_isolated_vertices(self):
        # vertices 4 and 5 are isolated; the generator lives on one of two loops
        cx = build_from_simplices([((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0),
                                   ((6, 7), 1.0), ((7, 8), 1.0), ((6, 8), 1.0),
                                   ((4,), 0.0), ((5,), 0.0)])
        loop = Cochain.from_simplices(cx, 1, ZZ, {(7, 8): 1})
        for q in (2, 3, 5, 7):
            for k in range(1, 2 * q + 1):
                assert class_vanishes_mod(loop.scale(k), q) == (k % q == 0)
                assert dense_vanishes(loop.scale(k), q) == (k % q == 0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_division_identity_on_both_routes(self, m):
        tried = 0
        for alpha, q in oracle_cases(200 + m, m, 80):
            vanishes = dense_vanishes(alpha, q)
            routes = ("modp", "snf", "auto") if m == 1 else ("snf", "auto")
            for route in routes:
                if not vanishes:
                    with pytest.raises(NotDivisible):
                        divide_step(alpha, q, route=route)
                    continue
                step = divide_step(alpha, q, route=route)
                assert step.gamma.scale(q) + apply_coboundary(step.potential) == alpha
                assert step.route == (ROUTE_MOD_P if route == "modp" or
                                      (route == "auto" and m == 1) else ROUTE_SNF)
                tried += 1
        assert tried > 20

    def test_mod_q_route_is_degree_one_only(self):
        cx = rp2_complex()
        alpha = Cochain(cx, 2, ZZ, {0: 2})
        with pytest.raises(ValueError):
            divide_step(alpha, 2, route="modp")


@pytest.fixture(scope="module")
def circle_fit():
    return run_pipeline(sample_circle(30, 0.0, 2, seed=7)[0], prime=47)


STAGES = {
    "lift_closed": lambda fit, cap: lift_closed(fit.cocycle_lift.input, snf_cap=cap),
    "snf_repair": lambda fit, cap: snf_repair(fit.cocycle_lift.working_lift, OddPrime(47),
                                              snf_cap=cap),
    "has_p_torsion": lambda fit, cap: has_p_torsion(fit.working_complex, 1, OddPrime(47),
                                                    snf_cap=cap),
    "divide_step": lambda fit, cap: divide_step(fit.cocycle_lift.working_lift.scale(3), 3,
                                                snf_cap=cap),
    "reduce_winding": lambda fit, cap: reduce_winding(fit.cocycle_lift.working_lift.scale(2),
                                                      fit.cycle_lift.working_lift, snf_cap=cap),
}


@pytest.mark.parametrize("cap", ["x", -5, 1.5])
@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_refuses_a_cap_that_is_no_integer_at_least_zero(stage, cap, circle_fit):
    # whether or not a Smith-normal-form route would run
    with pytest.raises(ValueError, match=re.escape(
            f"snf_cap must be an integer >= 0, got {cap!r}")):
        STAGES[stage](circle_fit, cap)


@pytest.mark.parametrize("command", ["lift", "reduce-winding"])
def test_cli_refuses_a_negative_cap(command, circle_fit, tmp_path):
    paths = {}
    for name, obj in {"complex": circle_fit.working_complex,
                      "input": circle_fit.cocycle_lift.input,
                      "cocycle": circle_fit.cocycle_lift.working_lift,
                      "cycle": circle_fit.cycle_lift.working_lift}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj.to_json_dict()))
    inputs = (["--input", paths["input"], "--prime", "47"] if command == "lift"
              else ["--cocycle", paths["cocycle"], "--cycle", paths["cycle"]])
    out = tmp_path / "out"
    argv = [command, "--complex", paths["complex"], *inputs, "--snf-cap", "-5", "--out", out]
    assert main([str(a) for a in argv]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and err["message"].endswith("got -5")

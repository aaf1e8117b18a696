"""The spanning-forest dual cycle against the boundary-matrix reduction it
replaced, and the winding reduction's indifference to which of the two
cycles it pairs against."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlift import (Cochain, GF, OddPrime, ZZ, apply_boundary, apply_coboundary,
                      build_rips, cycle_representative, kronecker_pairing,
                      lift_closed, persistent_cohomology, reduce_winding, run_pipeline)
from circlift.errors import DimensionOutOfRange, NoDualCycle
from circlift.experiments import sample_circle, sample_trefoil
from circlift.persistence import PersistencePair
from conftest import random_complex
from oracles import reference_cycle_representative

DIFFERENTIAL = settings(max_examples=80, deadline=None, database=None)


@st.composite
def complexes(draw):
    """A random_complex, or the Rips complex of a small cloud on a coarse
    grid (tied distances, repeated points) at one of its distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_complex(rng, n_max=10)
    points = rng.integers(0, 3, (draw(st.integers(3, 12)), 2)).astype(float)
    dist = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
    return build_rips(points, draw(st.sampled_from(sorted(set(dist.ravel().tolist())))), 2)


def with_cocycle(pair: PersistencePair, cocycle: Cochain) -> PersistencePair:
    return PersistencePair(
        dimension=1, birth=pair.birth, death=pair.death, scale=pair.scale,
        cocycle_below_death=cocycle,
        birth_simplex=pair.birth_simplex, death_simplex=pair.death_simplex)


def dual_or_none(find, cx, p, pair):
    try:
        return find(cx, p, pair)
    except NoDualCycle:
        return None


class TestAgainstReduction:
    @DIFFERENTIAL
    @given(complexes(), st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1))
    def test_same_refusals_and_a_dual_cycle_otherwise(self, cx, p, seed):
        rng = np.random.default_rng(seed)
        prime = OddPrime(p)
        dg = persistent_cohomology(cx, prime, min(cx.dimension, 1))
        for pair in dg.pairs(1):
            # the pair's own cocycle, a coboundary, and the cocycle plus one
            sub = cx.restrict(pair.scale)
            h = Cochain(cx, 0, pair.representative_cocycle.ring,
                        {v: int(rng.integers(0, p)) for v in range(sub.n_vertices)})
            boundary = with_cocycle(pair, apply_coboundary(h))
            shifted = with_cocycle(pair, pair.representative_cocycle.scale(
                int(rng.integers(1, p))) + boundary.representative_cocycle)
            for candidate in (pair, boundary, shifted):
                alpha = candidate.representative_cocycle
                new = dual_or_none(cycle_representative, cx, prime, candidate)
                old = dual_or_none(reference_cycle_representative, cx, prime, candidate)
                assert (new is None) == (old is None)
                if new is None:
                    continue
                assert new.ring == alpha.ring and new.complex is cx
                assert apply_boundary(new).is_zero()
                assert set(new.entries.values()) <= {1, p - 1}
                assert all(cx.filtration_values(1)[i] <= pair.scale for i in new.entries)
                assert kronecker_pairing(alpha, new) % p != 0
            assert dual_or_none(cycle_representative, cx, prime, pair) is not None

    def test_other_degrees_are_refused(self, filled_triangle):
        dg = persistent_cohomology(filled_triangle, OddPrime(7), 1)
        with pytest.raises(DimensionOutOfRange, match="degree 1"):
            cycle_representative(filled_triangle, OddPrime(7), dg.pairs(0)[0])

    def test_cycle_is_the_fundamental_cycle_of_the_first_disagreeing_edge(
            self, square_with_diagonals):
        # alpha is 3 on the last edge (2, 3) only; the forest is the star at
        # vertex 0, so phi = 0 and (2, 3) is the one edge that disagrees
        cx = square_with_diagonals
        p = OddPrime(7)
        last = cx.n_simplices(1) - 1
        assert cx.simplex(1, last) == (2, 3)
        alpha = Cochain(cx, 1, GF(7), {last: 3})
        pair = PersistencePair(dimension=1, birth=1.0, death=float("inf"), scale=1.0,
                               cocycle_below_death=alpha,
                               birth_simplex=cx.simplex(1, 0), death_simplex=None)
        cycle = cycle_representative(cx, p, pair)
        assert cycle.entries == {last: 1, cx.index((0, 3)): 6, cx.index((0, 2)): 1}
        assert kronecker_pairing(alpha, cycle) % 7 == 3

    def test_cycle_on_another_complex_with_the_same_edges(self):
        # the working complex built at the scale holds the same edges as the
        # pair's complex up to it; a complex with other edges is refused
        pts, _ = sample_circle(20, 0.0, 2, seed=1)
        cx, p = build_rips(pts, 2.0, 2), OddPrime(47)
        pair = persistent_cohomology(cx, p, 1).pairs(1)[0]
        sub = build_rips(pts, pair.scale, 2)
        cycle = cycle_representative(sub, p, pair)
        assert cycle.complex is sub
        assert cycle.entries == cycle_representative(cx, p, pair).entries
        with pytest.raises(ValueError, match="different complex"):
            cycle_representative(build_rips(pts * 1.1, pair.scale, 2), p, pair)


def lifted(cycle, sub):
    return lift_closed(cycle.push_to(sub), "cycle").working_lift


@pytest.mark.parametrize("case", ["hexagon", "circle40", "trefoil"])
def test_winding_reduction_does_not_depend_on_the_dual_cycle(case, hexagon):
    if case == "hexagon":
        result = run_pipeline(complex=hexagon, prime=47)
    elif case == "circle40":
        result = run_pipeline(points=sample_circle(40, 0.0, 2, seed=5)[0],
                              prime=47, threshold=0.6)
    else:
        result = run_pipeline(points=sample_trefoil(200, 0.0, seed=3), prime=47,
                              threshold=1.0)
    cx, sub, pair = result.complex, result.working_complex, result.pair
    new = lifted(pair.representative_cycle, sub)
    old = lifted(reference_cycle_representative(cx, OddPrime(47), pair), sub)
    alpha = result.cocycle_lift.working_lift
    rng = np.random.default_rng(11)
    h = Cochain(sub, 0, ZZ, {i: int(v) for i, v in
                             enumerate(rng.integers(-3, 4, sub.n_vertices))})
    for cocycle in (alpha, alpha.scale(3) + apply_coboundary(h)):
        a, b = reduce_winding(cocycle, new), reduce_winding(cocycle, old)
        assert a.winding_number == b.winding_number
        assert a.division_trace == b.division_trace
        assert a.reduced_cocycle == b.reduced_cocycle
        assert a.coboundary_witness == b.coboundary_witness


def test_one_forest_per_fit(monkeypatch):
    # the dual cycle, the smoothing and the circular map all read the
    # forest of the working complex, on a circle that forms one component;
    # at threshold="auto" no triangles are built above the working scale
    from circlift import FilteredComplex, complexes
    builds, triangles = [], []
    build, store = complexes._breadth_first_forest, FilteredComplex._store
    monkeypatch.setattr(complexes, "_breadth_first_forest",
                        lambda cx, root: builds.append(cx) or build(cx, root))
    # every dimension of a complex is stored through _store
    monkeypatch.setattr(FilteredComplex, "_store", lambda cx, verts, *rest: (
        triangles.append(len(verts) if verts.shape[1] == 3 else 0), store(cx, verts, *rest))[1])
    points = sample_circle(30, 0.0, 2, seed=2)[0]
    result = run_pipeline(points=points, prime=47)
    assert builds == [result.working_complex]
    assert max(triangles) == result.working_complex.n_simplices(2)
    sub = build_rips(points, "auto", 2).restrict(result.scale)
    for m in range(3):
        assert np.array_equal(sub.vertex_array(m), result.working_complex.vertex_array(m))
        assert sub.filtration_values(m).tobytes() == \
            result.working_complex.filtration_values(m).tobytes()
        assert np.array_equal(sub.face_table(m), result.working_complex.face_table(m))

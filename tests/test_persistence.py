import math
import os
import pickle
import re
import tempfile
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlift import (OddPrime, apply_boundary, apply_coboundary,
                      build_from_simplices, build_rips, cycle_representative, kronecker_pairing,
                      persistent_cohomology, run_pipeline, select_class)
from circlift import persistence
from circlift.errors import EmptyDiagram, NoDualCycle
from circlift import ZZ, FilteredComplex
from circlift.persistence import PersistencePair
from circlift.experiments import sample_circle
from conftest import random_complex
from fplinalg import rank_mod, to_numpy_mod
from oracles import (persistent_homology_intervals, rank_integer,
                     reference_persistent_cohomology)

DIFFERENTIAL = settings(max_examples=150, deadline=None, database=None)
PRIMES = st.sampled_from([3, 5, 7, 47])
POLICIES = st.sampled_from(["midpoint", 0.5, 1.0, 1.5, 2.0, 3.0, 4.5])


def assert_same_as_reference(cx, p: int, max_dim: int, scale_policy="midpoint"):
    """Identical diagram JSON, birth and death simplices and unrestricted
    cocycles as the per-simplex reduction; each representative keeps the
    entries of its unrestricted cocycle up to its scale."""
    new = persistent_cohomology(cx, OddPrime(p), max_dim, scale_policy=scale_policy)
    ref = reference_persistent_cohomology(cx, OddPrime(p), max_dim,
                                          scale_policy=scale_policy)
    assert new.to_json_dict() == ref.to_json_dict()
    for a, b in zip(new.all_pairs(), ref.all_pairs()):
        assert (a.birth_simplex, a.death_simplex) == (b.birth_simplex, b.death_simplex)
        assert a.cocycle_below_death == b.cocycle_below_death
        f = cx.filtration_values(a.dimension)
        assert a.representative_cocycle.entries == {
            i: v for i, v in a.cocycle_below_death.entries.items() if f[i] <= a.scale}
    return new


@st.composite
def explicit_complexes(draw):
    """Complexes up to dimension 3 with tied integer filtration values,
    sparse enough to be disconnected; vertices may enter after 0."""
    n = draw(st.integers(1, 8))
    density = draw(st.sampled_from([3, 6, 9]))
    late = draw(st.booleans())
    table = {(i,): float(draw(st.integers(0, 2))) if late else 0.0 for i in range(n)}
    for k in (2, 3, 4):
        for s in combinations(range(n), k):
            faces = [s[:i] + s[i + 1:] for i in range(k)]
            if all(f in table for f in faces) and draw(st.integers(0, 9)) < density:
                table[s] = max(table[f] for f in faces) + draw(st.integers(0, 2))
    return FilteredComplex(table)


@st.composite
def grid_clouds(draw):
    """Rips complexes of points on a coarse grid, so distances tie and
    points repeat, with simplices up to dimension max_dim + 1."""
    n = draw(st.integers(1, 9))
    coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=n, max_size=n))
    threshold = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    max_dim = draw(st.integers(1, 2))
    return build_rips(np.array(coords, dtype=float), threshold, max_dim + 1), max_dim


class TestDiagrams:
    def test_hexagon_has_one_essential_circle_class(self, hexagon):
        dg = persistent_cohomology(hexagon, OddPrime(7), 1)
        ones = dg.pairs(1)
        assert len(ones) == 1
        assert math.isinf(ones[0].death)

    def test_filled_triangle_has_no_circle_class(self, filled_triangle):
        dg = persistent_cohomology(filled_triangle, OddPrime(7), 1)
        assert dg.pairs(1) == []

    def test_clean_circle_sample_has_dominant_class(self):
        pts, _ = sample_circle(60, 0.0, 2, seed=0)
        cx = build_rips(pts, 1.0, 2)
        dg = persistent_cohomology(cx, OddPrime(47), 1)
        top = dg.pairs(1)[0]
        assert top.persistence > 0.5
        # brute-force check: at the representative scale, first Betti number
        # over F_47 must match the number of intervals alive there
        sub = cx.restrict(top.scale)
        q = 47

        def rank(k):
            return rank_mod(to_numpy_mod(sub.coboundary_matrix(k), q), q)

        betti1 = sub.n_simplices(1) - rank(0) - (rank(1) if sub.dimension >= 2 else 0)
        alive = sum(1 for pr in dg.pairs(1)
                    if pr.birth <= top.scale < pr.death)
        assert betti1 == alive == 1

    def test_pairs_sorted_by_persistence(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            cx = random_complex(rng)
            dg = persistent_cohomology(cx, OddPrime(5), min(1, cx.dimension))
            for pairs in dg.pairs_by_dim.values():
                pers = [p.persistence for p in pairs]
                assert pers == sorted(pers, reverse=True)

    def test_reduction_is_deterministic(self):
        rng = np.random.default_rng(88)
        cx = random_complex(rng, n_max=12)
        md = min(cx.dimension, 1)
        a = persistent_cohomology(cx, OddPrime(7), md)
        b = persistent_cohomology(cx, OddPrime(7), md)
        for dim in a.pairs_by_dim:
            for pa, pb in zip(a.pairs(dim), b.pairs(dim)):
                assert (pa.birth, pa.death, pa.scale) == (pb.birth, pb.death, pb.scale)
                assert pa.representative_cocycle.entries == \
                    pb.representative_cocycle.entries

    def test_births_strictly_before_deaths(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            cx = random_complex(rng)
            dg = persistent_cohomology(cx, OddPrime(3), min(1, cx.dimension))
            for pr in dg.all_pairs():
                assert pr.birth < pr.death


class TestAgainstReference:
    """The union-find, apparent-pair and long-cocycle kernel against the
    per-simplex reduction it replaced."""

    @DIFFERENTIAL
    @given(explicit_complexes(), PRIMES, POLICIES, st.integers(0, 2))
    def test_explicit_complexes(self, cx, p, policy, max_dim):
        assert_same_as_reference(cx, p, min(max_dim, cx.dimension), policy)

    @DIFFERENTIAL
    @given(grid_clouds(), PRIMES, POLICIES)
    def test_rips_grid_clouds(self, cloud, p, policy):
        cx, max_dim = cloud
        assert_same_as_reference(cx, p, min(max_dim, cx.dimension), policy)

    def test_random_complexes(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            cx = random_complex(rng, n_max=12, n_min=1)
            assert_same_as_reference(cx, int(rng.choice([3, 5, 7, 47])),
                                     int(rng.integers(0, cx.dimension + 1)))

    def test_merge_edges_are_never_births(self):
        # (0, 1) and (0, 2) merge and are faces of the earliest triangle,
        # whose latest facet (1, 2) is its apparent partner; the bridge
        # (2, 3) merges and has no cofacet at all. No merge edge can be the
        # latest facet of a simplex: the earlier facets already bound it.
        cx = build_from_simplices([((v,), 0.0) for v in range(4)] + [
            ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 2.0), ((0, 1, 2), 3.0), ((2, 3), 4.0)])
        dg = assert_same_as_reference(cx, 7, 1)
        assert [(pr.birth_simplex, pr.death_simplex) for pr in dg.pairs(1)] == \
            [((1, 2), (0, 1, 2))]
        assert sorted(pr.death_simplex for pr in dg.pairs(0) if pr.death_simplex) == \
            [(0, 1), (0, 2), (2, 3)]

    def test_apparent_pair_of_zero_persistence_is_not_reported(self):
        flat = build_from_simplices([((0, 1, 2), 1.0)])
        assert assert_same_as_reference(flat, 5, 1).pairs(1) == []
        raised = build_from_simplices([((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
                                       ((0, 1, 2), 2.0)])
        (pair,) = assert_same_as_reference(raised, 5, 1).pairs(1)
        assert pair.death_simplex == (0, 1, 2)
        assert pair.representative_cocycle.to_json_dict()["entries"] == [[[1, 2], "1"]]

    def test_essential_long_class(self):
        # an annulus between the triangles 012 and 345: the birth of the
        # essential class has cofacets but no apparent partner, so its
        # cocycle is extended over the apparent edges
        tris = [(0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5)]
        cx = build_from_simplices([(t, 2.0 + i % 3) for i, t in enumerate(tris)]
                                  + [((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0)])
        dg = assert_same_as_reference(cx, 47, 1)
        (essential,) = [pr for pr in dg.pairs(1) if math.isinf(pr.death)]
        up = cx.face_table(2)
        assert (up == cx.index(essential.birth_simplex)).any()
        assert len(essential.representative_cocycle.entries) > 1

    @pytest.mark.parametrize("seed, p", [(1, 47), (2, 47), (1, 1099511627791)])
    def test_circle_cone(self, seed, p):
        # the last prime's square overflows int64
        pts, _ = sample_circle(24, 0.0, 3, seed=seed)
        cx = build_rips(pts, 2.0, 3)
        assert_same_as_reference(cx, p, 2)


def diagram_outputs(dg) -> tuple:
    """The diagram's JSON and CSV, and each pair's simplices and cocycle."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "diagram.csv")
        dg.write_csv(path)
        with open(path) as fh:
            table = fh.read()
    return dg.to_json_dict(), table, [(pr.birth_simplex, pr.death_simplex,
                                       pr.cocycle_below_death) for pr in dg.all_pairs()]


FIRST_READS = {
    "pairs": lambda dg: dg.pairs(0),
    "all_pairs": lambda dg: dg.all_pairs(),
    "pairs_by_dim": lambda dg: dg.pairs_by_dim,
    "json": lambda dg: dg.to_json_dict(),
    "csv": diagram_outputs,
}


class TestDegreeZeroOnFirstRead:
    """The degree-0 pairs are built on the first read of degree 0, which a
    fit never makes; whichever read comes first, the diagram is the
    per-simplex reduction's."""

    def test_a_fit_builds_no_degree_zero_pair(self, monkeypatch):
        built = []

        class Counted(PersistencePair):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.dimension)

        monkeypatch.setattr(persistence, "PersistencePair", Counted)
        points = sample_circle(30, 0.0, 2, seed=2)[0]
        for threshold in (1.0, "auto"):
            built.clear()
            diagram = run_pipeline(points=points, prime=47, threshold=threshold).diagram
            assert built and 0 not in built
            assert diagram.pairs(1) and 0 not in built
            zero = diagram.pairs(0)
            assert len(zero) == built.count(0) >= 1
            assert diagram.pairs(0) is zero and built.count(0) == len(zero)

    def test_a_pickled_fit_holds_degree_zero(self):
        points = sample_circle(30, 0.0, 2, seed=2)[0]
        for threshold in (1.0, "auto"):
            result = run_pipeline(points=points, prime=47, threshold=threshold)
            copy = pickle.loads(pickle.dumps(result))
            assert copy.diagram.to_json_dict() == result.diagram.to_json_dict()
            assert copy.coordinate_array().tobytes() == result.coordinate_array().tobytes()

    @DIFFERENTIAL
    @given(st.one_of(explicit_complexes().map(lambda cx: (cx, min(2, cx.dimension))),
                     grid_clouds()),
           PRIMES, POLICIES, st.sampled_from(sorted(FIRST_READS)))
    def test_any_first_read_gives_the_reference(self, complex_and_degree, p, policy, read):
        cx, max_dim = complex_and_degree
        max_dim = min(max_dim, cx.dimension)
        dg = persistent_cohomology(cx, OddPrime(p), max_dim, scale_policy=policy)
        FIRST_READS[read](dg)
        ref = reference_persistent_cohomology(cx, OddPrime(p), max_dim, scale_policy=policy)
        assert [pr.to_json_dict() for pr in dg.pairs(0)] == \
            [pr.to_json_dict() for pr in ref.pairs(0)]
        assert diagram_outputs(dg) == diagram_outputs(ref)


class TestBarcodeOracle:
    def test_matches_homology_reduction(self):
        # independent boundary-matrix reduction must give identical barcodes
        rng = np.random.default_rng(42)
        for _ in range(80):
            cx = random_complex(rng, n_max=12)
            p = OddPrime(int(rng.choice([3, 5, 7, 13])))
            md = cx.dimension
            dg = persistent_cohomology(cx, p, md)
            co = sorted((d, pr.birth, pr.death)
                        for d in dg.pairs_by_dim for pr in dg.pairs(d))
            ho = sorted(persistent_homology_intervals(cx, p, md))
            assert co == ho

    def test_diagram_independent_of_prime_without_torsion(self):
        rng = np.random.default_rng(6)
        trials = 0
        while trials < 15:
            cx = random_complex(rng, n_max=9)
            md = min(cx.dimension, 1)
            barcodes = []
            for p in (3, 5, 7):
                dg = persistent_cohomology(cx, OddPrime(p), md)
                barcodes.append(sorted((d, pr.birth, pr.death)
                                       for d in dg.pairs_by_dim
                                       for pr in dg.pairs(d)))
            assert barcodes[0] == barcodes[1] == barcodes[2]
            # essential counts must equal the integer Betti numbers
            ranks = {m: rank_integer(cx.boundary_matrix(m))
                     for m in range(1, cx.dimension + 1)}
            for m in range(md + 1):
                betti = cx.n_simplices(m) - ranks.get(m, 0) - ranks.get(m + 1, 0)
                essential = sum(1 for d, birth, death in barcodes[0]
                                if d == m and math.isinf(death))
                assert essential == betti
            trials += 1


class TestRepresentatives:
    def test_cocycles_closed_at_their_scale(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            cx = random_complex(rng, n_max=10)
            p = OddPrime(7)
            dg = persistent_cohomology(cx, p, min(cx.dimension, 1))
            for pr in dg.pairs(1):
                sub = cx.restrict(pr.scale)
                assert apply_coboundary(pr.representative_cocycle.push_to(sub)).is_zero()

    def test_hexagon_cycle_representative(self, hexagon):
        p = OddPrime(7)
        dg = persistent_cohomology(hexagon, p, 1)
        pair = dg.pairs(1)[0]
        cyc = cycle_representative(hexagon, p, pair)
        assert len(cyc.entries) == 6
        assert apply_boundary(cyc).is_zero()
        pairing = kronecker_pairing(pair.representative_cocycle, cyc)
        assert pairing % 7 in (1, 6)

    def test_cycles_pair_nonzero_on_random_complexes(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            cx = random_complex(rng, n_max=10)
            p = OddPrime(7)
            dg = persistent_cohomology(cx, p, min(cx.dimension, 1))
            for pr in dg.pairs(1):
                cyc = cycle_representative(cx, p, pr)
                assert apply_boundary(cyc).is_zero()
                assert kronecker_pairing(pr.representative_cocycle, cyc) % 7 != 0

    def test_fabricated_pair_has_no_dual_cycle(self, filled_triangle, triangle_cocycle_f7):
        fake = PersistencePair(
            dimension=1, birth=0.5, death=2.0, scale=1.0,
            cocycle_below_death=triangle_cocycle_f7,
            birth_simplex=(0, 1), death_simplex=None)
        with pytest.raises(NoDualCycle):
            cycle_representative(filled_triangle, OddPrime(7), fake)


class TestScalePolicy:
    """A square filled at 3 ([1, 3) and, with its diagonal, [2, 3)) next to a
    triangle loop that is never filled ([1, inf))."""

    @pytest.fixture
    def diagram(self):
        def at(scale):
            cx = build_from_simplices(
                [((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 3), 1.0),
                 ((0, 2), 2.0), ((0, 1, 2), 3.0), ((0, 2, 3), 3.0),
                 ((4, 5), 1.0), ((5, 6), 1.0), ((4, 6), 1.0)])
            dg = persistent_cohomology(cx, OddPrime(7), 1, scale_policy=scale)
            pairs = {(pr.birth, pr.death): pr for pr in dg.pairs(1)}
            assert sorted(pairs) == [(1.0, 3.0), (1.0, math.inf), (2.0, 3.0)]
            return pairs
        return at

    def test_float_inside_a_finite_interval_is_used(self, diagram):
        pair = diagram(1.5)[(1.0, 3.0)]
        assert pair.scale == 1.5
        assert pair.representative_cocycle == pair.cocycle_at(1.5)

    def test_float_outside_an_interval_falls_back(self, diagram):
        pairs = diagram(0.5)
        assert pairs[(1.0, 3.0)].scale == 2.0
        assert pairs[(2.0, 3.0)].scale == 2.5
        assert pairs[(1.0, math.inf)].scale == 3.0

    def test_essential_pair_uses_the_float(self, diagram):
        pairs = diagram(2.5)
        assert pairs[(1.0, math.inf)].scale == 2.5
        assert pairs[(2.0, 3.0)].scale == 2.5
        assert diagram(4.0)[(1.0, math.inf)].scale == 4.0

    @pytest.mark.parametrize("policy", [math.nan, math.inf, -math.inf, "max", None])
    def test_neither_midpoint_nor_finite_is_refused(self, hexagon, policy):
        with pytest.raises(ValueError, match="scale_policy"):
            persistent_cohomology(hexagon, OddPrime(7), 1, scale_policy=policy)


class TestDiagramExports:
    def test_json_and_csv(self, hexagon, tmp_path):
        dg = persistent_cohomology(hexagon, OddPrime(7), 1)
        jpath = tmp_path / "diagram.json"
        cpath = tmp_path / "diagram.csv"
        dg.write_json(jpath)
        dg.write_csv(cpath)
        import json as _json
        data = _json.loads(jpath.read_text())
        assert data["prime"] == 7
        essential = [p for p in data["pairs"] if p["death"] is None]
        assert any(p["dimension"] == 1 for p in essential)
        lines = cpath.read_text().splitlines()
        assert lines[0] == "dimension,birth,death"
        assert any(line.startswith("1,") and line.endswith("inf")
                   for line in lines[1:])


class TestSelectClass:
    def test_max_persistence(self, hexagon):
        dg = persistent_cohomology(hexagon, OddPrime(7), 1)
        assert select_class(dg, "max-persistence", dim=1) is dg.pairs(1)[0]

    def test_index_strategy(self):
        rng = np.random.default_rng(1)
        cx = None
        while cx is None:
            cand = random_complex(rng, n_max=12)
            dg = persistent_cohomology(cand, OddPrime(5), min(1, cand.dimension))
            if len(dg.pairs(0)) >= 2:
                cx, diagram = cand, dg
        assert select_class(diagram, "index:1", dim=0) is diagram.pairs(0)[1]
        n = len(diagram.pairs(0))
        for k in (n, n + 5, -1):
            with pytest.raises(EmptyDiagram, match=rf"^index {k} out of range \({n} pairs\)$"):
                select_class(diagram, f"index:{k}", dim=0)

    def test_empty_diagram(self, filled_triangle):
        dg = persistent_cohomology(filled_triangle, OddPrime(7), 1)
        with pytest.raises(EmptyDiagram):
            select_class(dg, "max-persistence", dim=1)

    @pytest.mark.parametrize("strategy", ["bogus", "index:x", "index:", None])
    def test_unknown_strategy_is_refused_before_the_diagram_is_read(self, strategy,
                                                                    filled_triangle):
        # the empty diagram would raise EmptyDiagram
        dg = persistent_cohomology(filled_triangle, OddPrime(7), 1)
        with pytest.raises(ValueError, match=f"class_strategy .* got {re.escape(repr(strategy))}$"):
            select_class(dg, strategy, dim=1)

"""The face table against the dict-and-tuple reference: construction,
validation, lookups, restriction, (co)boundaries and index systems."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from circlift import (Chain, Cochain, FilteredComplex, GF, RR, ZZ, apply_boundary,
                      apply_coboundary, build_from_simplices, build_rips,
                      cocycle_index_system)
from circlift import persistence
from circlift.complexes import face_signs, forest_potential, is_closed, spanning_forest
from oracles import (ReferenceComplex, faces_with_signs, reference_boundary,
                     reference_coboundary, reference_forest_potential,
                     reference_spanning_forest)

FAST = settings(max_examples=60, deadline=None, database=None)


def closure(entries) -> dict[tuple[int, ...], float]:
    """Every face of the given simplices, at the least filtration of its
    cofaces (what ``build_from_simplices`` adds)."""
    table: dict[tuple[int, ...], float] = {}
    for s, f in entries:
        for k in range(1, len(s) + 1):
            for face in combinations(s, k):
                table[face] = min(f, table.get(face, f))
    return table


@st.composite
def simplices(draw, max_dim=4):
    """Simplices up to max_dim on sparse, large (possibly negative) vertex
    ids, with tied filtration values."""
    ids = draw(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=9, unique=True))
    maximal = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(sorted(ids)), min_size=1, max_size=max_dim + 1,
                           unique=True),
                  st.integers(0, 4).map(float)),
        min_size=1, max_size=8))
    return [(tuple(sorted(s)), f) for s, f in maximal]


def tables(max_dim=4):
    return simplices(max_dim).map(closure)


@st.composite
def graphs(draw):
    """Sparse-to-dense random graphs with isolated vertices and several
    components; vertex filtrations vary, so vertex indices do not follow the
    ids, and filtration values tie."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.03, 0.08, 0.2, 0.7]))
    f_v = rng.integers(0, 3, n).astype(float)
    table = {(v,): f for v, f in enumerate(f_v.tolist())}
    for a, b in combinations(range(n), 2):
        if rng.random() < density:
            table[(a, b)] = max(f_v[a], f_v[b]) + float(rng.integers(0, 3))
    return table


def rips_table(points: np.ndarray, threshold: float, max_dim: int):
    """Brute-force Rips filtration: every clique up to max_dim at its diameter."""
    n = len(points)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    table = {(i,): 0.0 for i in range(n)}
    for k in range(2, max_dim + 2):
        for s in combinations(range(n), k):
            d = max(float(dist[a, b]) for a, b in combinations(s, 2))
            if d <= threshold:
                table[s] = d
    return table


@st.composite
def rips_clouds(draw):
    """Points on a coarse grid, so distances tie and points repeat."""
    n = draw(st.integers(1, 9))
    coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=n, max_size=n))
    return np.array(coords, dtype=float), float(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])))


def assert_matches_reference(cx: FilteredComplex, ref: ReferenceComplex) -> None:
    assert cx.dimension == ref.dimension
    for m in range(cx.dimension + 1):
        assert cx.simplices(m) == ref.simplices[m]
        assert cx.filtration_values(m).tolist() == ref.filtration[m]
        if m:
            assert cx.face_table(m).tolist() == ref.faces(m)
            # persistence names a death simplex from its face row
            assert persistence._vertices(cx.face_table(m), cx.vertex_array(m - 1)).tolist() \
                == [list(s) for s in ref.simplices[m]]
        for i, s in enumerate(ref.simplices[m]):
            assert cx.index(s) == i and cx.has_simplex(s)
            assert cx.filtration(s) == ref.filtration[m][i]


def random_vector(cls, cx, m, ring, rng):
    big = 2**70
    values = {ZZ: lambda: int(rng.integers(-9, 10)) * big + int(rng.integers(-9, 10)),
              RR: lambda: float(rng.normal()),
              GF(7): lambda: int(rng.integers(0, 7))}[ring]
    return cls(cx, m, ring, {i: values() for i in range(cx.n_simplices(m))
                             if rng.random() < 0.6})


class TestConstruction:
    @FAST
    @given(simplices())
    def test_random_complexes_match_reference(self, entries):
        table = closure(entries)
        assert_matches_reference(build_from_simplices(entries), ReferenceComplex(table))
        assert_matches_reference(FilteredComplex(table), ReferenceComplex(table))

    @FAST
    @given(rips_clouds())
    def test_rips_with_ties_and_duplicates_matches_reference(self, cloud):
        points, threshold = cloud
        cx = build_rips(points, threshold, 2)
        table = rips_table(points, threshold, 2)
        assert {s: cx.filtration(s) for m in range(cx.dimension + 1)
                for s in cx.simplices(m)} == table
        assert_matches_reference(cx, ReferenceComplex(table))

    @FAST
    @given(tables(max_dim=3), st.data())
    def test_broken_inputs_fail_like_the_reference(self, table, data):
        # drop one face, or lift a face above a coface
        assume(len(table) > 1)
        s = data.draw(st.sampled_from(sorted(table)))
        broken = dict(table)
        if data.draw(st.booleans()):
            del broken[s]
        else:
            broken[s] += data.draw(st.sampled_from([1e-13, 0.5]))
        try:
            ReferenceComplex(broken)
        except ValueError:
            with pytest.raises(ValueError):
                FilteredComplex(broken)
        else:
            assert_matches_reference(FilteredComplex(broken), ReferenceComplex(broken))

    @FAST
    @given(tables(), st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=5,
                              unique=True))
    def test_lookup_of_arbitrary_tuples(self, table, vertices):
        cx = FilteredComplex(table)
        s = tuple(sorted(vertices))
        assert cx.has_simplex(s) == (s in table)
        if s not in table:
            with pytest.raises(KeyError):
                cx.index(s)

    def test_vertex_ids_must_be_64_bit_integers(self):
        with pytest.raises(ValueError):
            FilteredComplex({(2**64,): 0.0})
        with pytest.raises(ValueError):
            FilteredComplex({(0.5,): 0.0})


class TestRestrict:
    @FAST
    @given(tables())
    def test_prefix_equals_rebuild_at_every_value(self, table):
        cx = FilteredComplex(table)
        for t in sorted(set(table.values())):
            sub = cx.restrict(t)
            rebuilt = FilteredComplex({s: f for s, f in table.items() if f <= t})
            assert sub.dimension == rebuilt.dimension
            for m in range(rebuilt.dimension + 1):
                assert sub.simplices(m) == rebuilt.simplices(m)
                assert sub.filtration_values(m).tolist() == \
                    rebuilt.filtration_values(m).tolist()
                assert sub.face_table(m).tolist() == rebuilt.face_table(m).tolist()
            for s, f in table.items():
                assert sub.has_simplex(s) == (f <= t)

    def test_face_just_above_its_coface_is_refused(self):
        # validation tolerates the 1e-13 excess; the cut at 0.5 keeps the
        # edge without its vertex, as the rebuild would
        table = {(0,): 0.0, (1,): 0.5 + 1e-13, (0, 1): 0.5}
        cx = FilteredComplex(table)
        with pytest.raises(ValueError):
            FilteredComplex({s: f for s, f in table.items() if f <= 0.5})
        with pytest.raises(ValueError):
            cx.restrict(0.5)
        assert cx.restrict(1.0).n_simplices(1) == 1

    @FAST
    @given(tables(), st.integers(0, 2**32))
    def test_push_to_restriction(self, table, seed):
        rng = np.random.default_rng(seed)
        cx = FilteredComplex(table)
        t = float(rng.choice(sorted(set(table.values()))))
        sub = cx.restrict(t)
        m = int(rng.integers(0, sub.dimension + 1))
        c = random_vector(Cochain, cx, m, ZZ, rng)
        pushed = c.push_to(sub)
        simp = cx.simplices(m)
        assert {sub.simplices(m)[i]: v for i, v in pushed.entries.items()} == \
            {simp[i]: v for i, v in c.entries.items() if table[simp[i]] <= t}


class TestOperators:
    @FAST
    @given(tables(), st.sampled_from([ZZ, GF(7), RR]), st.integers(0, 2**32))
    def test_coboundary_and_boundary_match_reference(self, table, ring, seed):
        rng = np.random.default_rng(seed)
        cx = FilteredComplex(table)
        for m in range(cx.dimension + 1):
            c = random_vector(Cochain, cx, m, ring, rng)
            assert apply_coboundary(c).entries == reference_coboundary(c)
            if m:
                ch = random_vector(Chain, cx, m, ring, rng)
                assert apply_boundary(ch).entries == reference_boundary(ch)

    @FAST
    @given(tables(), st.sampled_from([ZZ, GF(7)]), st.integers(0, 2**32))
    def test_is_closed_matches_reference(self, table, ring, seed):
        # random (co)chains beside (co)boundaries, which are closed; in the
        # top degree every cochain is a cocycle, in degree 0 every chain a cycle
        rng = np.random.default_rng(seed)
        cx = FilteredComplex(table)
        for m in range(cx.dimension + 1):
            cochains = [random_vector(Cochain, cx, m, ring, rng)]
            chains = [random_vector(Chain, cx, m, ring, rng)]
            if m:
                cochains.append(apply_coboundary(random_vector(Cochain, cx, m - 1, ring, rng)))
            if m < cx.dimension:
                chains.append(apply_boundary(random_vector(Chain, cx, m + 1, ring, rng)))
            for c in cochains:
                assert is_closed(c) == (not reference_coboundary(c))
            for z in chains:
                assert is_closed(z) == (m == 0 or not reference_boundary(z))

    @FAST
    @given(tables())
    def test_matrices_are_signed_face_incidences(self, table):
        cx = FilteredComplex(table)
        for m in range(1, cx.dimension + 1):
            ref = ReferenceComplex(table)
            want = np.zeros((cx.n_simplices(m - 1), cx.n_simplices(m)), dtype=np.int64)
            for j, row in enumerate(ref.faces(m)):
                want[row, j] = face_signs(m)
            bd = cx.boundary_matrix(m)
            assert bd.dtype == np.int64 and np.array_equal(bd, want)
            cob = cx.coboundary_matrix(m - 1)
            assert cob.shape == (cx.n_simplices(m), cx.n_simplices(m - 1))
            assert np.array_equal(cob, want.T)

    @FAST
    @given(tables(max_dim=3), st.integers(0, 2**32))
    def test_index_systems_match_reference(self, table, seed):
        rng = np.random.default_rng(seed)
        cx = FilteredComplex(table)
        for m in range(cx.dimension + 1):
            p = 7
            f = random_vector(Cochain, cx, m - 1, GF(p), rng) if m else None
            c = apply_coboundary(f) if m else Cochain(cx, 0, GF(p), {})
            simp, up = cx.simplices(m), cx.simplices(m + 1)
            want = [tuple((simp.index(face), sign) for face, sign in faces_with_signs(s)
                          if simp.index(face) in c.entries) for s in up]
            assert cocycle_index_system(c).relations == \
                tuple(rel for rel in want if rel)
            if m:
                z = apply_boundary(random_vector(Chain, cx, m + 1, GF(p), rng)) \
                    if m < cx.dimension else Chain(cx, m, GF(p), {})
                by_face: dict[int, list] = {}
                below = cx.simplices(m - 1)
                for i in sorted(z.entries):
                    for face, sign in faces_with_signs(simp[i]):
                        by_face.setdefault(below.index(face), []).append((i, sign))
                assert cocycle_index_system(z).relations == \
                    tuple(tuple(v) for _, v in sorted(by_face.items()))


class TestSpanningForest:
    @FAST
    @given(tables(max_dim=2), st.data())
    def test_tree_edges_are_graph_edges_reaching_every_vertex(self, table, data):
        cx = FilteredComplex(table)
        root = data.draw(st.none() | st.integers(0, cx.n_vertices - 1))
        forest = spanning_forest(cx, root)
        roots, tree = forest.roots.tolist(), forest.steps.T.tolist()
        edges = cx.simplices(1)
        vertex = cx.vertex_ids
        assert len(roots) + len(tree) == cx.n_vertices
        assert sorted(roots + [child for _, child, _, _ in tree]) == list(range(cx.n_vertices))
        if root is not None:
            assert roots[0] == root
        for parent, child, j, sign in tree:
            a, b = edges[j]
            assert (vertex[parent], vertex[child]) == ((a, b) if sign == 1 else (b, a))

    @FAST
    @given(st.one_of(graphs(), tables(max_dim=2)), st.data())
    def test_matches_the_first_in_first_out_search(self, table, data):
        cx = FilteredComplex(table)
        root = data.draw(st.none() | st.integers(0, cx.n_vertices - 1))
        forest = spanning_forest(cx, root)
        roots, tree = reference_spanning_forest(cx, root)
        assert forest.roots.tolist() == roots
        # the level offsets split the rows by depth, parents first
        depth = np.zeros(cx.n_vertices, dtype=np.int64)
        for k, (lo, hi) in enumerate(zip(forest.levels[:-1], forest.levels[1:])):
            parent, child = forest.steps[:2, lo:hi]
            assert np.all(depth[parent] == k)
            depth[child] = k + 1
        # the rows are those of the search, stably sorted by child depth
        searched = np.zeros(cx.n_vertices, dtype=np.int64)
        for parent, child, _, _ in tree:
            searched[child] = searched[parent] + 1
        by_level = sorted(tree, key=lambda row: searched[row[1]])
        assert list(map(tuple, forest.steps.T.tolist())) == by_level

    def test_potential_on_a_deep_and_a_shallow_component(self):
        # the path 0-1-2 and the edge 3-4: visited 01, 12, 34, and level by
        # level 01, 34, then 12
        cx = build_from_simplices([((0, 1), 1.0), ((1, 2), 1.0), ((3, 4), 1.0)])
        assert spanning_forest(cx).steps[:2].T.tolist() == [[0, 1], [3, 4], [1, 2]]
        values = np.array([3, 4, 5])
        assert forest_potential(cx, values, 7).tolist() == \
            reference_forest_potential(cx, values.tolist(), 7) == [0, 3, 0, 0, 5]

    @FAST
    @given(graphs(), st.data())
    def test_potential_matches_the_per_edge_loop(self, table, data):
        cx = FilteredComplex(table)
        root = data.draw(st.none() | st.integers(0, cx.n_vertices - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_e = cx.n_simplices(1)
        big = 1_099_511_627_791
        for values, modulus in (
                (rng.integers(-10**6, 10**6, n_e), 1009),
                (np.array([int(v) * 2**40 + 7 for v in rng.integers(-2**40, 2**40, n_e)],
                          dtype=object), big),
                (rng.standard_normal(n_e) * 3, 1.0)):
            phi = forest_potential(cx, values, modulus, root)
            want = reference_forest_potential(cx, values.tolist(), modulus, root)
            assert phi.dtype == values.dtype
            if values.dtype == float:
                assert phi.tobytes() == np.array(want, dtype=float).tobytes()
            else:
                assert phi.tolist() == want

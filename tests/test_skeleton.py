"""Persistence on a Rips 1-skeleton, whose triangles come from its edge
index, against the face table of the Rips complex with its triangles; the
working complex built at a scale against the sublevel complex of the full
one; and a threshold="auto" fit against the same fit on the full complex."""

import json
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlift import (Chain, Cochain, GF, OddPrime, ZZ, apply_coboundary, build_rips,
                      cocycle_index_system, harmonic_smooth, lift_closed,
                      persistent_cohomology, reduce_winding, run_pipeline)
from circlift import complexes, persistence
from circlift.complexes import FilteredComplex, stored_sublevel
from circlift.errors import CircliftError, DimensionOutOfRange, NotACocycle, NotClosed
from circlift.experiments import sample_circle
from conftest import assert_same_arrays
from oracles import (enclosing_radius, reference_extend, reference_persistent_cohomology,
                     reference_rips_earliest, unchunked_distances)

DIFFERENTIAL = settings(max_examples=150, deadline=None, database=None)
BIG_PRIME = 2_147_483_659          # above 2^31: absorption products are Python ints
HUGE_PRIME = 2**61 - 1             # three entries sum past 2^62: columns hold Python ints


@st.composite
def clouds(draw):
    """Gaussian clouds, or points on a coarse grid (tied distances and
    repeated points), with the enclosing radius or one of the distances."""
    n = draw(st.integers(2, 22))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.standard_normal((n, draw(st.integers(1, 3))))
    else:
        points = rng.integers(0, 4, (n, 2)).astype(float)
    dist = unchunked_distances(points)
    t = draw(st.sampled_from([enclosing_radius(points)]
                             + sorted(set(dist[np.triu_indices(n, 1)].tolist()))))
    return points, t


@st.composite
def noisy_circles(draw):
    """Circles of 6 to 30 points, noise-free or noisy, with one of their
    distances."""
    points = sample_circle(draw(st.integers(6, 30)), draw(st.sampled_from([0.0, 0.05, 0.2])),
                           2, seed=draw(st.integers(0, 2**16)))[0]
    dist = unchunked_distances(points)
    return points, draw(st.sampled_from(sorted(set(dist[np.triu_indices(len(points), 1)]
                                                   .tolist()))))


def small_blocks(size: int) -> ExitStack:
    """Windows of the cofacet sources and the blocks of the long-death
    search, all of ``size`` cells."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(complexes, "_BLOCK", size))
    stack.enter_context(mock.patch.object(persistence, "_BLOCK", size))
    return stack


def vertex_map(cochain) -> dict:
    """A cochain as simplex vertex tuple -> coefficient."""
    return {cochain.complex.simplex(cochain.dim, i): v for i, v in cochain.entries.items()}


def assert_same_diagrams(a, b) -> None:
    """Identical intervals, scales, birth and death simplices and cocycles,
    on complexes that may differ."""
    assert a.to_json_dict() == b.to_json_dict()
    for x, y in zip(a.all_pairs(), b.all_pairs(), strict=True):
        assert (x.birth, x.death, x.scale) == (y.birth, y.death, y.scale)
        assert (x.birth_simplex, x.death_simplex) == (y.birth_simplex, y.death_simplex)
        assert vertex_map(x.cocycle_below_death) == vertex_map(y.cocycle_below_death)
        assert vertex_map(x.representative_cocycle) == vertex_map(y.representative_cocycle)


class TestCofacetSources:
    """The triangles a skeleton reads from its edge index against the face
    table of the complex with its triangles: the same simplices, faces and
    filtrations, in the same order."""

    @DIFFERENTIAL
    @given(clouds(), st.sampled_from([1, 7, 1 << 18]), st.integers(0, 2**32 - 1))
    def test_same_cofacets_in_the_same_order(self, cloud, chunk, seed):
        points, t = cloud
        cone = build_rips(points, t, 2)
        if cone.dimension == 0:
            return
        rng = np.random.default_rng(seed)
        n, n_e = len(points), cone.n_simplices(1)
        tri, up = cone.vertex_array(2), cone.face_table(2)
        code = (tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2]
        # the same triangles are apparent to both sources: at most one per
        # latest face, the key it arrives at
        arrive = {"table": np.full(n_e, complexes._NEVER),
                  "rips": np.full(n_e, complexes._NEVER)}
        for i in np.flatnonzero(rng.random(len(tri)) < 0.3):
            arrive["table"][up[i].max()] = (cone.filtration_values(2)[i], i)
            arrive["rips"][up[i].max()] = (cone.filtration_values(2)[i], code[i])
        apparent = np.isin(np.arange(len(tri)), arrive["table"]["c"])
        count = np.append(rng.integers(0, 3, n_e) * (rng.random(n_e) < 0.5), 0)
        with small_blocks(chunk):
            sources = {"table": complexes._FaceTable(cone, 1),
                       "rips": complexes._RipsTriangles(
                           build_rips(points, t, 1))}
            found, first = {}, {}
            for name, source in sources.items():
                chunks = list(source.cofacets(count, arrive[name]))
                keys = np.concatenate([k for k, _ in chunks] or [np.empty(0, complexes._KEY)])
                faces = np.concatenate([f for _, f in chunks] or [np.empty((0, 3), int)])
                first[name], rows = source.earliest(n_e)
                has = first[name]["c"] != complexes._NEVER["c"]
                assert not rows[~has].any()
                found[name] = (persistence._vertices(faces, cone.vertex_array(1)).tolist(),
                               keys["f"].tolist(), faces.tolist(), has.tolist(),
                               rows[has].tolist(), first[name]["f"][has].tolist())
        want = np.flatnonzero(~apparent & (count[up] > 0).any(axis=1))
        assert found["rips"] == found["table"]
        assert found["table"][:3] == (tri[want].tolist(), cone.filtration_values(2)[want].tolist(),
                                      up[want].tolist())
        # the earliest face rows are the face table's at the earliest keys
        has = found["table"][3]
        assert found["table"][4] == up[first["table"]["c"][has]].tolist()
        assert persistence._vertices(up, cone.vertex_array(1)).tolist() == tri.tolist()

    @DIFFERENTIAL
    @given(clouds())
    def test_earliest_keys_are_those_of_the_distance_argmin(self, cloud):
        # bitwise, whatever the window: on tied grid clouds the earliest
        # cofacet may have a later edge than j of the same filtration
        points, t = cloud
        dist = unchunked_distances(points)
        skeleton = build_rips(points, t, 1)
        if skeleton.dimension == 0:
            return
        want = reference_rips_earliest(skeleton, dist).tobytes()
        for chunk in (1, 7, 1 << 18):
            with small_blocks(chunk):
                keys, _ = complexes._RipsTriangles(skeleton).earliest(skeleton.n_simplices(1))
            assert keys.tobytes() == want

    def test_each_window_reads_the_count_as_it_is_then(self):
        # a stream whose counts fall to zero after its first window yields
        # nothing more
        pts, _ = sample_circle(12, 0.0, 2, seed=0)
        t = enclosing_radius(pts)
        cone = build_rips(pts, t, 2)
        n_e = cone.n_simplices(1)
        for source in (complexes._FaceTable(cone, 1),
                       complexes._RipsTriangles(build_rips(pts, t, 1))):
            count = np.append(np.ones(n_e, dtype=np.int64), 0)
            with small_blocks(7):
                windows = source.cofacets(count, np.full(n_e, complexes._NEVER))
                assert len(next(windows)[0])
                count[:] = 0
                assert list(windows) == []


class TestSkeletonPersistence:
    @DIFFERENTIAL
    @given(clouds(), st.sampled_from([3, 47, BIG_PRIME, HUGE_PRIME]),
           st.sampled_from([1, 7, 1 << 18]))
    def test_same_diagram_as_the_face_table(self, cloud, p, chunk):
        # small blocks cut the windows and the evaluated cofacets
        points, t = cloud
        cx = build_rips(points, t, 2)
        if cx.dimension == 0:
            return
        skeleton = build_rips(points, t, 1)
        with small_blocks(chunk):
            new = persistent_cohomology(skeleton, OddPrime(p), 1)
            old = persistent_cohomology(cx, OddPrime(p), 1)
        assert new.complex is skeleton and skeleton.dimension == 1
        assert_same_diagrams(new, old)
        if len(points) <= 12:
            assert_same_diagrams(new, reference_persistent_cohomology(cx, OddPrime(p), 1))

    @DIFFERENTIAL
    @given(clouds(), st.sampled_from([3, 47, HUGE_PRIME]))
    def test_waves_extend_as_the_levels_do(self, cloud, p):
        # the same inputs, captured from a fit in degrees 1 and 2, give
        # bitwise the same long cocycles
        points, t = cloud
        extend, calls = persistence._extend, []

        def recorded(E, *args):
            calls.append((E.copy(), *args))
            extend(E, *args)
            calls[-1] += (E.copy(),)

        with mock.patch.object(persistence, "_extend", recorded):
            persistent_cohomology(build_rips(points, t, 1), OddPrime(p), 1)
            cx = build_rips(points, t, 3)
            persistent_cohomology(cx, OddPrime(p), min(2, cx.dimension))
        for E, rows, sigma, signs, q, want in calls:
            reference_extend(E, rows, sigma, signs, q)
            assert E.dtype == want.dtype and E.tolist() == want.tolist()

    def test_long_birth_that_is_the_latest_face_of_a_tied_triangle(self):
        # a grid cloud where a long cocycle's birth edge is the latest face
        # of a later triangle of the same filtration: with three cofacets per
        # block that triangle is evaluated on the column born at its face
        points = np.array([[2, 2, 2], [2, 0, 2], [1, 2, 1], [2, 0, 0], [2, 1, 1],
                           [2, 1, 2], [1, 0, 0], [1, 0, 2]], dtype=float)
        t = 3 ** 0.5
        cx = build_rips(points, t, 2)
        with small_blocks(3):
            for source in (build_rips(points, t, 1), cx):
                assert_same_diagrams(persistent_cohomology(source, OddPrime(3), 1),
                                     reference_persistent_cohomology(cx, OddPrime(3), 1))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_circle_cone(self, seed):
        pts, _ = sample_circle(40, 0.0, 3, seed=seed)
        t = enclosing_radius(pts)
        for p in (47, BIG_PRIME, HUGE_PRIME):
            assert_same_diagrams(
                persistent_cohomology(build_rips(pts, t, 1), OddPrime(p), 1),
                persistent_cohomology(build_rips(pts, t, 2), OddPrime(p), 1))

    @pytest.mark.parametrize("n", [10, 36])
    @pytest.mark.parametrize("p", [3, 47])
    def test_deaths_inside_one_window_and_a_support_emptied_mid_window(self, n, p):
        # on a noise-free circle cone two long cocycles die within one window,
        # and the last death empties the live support with cofacets of its
        # window still unread
        pts, _ = sample_circle(n, 0.0, 2, seed=0)
        t = enclosing_radius(pts)
        windows, deaths = [], []
        stream, replay = complexes._RipsTriangles.cofacets, persistence._replay

        def recorded(source, count, arrive):
            for keys, faces in stream(source, count, arrive):
                windows.append((keys, count))
                yield keys, faces

        def spied(*args):
            deaths.append(replay(*args))
            return deaths[-1]

        with mock.patch.object(complexes._RipsTriangles, "cofacets", recorded), \
                mock.patch.object(persistence, "_replay", spied):
            new = persistent_cohomology(build_rips(pts, t, 1), OddPrime(p), 1)
        (keys, count), = windows
        at = np.flatnonzero(np.isin(keys, np.concatenate(deaths)))
        assert len(at) >= 2
        assert not count.any() and at[-1] < len(keys) - 1
        cx = build_rips(pts, t, 2)
        assert_same_diagrams(new, persistent_cohomology(cx, OddPrime(p), 1))
        if n <= 12:
            assert_same_diagrams(new, reference_persistent_cohomology(cx, OddPrime(p), 1))

    def test_restricted_skeleton_is_a_skeleton(self):
        # it shares the keys of all the skeleton's edges, but holds only
        # those within its scale
        pts, _ = sample_circle(30, 0.1, 2, seed=4)
        s = float(np.median(unchunked_distances(pts)))
        sub = build_rips(pts, "auto", 1).restrict(s)
        assert sub._skeleton and isinstance(sub.cofacet_source(1), complexes._RipsTriangles)
        assert_same_diagrams(persistent_cohomology(sub, OddPrime(47), 1),
                             persistent_cohomology(build_rips(pts, s, 2), OddPrime(47), 1))
        f_e = sub.filtration_values(1)
        for scale in (s, float(f_e[-1]), float(f_e[len(f_e) // 2])):
            assert_same_arrays(stored_sublevel(sub, scale), build_rips(pts, scale, 2))


class TestWorkingComplex:
    @settings(max_examples=60, deadline=None, database=None)
    @given(clouds())
    def test_complex_at_a_scale_is_the_sublevel_complex(self, cloud):
        points, t = cloud
        cone = build_rips(points, t, 2)
        skeleton = build_rips(points, t, 1)
        assert cone.restrict(t) is cone
        for s in sorted(set(cone.filtration_values(1).tolist())):
            cx, sub = build_rips(points, s, 2), cone.restrict(s)
            assert cx.dimension == sub.dimension
            for m in range(cx.dimension + 1):
                assert np.array_equal(cx.vertex_array(m), sub.vertex_array(m))
                assert cx.filtration_values(m).tobytes() == sub.filtration_values(m).tobytes()
                assert np.array_equal(cx.face_table(m), sub.face_table(m))
            # a skeleton grows the complex at s from its own edges
            assert_same_arrays(stored_sublevel(skeleton, s), cx)


def assert_same_fit(auto, full) -> None:
    assert auto.complex.dimension == 1 and auto.complex._skeleton
    assert auto.diagram.to_json_dict() == full.diagram.to_json_dict()
    assert auto.pair.representative_cycle.to_json_dict() == \
        full.pair.representative_cycle.to_json_dict()
    assert auto.scale == full.scale
    for a, b in ((auto.cocycle_lift, full.cocycle_lift), (auto.cycle_lift, full.cycle_lift)):
        assert (a.certificate, a.r) == (b.certificate, b.r)
        assert a.to_json_dict() == b.to_json_dict()
    wa, wb = auto.winding_report, full.winding_report
    assert (wa.winding_number, wa.division_trace) == (wb.winding_number, wb.division_trace)
    assert wa.to_json_dict() == wb.to_json_dict()
    assert auto.coords.values == full.coords.values
    assert auto.coordinate_array().tobytes() == full.coordinate_array().tobytes()


@pytest.mark.parametrize("points", [
    sample_circle(60, 0.0, 300, seed=7)[0],
    sample_circle(40, 0.1, 2, seed=3)[0],
    sample_circle(40, 0.15, 3, seed=9)[0],
], ids=["acceptance8", "noisy40a", "noisy40b"])
def test_auto_fit_equals_the_fit_on_the_full_complex(points):
    full = run_pipeline(complex=build_rips(points, "auto", 2), prime=47)
    assert_same_fit(run_pipeline(points=points, prime=47), full)


class TestMaxDimOneComplex:
    """A Rips complex built with max_dim 1 is a 1-skeleton: a fit on it
    streams its triangles and is bitwise the fit on the complex that
    stores them, and a read of its degree 2 is refused."""

    @staticmethod
    def fits(points, t) -> list:
        fits = []
        for max_dim in (1, 2):
            try:
                fits.append(run_pipeline(complex=build_rips(points, t, max_dim), prime=47))
            except CircliftError as err:
                fits.append((type(err), str(err)))
        return fits

    @pytest.mark.parametrize("t", [0.6, 0.9, 1.3])
    def test_noisy_circle(self, t):
        # as a graph, the complex at 0.6 had 253 essential degree-1 classes
        points = sample_circle(60, 0.05, 2, seed=1)[0]
        assert_same_fit(*self.fits(points, t))
        with pytest.raises(DimensionOutOfRange, match="build it with max_dim 2"):
            build_rips(points, t, 1).simplices(2)

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.one_of(clouds(), noisy_circles()))
    def test_clouds(self, cloud):
        skeleton_fit, full_fit = self.fits(*cloud)
        if isinstance(full_fit, tuple):
            assert skeleton_fit == full_fit
        else:
            assert_same_fit(skeleton_fit, full_fit)


def test_one_distance_pass_per_fit(monkeypatch):
    # the blocks are read once, at "auto" for the radius and the edges both
    calls = []
    original = complexes._distance_blocks

    def counted(pts, k):
        calls.append(len(pts))
        return original(pts, k)

    monkeypatch.setattr(complexes, "_distance_blocks", counted)
    points = sample_circle(30, 0.05, 2, seed=1)[0]
    for threshold, max_dim in (("auto", 1), ("auto", 2), (0.9, 1)):
        calls.clear()
        run_pipeline(points=points, prime=47, threshold=threshold, max_dim=max_dim)
        assert calls == [30]


def arrays_held(obj, seen: set) -> list:
    """Every numpy array reachable from ``obj`` through attributes, lists,
    tuples and dicts."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = getattr(obj, "__dict__", {}).values()
    return [arr for child in children for arr in arrays_held(child, seen)]


@pytest.mark.parametrize("max_dim", [1, 2])
@pytest.mark.parametrize("threshold", ["auto", 0.9])
def test_no_complex_of_a_fit_holds_a_square_array(threshold, max_dim):
    # distances are read once, to build the complex, and no complex keeps them
    points, _ = sample_circle(24, 0.05, 2, seed=2)
    result = run_pipeline(points=points, prime=47, threshold=threshold, max_dim=max_dim)
    complexes_held = (result.complex, result.working_complex, result.diagram.complex)
    assert all(isinstance(cx, FilteredComplex) for cx in complexes_held)
    shapes = [arr.shape for cx in complexes_held for arr in arrays_held(cx, set())]
    assert shapes and (24, 24) not in shapes


def test_refuses_a_skeleton_above_degree_one():
    pts, _ = sample_circle(12, 0.0, 2, seed=0)
    skeleton = build_rips(pts, 2.0, 1)
    with pytest.raises(ValueError, match="exceeds complex dimension"):
        persistent_cohomology(skeleton, OddPrime(47), 2)


def test_skeleton_refuses_what_reads_its_triangles():
    # a skeleton stores no triangles; read as none, every 1-cochain on it
    # would be a cocycle. The complex with its triangles refuses the same
    # indicator as not closed.
    pts, _ = sample_circle(30, 0.0, 2, seed=7)
    skeleton = run_pipeline(pts).complex
    full = build_rips(pts, "auto", 2)
    for cx, error, integer_error in ((skeleton, DimensionOutOfRange, DimensionOutOfRange),
                                     (full, NotClosed, NotACocycle)):
        with pytest.raises(error):
            lift_closed(Cochain(cx, 1, GF(47), {0: 1}))
        with pytest.raises(integer_error):
            harmonic_smooth(Cochain(cx, 1, ZZ, {0: 1}))
    alpha = Cochain(skeleton, 1, ZZ, {0: 1})
    half = skeleton.restrict(np.median(skeleton.filtration_values(1)))
    for refused in (lambda: apply_coboundary(alpha),
                    lambda: cocycle_index_system(alpha.reduce_mod(47)),
                    lambda: skeleton.coboundary_matrix(1),
                    lambda: half.face_table(2),
                    lambda: reduce_winding(alpha, Chain(skeleton, 1, ZZ, {}))):
        with pytest.raises(DimensionOutOfRange):
            refused()
    # every read of degree 2, on the skeleton and on a restriction of it
    for cx in (skeleton, half):
        for read in (lambda: cx.vertex_array(2), lambda: cx.simplices(2),
                     lambda: cx.n_simplices(2), lambda: cx.filtration_values(2),
                     lambda: cx.indices(2, [[0, 1, 2]]), lambda: cx.has_simplex((0, 1, 2)),
                     lambda: cx.simplex(2, 0), lambda: Cochain(cx, 2, GF(47), {})):
            with pytest.raises(DimensionOutOfRange):
                read()


def test_skeleton_json_refuses_instead_of_dropping_its_triangles(tmp_path):
    # reloaded from vertices and edges alone, a skeleton would be a graph
    # with many more degree-1 classes than the cone it stands for
    pts, _ = sample_circle(30, 0.0, 2, seed=7)
    skeleton = run_pipeline(pts).complex
    for cx in (skeleton, skeleton.restrict(np.median(skeleton.filtration_values(1)))):
        with pytest.raises(DimensionOutOfRange):
            cx.to_json_dict()
        with pytest.raises(DimensionOutOfRange):
            cx.write_json(tmp_path / "skeleton.json")
    full = build_rips(pts, "auto", 2)
    full.write_json(tmp_path / "full.json")
    assert_same_arrays(FilteredComplex.from_json_dict(json.loads(
        (tmp_path / "full.json").read_text())), full)

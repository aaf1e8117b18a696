"""The array Rips builder against the recursive dict-of-tuples oracle, the
dict constructor and the mask-loop clique oracle, its edge lengths and
enclosing radius, read from blocks of distances, against the full
difference tensor, and the refusal of non-finite input and of fit options
that mean nothing."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circlift import (CircularCoordinates, FilteredComplex, build_from_simplices, build_rips,
                      run_pipeline)
from circlift import complexes, pipeline
from circlift.cli import main
from circlift.errors import DimensionOutOfRange, EmptyInput
from circlift.experiments import sample_circle
from conftest import assert_same_arrays
from oracles import (reference_clique_rows, reference_complex_arrays, reference_distances,
                     reference_rips, unchunked_distances)

DIFFERENTIAL = settings(max_examples=200, deadline=None, database=None)


@st.composite
def clouds(draw):
    """Gaussian clouds, or points on a coarse grid (tied distances and
    repeated points), with a threshold of 0, one of the distances or inf."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        points = rng.standard_normal((n, d))
    else:
        points = rng.integers(0, 3, (n, d)).astype(float)
    distances = sorted(set(unchunked_distances(points).ravel().tolist()))
    threshold = draw(st.sampled_from([0.0, np.inf] + distances))
    return points, threshold, draw(st.integers(1, 4))


def assert_same_complex(cx: FilteredComplex, ref: FilteredComplex) -> None:
    assert cx.dimension == ref.dimension
    for m in range(cx.dimension + 1):
        assert np.array_equal(cx.vertex_array(m), ref.vertex_array(m))
        assert cx.filtration_values(m).tobytes() == ref.filtration_values(m).tobytes()
        assert np.array_equal(cx.face_table(m), ref.face_table(m))


def matrix_from_edges(cx: FilteredComplex) -> np.ndarray:
    """The distance matrix read back from a complex's edges, NaN on the
    pairs that are no edge; the diagonal is no pair and reads 0."""
    n = cx.n_vertices
    dist = np.full((n, n), np.nan)
    np.fill_diagonal(dist, 0.0)
    u, k = cx.vertex_array(1).T
    dist[u, k] = dist[k, u] = cx.filtration_values(1)
    return dist


class TestAgainstReference:
    @DIFFERENTIAL
    @given(clouds())
    def test_same_simplices_filtrations_and_faces(self, cloud):
        points, threshold, max_dim = cloud
        assert_same_complex(build_rips(points, threshold, max_dim),
                            reference_rips(points, threshold, max_dim))

    @DIFFERENTIAL
    @given(clouds(), st.sampled_from([1, 5 * 5, 1 << 15]), st.booleans(), st.booleans())
    def test_edges_read_from_blocks_are_the_matrix_edges(self, cloud, block, wide, huge):
        # build_rips reads its edges from blocks of distances; 12
        # coordinates are summed pairwise, and huge ones are rescaled
        points, threshold, max_dim = cloud
        points = np.tile(points, (1, 12)) if wide else points
        if huge:
            points, threshold = np.ldexp(points, 600), np.ldexp(threshold, 600)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexes, "_DISTANCE_BLOCK", block)
            cx = build_rips(points, threshold, max_dim)
        dist = reference_distances(points)
        assert_same_arrays(cx, reference_complex_arrays(
            *reference_clique_rows(dist, threshold, max_dim)))

    def test_empty_trailing_dimensions_are_dropped(self):
        points = np.arange(5.0)
        cx = build_rips(points, 0.0, 3)
        assert cx.dimension == 0
        assert_same_complex(cx, reference_rips(points, 0.0, 3))
        cx = build_rips(points, 1.0, 4)     # a path: edges, no triangles
        assert cx.dimension == 1
        assert_same_complex(cx, reference_rips(points, 1.0, 4))

    def test_one_row_per_chunk(self, monkeypatch):
        points = np.random.default_rng(2).integers(0, 3, (14, 2)).astype(float)
        want = build_rips(points, 2.0, 3)
        monkeypatch.setattr(complexes, "_CLIQUE_CHUNK", 1)
        assert_same_complex(build_rips(points, 2.0, 3), want)
        assert_same_complex(want, reference_rips(points, 2.0, 3))


@st.composite
def rips_inputs(draw):
    """Gaussian clouds, or evenly spaced circle points (tied distances),
    with a threshold at one of the distances, and max_dim 1, 2 or 3."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.standard_normal((n, draw(st.integers(1, 3))))
    else:
        angle = 2 * np.pi * np.arange(n) / n
        points = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    threshold = draw(st.sampled_from(sorted(set(unchunked_distances(points).ravel().tolist()))))
    return points, threshold, draw(st.sampled_from([1, 2, 3]))


class TestAgainstDictConstructor:
    """Triangles take two faces and their keys from the key ranks of the
    edges they grew from, and the third face from the edge index; the dict
    constructor finds all of them by key search."""

    @DIFFERENTIAL
    @given(rips_inputs(), st.data())
    def test_same_arrays_and_lookups(self, inputs, data):
        points, threshold, max_dim = inputs
        cx = build_rips(points, threshold, max_dim)
        ref = FilteredComplex({s: f for m in range(cx.dimension + 1)
                               for s, f in zip(cx.simplices(m),
                                               cx.filtration_values(m).tolist())})
        assert_same_complex(cx, ref)
        for m in range(cx.dimension + 1):
            assert cx._keys[m].tobytes() == ref._keys[m].tobytes()
            assert cx._lex[m].tobytes() == ref._lex[m].tobytes()
        n = cx.n_vertices
        for m in range(1, 4):
            rows = np.sort(np.array(data.draw(st.lists(
                st.lists(st.integers(0, n + 2), min_size=m + 1, max_size=m + 1, unique=True),
                max_size=12)), dtype=np.int64).reshape(-1, m + 1), axis=1)
            if max_dim == 1 and m >= 2:
                # a 1-skeleton implies its triangles: a read above degree 1
                # is refused, not answered as no simplex
                with pytest.raises(DimensionOutOfRange, match="build it with max_dim"):
                    cx.indices(m, rows)
                continue
            rows = np.concatenate([rows, cx.vertex_array(m)[:5]])
            assert np.array_equal(cx.indices(m, rows), ref.indices(m, rows))

    def test_missing_edge_is_named(self):
        cx = object.__new__(FilteredComplex)
        verts = [np.arange(3)[:, None], np.array([[0, 1], [0, 2]]), np.array([[0, 1, 2]])]
        with pytest.raises(ValueError, match=re.escape(
                "complex not closed under faces: (1, 2) missing")):
            cx._init_arrays(verts, [np.zeros(3), np.ones(2), np.ones(1)], rips=True)

    def test_early_triangle_is_named(self):
        cx = object.__new__(FilteredComplex)
        verts = [np.arange(3)[:, None], np.array([[0, 1], [0, 2], [1, 2]]),
                 np.array([[0, 1, 2]])]
        with pytest.raises(ValueError, match=re.escape(
                "filtration not monotone at (0, 1, 2) / (1, 2)")):
            cx._init_arrays(verts, [np.zeros(3), np.array([1.0, 1.0, 3.0]), np.full(1, 2.0)],
                            rips=True)


class TestOrderBeyond16Bits:
    """Triangles take their place from a stable sort of their latest faces'
    tie ranks, held in 16 bits below 65,536 edges; `rips_inputs` reaches
    only that width."""

    @pytest.mark.parametrize("n_edges", [65_535, 65_536, 70_000])
    def test_tie_ranks_sort_like_the_filtration(self, n_edges):
        rng = np.random.default_rng(n_edges)
        f_e = np.sort(rng.integers(0, 3000, n_edges) / 7.0)     # tied values
        latest = np.concatenate([rng.integers(0, n_edges, 100_000), [n_edges - 1, 0]])
        assert np.array_equal(complexes._order_by_faces(f_e, latest),
                              np.argsort(f_e[latest], kind="stable"))

    def test_complex_with_more_edges_than_16_bits_hold(self):
        # every point of A = 0..255 is within 1 of every point of B =
        # 256..511, and 50 pairs (a, a + 1) close 256 triangles each
        rng = np.random.default_rng(5)
        dist = np.full((512, 512), 2.0)
        np.fill_diagonal(dist, 0.0)
        dist[:256, 256:] = rng.integers(1, 9, (256, 256)) / 8.0
        a = np.arange(50)
        dist[a, a + 1] = rng.integers(1, 9, 50) / 8.0
        dist = np.minimum(dist, dist.T)
        # no point cloud has these distances: the edges go to the builder
        pairs = np.flatnonzero(np.triu(dist <= 1.0, 1))
        cx = complexes._rips_from_edges(512, pairs, dist.ravel()[pairs], 2)
        assert cx.n_simplices(1) == 65_586 and cx.n_simplices(2) == 50 * 256
        ref = FilteredComplex({s: f for m in range(3)
                               for s, f in zip(cx.simplices(m),
                                               cx.filtration_values(m).tolist())})
        assert_same_complex(cx, ref)
        for m in range(3):
            assert cx._keys[m].tobytes() == ref._keys[m].tobytes()
            assert cx._lex[m].tobytes() == ref._lex[m].tobytes()


class TestDistances:
    """Edge lengths and the enclosing radius read from blocks of distances
    against the full difference tensor: at threshold inf every pair is an
    edge, and at "auto" the complex is the one at the tensor's radius."""

    def test_chunked_equals_unchunked_bitwise(self, monkeypatch):
        points = np.random.default_rng(4).standard_normal((37, 5)) * 10
        want = unchunked_distances(points)
        for block in (complexes._DISTANCE_BLOCK, 7 * 7):
            monkeypatch.setattr(complexes, "_DISTANCE_BLOCK", block)
            assert matrix_from_edges(build_rips(points, np.inf, 1)).tobytes() == want.tobytes()
            assert_same_arrays(build_rips(points, "auto", 2),
                               build_rips(points, want.max(axis=1).min(), 2))

    def test_line_cloud(self):
        for threshold in (np.inf, "auto"):
            cx = build_rips([0.0, 3.0], threshold, 1)
            assert cx.simplices(1) == [(0, 1)] and cx.filtration_values(1).tolist() == [3.0]

    def test_memory_stays_bounded_in_high_dimension(self):
        # the difference tensor of 300 points in R^200 alone is 144 MB
        points, _ = sample_circle(300, 0.0, 200, seed=3)
        want = unchunked_distances(points)
        for threshold, max_dim in (("auto", 1), (0.1, 2)):
            tracemalloc.start()
            try:
                result = build_rips(points, threshold, max_dim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(arr.nbytes for name in ("_verts", "_filt", "_faces", "_keys", "_lex")
                       for arr in getattr(result, name))
            # the n x n matrix plus a few MB of blocks and adjacency, and
            # the complex returned
            assert peak < 8 * len(points) ** 2 + 4 * 2**20 + held
            assert result.n_simplices(1) > 0
        assert matrix_from_edges(build_rips(points, np.inf, 1)).tobytes() == want.tobytes()
        assert_same_arrays(build_rips(points, "auto", 1),
                           build_rips(points, want.max(axis=1).min(), 1))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_bitwise_at_every_dimension(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        for block in (complexes._DISTANCE_BLOCK, 5 * 5 * (d if d >= 8 else 1)):
            monkeypatch.setattr(complexes, "_DISTANCE_BLOCK", block)
            side = math.isqrt(block // (d if d >= 8 else 1))
            for n in (1, 2, side - 1, side, side + 1, 2 * side + 3):
                # magnitudes from 1e-6 to 1e6, and repeated points
                points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, (n, d))
                points[n // 2] = points[0]
                points[n - 1] = points[n // 3]
                want = unchunked_distances(points)
                cx = build_rips(points, np.inf, 1)
                assert matrix_from_edges(cx).tobytes() == want.tobytes()
                assert_same_arrays(build_rips(points, "auto", 1),
                                   build_rips(points, want.max(axis=1).min(), 1))

    def test_points_without_coordinates(self):
        for threshold in (0.0, "auto"):
            cx = build_rips(np.empty((3, 0)), threshold, 2)
            assert [cx.n_simplices(m) for m in range(3)] == [3, 3, 1]
            assert cx.filtration_values(1).tobytes() == np.zeros(3).tobytes()


@st.composite
def auto_clouds(draw):
    """Clouds of 1 to 16 points in 1 to 12 coordinates, on both sides of
    the 8 from which coordinates are summed pairwise: Gaussian, or on a
    coarse grid (tied distances and repeated points), scaled by 2^-600, 1
    or 2^600."""
    n, d = draw(st.integers(1, 16)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.standard_normal((n, d))
    else:
        points = rng.integers(0, 3, (n, d)).astype(float)
    return np.ldexp(points, draw(st.sampled_from([-600, 0, 600])))


class TestAutoThreshold:
    @DIFFERENTIAL
    @given(auto_clouds(), st.sampled_from([1, 5 * 5, 1 << 15]), st.sampled_from([1, 2, 3]))
    @example(np.zeros((1, 2)), 1, 2)
    @example(np.array([[0.0], [3.0]]), 5 * 5, 3)
    def test_auto_is_the_complex_at_the_enclosing_radius(self, points, block, max_dim):
        # the radius is read from the same blocks as the edges, whatever
        # their size; the oracle rescales huge and tiny clouds as the
        # library does
        radius = reference_distances(points).max(axis=1).min()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexes, "_DISTANCE_BLOCK", block)
            cx = build_rips(points, "auto", max_dim)
        assert_same_arrays(cx, build_rips(points, radius, max_dim))

    def test_empty_cloud_is_refused_by_the_builder(self):
        with pytest.raises(EmptyInput) as refused:
            run_pipeline(points=np.zeros((0, 2)))
        assert refused.value.operation == "complex.build_rips"


class TestAgainstMaskLoop:
    """Neighbour-list clique growth and the complex arrays built from its
    rows against the mask loop and arrays rebuilt from tuples."""

    @DIFFERENTIAL
    @given(rips_inputs(), st.booleans())
    def test_same_rows_faces_keys_and_ranks(self, inputs, one_per_chunk):
        points, threshold, max_dim = inputs
        with pytest.MonkeyPatch.context() as patch:
            if one_per_chunk:
                patch.setattr(complexes, "_CLIQUE_CHUNK", 1)
            cx = build_rips(points, threshold, max_dim)
        want = reference_complex_arrays(*reference_clique_rows(
            unchunked_distances(points), threshold, max_dim))
        assert cx.dimension == len(want) - 1
        for m, ref in enumerate(want):
            assert np.array_equal(cx.vertex_array(m), ref["verts"])
            assert cx.filtration_values(m).tobytes() == ref["filt"].tobytes()
            assert np.array_equal(cx.face_table(m), ref["faces"])
            assert cx._keys[m].tobytes() == ref["keys"].tobytes()
            assert cx._lex[m].tobytes() == ref["lex"].tobytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coordinates(self, bad):
        points = np.zeros((4, 2))
        points[2, 1] = bad
        with pytest.raises(ValueError, match="finite.*NaN or inf.*row 2"):
            build_rips(points, 1.0, 1)
        with pytest.raises(ValueError, match="finite.*NaN or inf.*row 2"):
            build_rips(points, "auto", 1)

    def test_threshold(self):
        points = np.arange(4.0)
        with pytest.raises(ValueError, match="threshold .*NaN, got nan"):
            build_rips(points, np.nan, 1)
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            build_rips(points, -1.0, 1)
        cx = build_rips(points, np.inf, 3)
        assert [cx.n_simplices(m) for m in range(4)] == [4, 6, 4, 1]

    @pytest.mark.parametrize("max_dim", [0, -1, 1.0, 2.5, "2", None])
    def test_max_dim_is_a_positive_integer(self, max_dim):
        with pytest.raises(ValueError, match="max_dim"):
            build_rips(np.arange(4.0), 1.0, max_dim)

    def test_max_dim_numpy_integer(self):
        assert build_rips(np.arange(4.0), 1.0, np.int64(2)).dimension == 1

    def test_points_of_more_than_two_axes(self):
        points = np.zeros((4, 2, 2))
        for fit in (lambda t: build_rips(points, t, 1), lambda t: build_rips(points, t, 3),
                    lambda t: run_pipeline(points=points, threshold=t),
                    lambda t: CircularCoordinates(threshold=t).fit(points)):
            for threshold in ("auto", 0.9):
                with pytest.raises(ValueError,
                                   match=r"^expected 2-D point array, got shape \(4, 2, 2\)$"):
                    fit(threshold)
        with pytest.raises(ValueError, match=r"got shape \(\)$"):
            build_rips(3.0, 1.0, 1)

    def test_pipeline_names_the_input(self):
        points, _ = sample_circle(20, 0.0, 2, seed=1)
        points[7, 0] = np.nan
        for threshold in ("auto", 0.9):
            with pytest.raises(ValueError, match="NaN or inf.*row 7"):
                run_pipeline(points=points, threshold=threshold)

    def test_cli_exits_1_with_a_diagnostic(self, tmp_path, capsys):
        points, _ = sample_circle(20, 0.0, 2, seed=1)
        path = tmp_path / "points.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in points]
        rows[3] = "nan," + rows[3].split(",")[1]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--input", str(path), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError"
        assert "NaN or inf" in err["message"] and "row 3" in err["message"]
        assert json.loads(capsys.readouterr().err.strip()) == err

    @pytest.mark.parametrize("build, named", [
        (lambda: FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1): np.nan}), (0, 1)),
        (lambda: build_from_simplices([((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), np.nan)]),
         (0, 2)),
        # the minimum over the two values would drop the NaN
        (lambda: build_from_simplices([((0, 1), np.nan), ((0, 1), 2.0)]), (0, 1)),
        (lambda: FilteredComplex.from_json_dict(json.loads(
            '{"simplices": [{"vertices": [0, 1], "filtration": NaN}]}')), (0, 1)),
    ], ids=["dict", "build", "merged", "json"])
    def test_nan_filtration_is_named(self, build, named):
        with pytest.raises(ValueError, match=re.escape(f"filtration is NaN at {named}")):
            build()

    def test_cli_refuses_a_nan_filtration(self, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"simplices": [
            {"vertices": [0, 1], "filtration": 1.0}, {"vertices": [1, 2], "filtration": 1.0},
            {"vertices": [0, 2], "filtration": math.nan}]}))
        out = tmp_path / "out"
        assert main(["run", "--input", str(path), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError" and "NaN at (0, 2)" in err["message"]


def no_distances(pts, k):
    raise AssertionError("distances computed before the options were checked")


class TestFitOptions:
    @pytest.mark.parametrize("option", [
        {"max_dim": 0}, {"max_dim": -1}, {"max_dim": 1.5}, {"max_dim": "2"},
        {"scale_policy": math.nan}, {"scale_policy": math.inf}, {"scale_policy": -math.inf},
        {"scale_policy": "max"},
        {"complex": FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1): 1.0})},
        {"class_strategy": "bogus"}, {"class_strategy": "index:x"},
        {"class_strategy": None}, {"snf_cap": "x"}, {"snf_cap": -5}, {"snf_cap": 1.5}])
    def test_pipeline_refuses_options_before_any_distance(self, option, monkeypatch):
        monkeypatch.setattr(complexes, "_distance_blocks", no_distances)
        points, _ = sample_circle(20, 0.0, 2, seed=1)
        for threshold in ("auto", 0.9):
            # the message names the option, and the caller's value
            with pytest.raises(ValueError, match=next(iter(option))) as refused:
                run_pipeline(points=points, threshold=threshold, **option)
            name, value = next(iter(option.items()))
            if name != "complex":
                assert str(refused.value).endswith(f"got {value!r}")

    @pytest.mark.parametrize("threshold", [None, "bogus", "AUTO"])
    def test_pipeline_refuses_a_threshold_before_any_distance(self, threshold, monkeypatch):
        monkeypatch.setattr(complexes, "_distance_blocks", no_distances)
        points, _ = sample_circle(20, 0.0, 2, seed=1)
        fits = [lambda: CircularCoordinates(threshold=threshold).fit(points)]
        fits += [lambda m=m: run_pipeline(points=points, threshold=threshold, max_dim=m)
                 for m in (1, 2)]
        for fit in fits:
            # the message names the option, and the caller's value
            with pytest.raises(ValueError, match="threshold") as refused:
                fit()
            assert str(refused.value).endswith(f"got {threshold!r}")

    @pytest.mark.parametrize("threshold", [0.1, 0, np.inf, "bogus", None])
    def test_pipeline_refuses_a_threshold_with_a_complex(self, threshold, monkeypatch):
        # a complex is fitted whole: a threshold would be dropped unread
        def no_persistence(*args, **kwargs):
            raise AssertionError("persistence ran before the options were checked")

        monkeypatch.setattr(pipeline, "persistent_cohomology", no_persistence)
        cx = FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1): 1.0})
        with pytest.raises(ValueError, match=re.escape(
                f"a threshold applies to points, not to a complex, got {threshold!r}")):
            run_pipeline(complex=cx, threshold=threshold)

    def test_max_dim_above_the_rips_dimension(self):
        # at 0.6 no three of these points are pairwise within the threshold:
        # degree 2 is empty, and the fit is the one at max_dim 1
        points, _ = sample_circle(20, 0.0, 2, seed=1)
        low, high = (run_pipeline(points=points, threshold=0.6, max_dim=m) for m in (1, 2))
        assert high.complex.dimension == 1
        assert high.diagram.to_json_dict() == low.diagram.to_json_dict()
        assert high.coordinate_array().tobytes() == low.coordinate_array().tobytes()


class TestDictConstructor:
    @pytest.mark.parametrize("bad", [(1, 0), (2, 2), (0, 3, 1)])
    def test_descending_vertices_are_named(self, bad):
        table = {(v,): 0.0 for v in range(4)}
        table.update({(0, 1): 1.0, bad: 1.0})
        with pytest.raises(ValueError, match=re.escape(
                f"vertices must be strictly ascending, got {bad}")):
            FilteredComplex(table)

    def test_ids_far_apart_are_ascending(self):
        # their difference does not fit in 64 bits
        lo, hi = -2**63 + 1, 2**63 - 1
        cx = FilteredComplex({(lo,): 0.0, (hi,): 0.0, (lo, hi): 1.0})
        assert cx.simplices(1) == [(lo, hi)]
        with pytest.raises(ValueError, match="strictly ascending"):
            FilteredComplex({(lo,): 0.0, (hi,): 0.0, (hi, lo): 1.0})

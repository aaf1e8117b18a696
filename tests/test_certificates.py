"""An independent certificate for every fit.

From the points and the selected scale, the Rips pairs and triangles are
rebuilt by brute force, and every claim of the fit is checked on them with
numpy and the standard library: the working complex's edges and stored
triangles, both lifts, the winding reduction, the smoothing and the
coordinates. The checker reads result fields and vertex arrays only and
calls no circlift algorithm, so a fault that the library's own checks
share cannot hide from it."""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from circlift import run_pipeline
from circlift.errors import CircliftError, DimensionOutOfRange
from circlift.smoothing import EDGE_TOL

# distances within this relative band of the scale may round either way
BAND = 1e-12


def dense(vec, pos: np.ndarray, size: int) -> np.ndarray:
    """The coefficients of a (co)chain, its support at the positions
    ``pos``: Python ints, so integer sums are exact, or floats over R."""
    if vec.ring.name == "R":
        out = np.zeros(size)
        out[pos] = vec.values
    else:
        out = np.zeros(size, dtype=object)
        out[pos] = [int(v) for v in vec.values.tolist()]
    return out


class RipsAtScale:
    """The Rips complex of ``points`` at ``scale``, rebuilt by brute force
    and checked against a fit's working complex ``cx``: its vertices, its
    edges and, when it stores them, its triangles. Degree-1 vectors are
    indexed by the edges of ``cx``."""

    def __init__(self, points: np.ndarray, cx, scale: float):
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        self.n = n = len(points)
        sure, near = scale * (1 - BAND), scale * (1 + BAND)
        assert cx.vertex_array(0)[:, 0].tolist() == list(range(n)), "vertices are not 0..n-1"
        self.edges = cx.vertex_array(1)
        a, b = self.edges.T
        assert (a < b).all() and (dist[a, b] <= near).all(), "an edge is longer than the scale"
        self.at = np.full((n, n), -1)
        self.at[a, b] = self.at[b, a] = np.arange(len(a))
        i, j = np.triu_indices(n, 1)
        assert (self.at[i, j] >= 0)[dist[i, j] < sure].all(), "a pair within the scale is missing"
        triangles = np.array(list(itertools.combinations(range(n), 3)))
        x, y, z = triangles.T
        diam = np.maximum(np.maximum(dist[x, y], dist[x, z]), dist[y, z])
        try:
            stored = cx.vertex_array(2)
        except DimensionOutOfRange:         # a skeleton implies its triangles
            stored = None
        if stored is None:
            self.triangles = triangles[diam < sure]
        else:
            code, found = triangles @ [n * n, n, 1], set((stored @ [n * n, n, 1]).tolist())
            assert found <= set(code[diam <= near].tolist()), "a stored triangle is too wide"
            assert set(code[diam < sure].tolist()) <= found, "a triangle in the scale is missing"
            self.triangles = stored
        x, y, z = self.triangles.T
        self.faces = [self.at[y, z], self.at[x, z], self.at[x, y]]
        assert all((f >= 0).all() for f in self.faces), "a triangle's edge is missing"

    def edge_vector(self, vec) -> np.ndarray:
        rows = vec.complex.vertex_array(1)[vec.index]
        pos = self.at[rows[:, 0], rows[:, 1]]
        assert (pos >= 0).all(), "support outside the working complex"
        return dense(vec, pos, len(self.edges))

    def vertex_vector(self, vec) -> np.ndarray:
        return dense(vec, vec.complex.vertex_array(0)[vec.index, 0], self.n)

    def coboundary0(self, values: np.ndarray) -> np.ndarray:
        """(delta f)(ab) = f(b) - f(a)."""
        return values[self.edges[:, 1]] - values[self.edges[:, 0]]

    def is_cocycle(self, values: np.ndarray) -> bool:
        """(delta alpha)(xyz) = alpha(yz) - alpha(xz) + alpha(xy) vanishes."""
        yz, xz, xy = self.faces
        return not (values[yz] - values[xz] + values[xy]).any()

    def is_cycle(self, values: np.ndarray) -> bool:
        total = [0] * self.n
        for (a, b), c in zip(self.edges.tolist(), values.tolist()):
            total[b] += c
            total[a] -= c
        return not any(total)


def check_fit(points: np.ndarray, result, p: int) -> None:
    """Every claim of a fit against the brute-force Rips complex at its
    scale."""
    rips = RipsAtScale(points, result.working_complex, result.scale)
    for report, closed in ((result.cocycle_lift, rips.is_cocycle),
                           (result.cycle_lift, rips.is_cycle)):
        for lift in (report.working_lift, report.exact_preimage):
            assert closed(rips.edge_vector(lift)), "a lift is not closed over Z"
        assert np.array_equal(rips.edge_vector(report.exact_preimage) % p,
                              rips.edge_vector(report.input)), "a preimage is not the input mod p"

    alpha = rips.edge_vector(result.cocycle_lift.working_lift)
    cycle = rips.edge_vector(result.cycle_lift.working_lift)
    winding = result.winding_report
    reduced = rips.edge_vector(winding.reduced_cocycle)
    witness = rips.vertex_vector(winding.coboundary_witness)
    assert not (alpha - int(winding.winding_number) * reduced
                - rips.coboundary0(witness)).any(), "alpha != w * reduced + delta(witness)"
    assert np.dot(alpha, cycle) == int(winding.pairing), "the pairing is not <alpha, cycle>"
    assert abs(np.dot(reduced, cycle)) == 1, "the reduced class does not pair to +-1"

    tilde = rips.edge_vector(result.smoothed.alpha_tilde)
    potential = rips.vertex_vector(result.smoothed.potential)
    gap = tilde - reduced.astype(float) - rips.coboundary0(potential)
    size = max(1.0, float(np.abs(reduced).max(initial=0)), float(np.abs(potential).max()))
    assert np.abs(gap).max(initial=0) <= 1e-9 * size, "alpha_tilde - reduced != delta(potential)"

    coords = result.coords.values
    assert sorted(coords) == list(range(rips.n)), "not one coordinate per vertex"
    theta = np.array([coords[v] for v in range(rips.n)])
    assert ((theta >= 0) & (theta < 1)).all(), "a coordinate is outside [0, 1)"
    off = np.mod(rips.coboundary0(theta) - tilde, 1.0)
    assert (np.minimum(off, 1.0 - off) <= EDGE_TOL).all(), "coordinates disagree with alpha_tilde"


@st.composite
def clouds(draw):
    """A noisy circle, two disjoint circles or a figure-eight in the plane,
    with "auto" or a fixed threshold, and the top degree of the fit."""
    shape = draw(st.sampled_from(["circle", "two circles", "figure-eight"]))
    max_dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(20, 80 if max_dim == 1 else 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = 2 * math.pi * np.arange(n) / n
    if shape == "circle":
        points = np.stack([np.cos(t), np.sin(t)], axis=1)
    elif shape == "two circles":
        points = np.stack([np.cos(2 * t) + 3.0 * (t >= math.pi), np.sin(2 * t)], axis=1)
    else:
        points = np.stack([np.cos(t), np.sin(2 * t) / 2], axis=1)
    points += draw(st.sampled_from([0.0, 0.02, 0.05])) * rng.standard_normal(points.shape)
    return points, draw(st.sampled_from(["auto", 0.6, 0.9, 1.5])), max_dim


@settings(max_examples=60, deadline=None, database=None)
@given(clouds(), st.sampled_from([3, 47, 2**61 - 1]))
def test_every_fit_passes_the_independent_checker(cloud, p):
    points, threshold, max_dim = cloud
    try:
        result = run_pipeline(points=points, prime=p, threshold=threshold, max_dim=max_dim)
    except CircliftError:       # a typed refusal claims nothing
        return
    check_fit(points, result, p)

"""The benchmark's workloads: seeded inputs, one operation each, and output
checks computed here rather than by the library (``python -O`` strips the
library's own ``assert`` statements).

The untraced path calls only names in ``circlift.__all__``, looked up on the
package at call time, so the traced run can wrap them and the same code can
measure a later commit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import circlift

# Names the operations and checks call; a commit without them cannot run the
# benchmark at all.
REQUIRED_NAMES = ("CircularCoordinates", "Chain", "Cochain", "GF", "build_rips",
                  "lift_closed", "reduce_winding", "harmonic_smooth", "circular_map")

SIZES = {
    "full": {
        "circle_auto": dict(count=100, ambient_dim=300),
        "trefoil_sparse": dict(count=600, threshold=0.6),
        "foreign_reps": dict(count=150, noise_sd=0.05, threshold=0.5),
    },
    "smoke": {
        "circle_auto": dict(count=16, ambient_dim=5),
        "trefoil_sparse": dict(count=90, threshold=1.0),
        "foreign_reps": dict(count=30, noise_sd=0.05, threshold=0.5),
    },
}


class CheckFailed(Exception):
    """An output of the library failed a check made by the benchmark."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- exact degree-1 algebra on the library's complexes -------------------------

class Degree1:
    """Edges and triangles of a complex as index arrays, for exact checks of
    1-cochains and 1-chains. Vectors are object arrays of Python ints, since
    integer coefficients may outgrow 64 bits."""

    def __init__(self, cx):
        vids = np.asarray(cx.vertex_ids, dtype=np.int64)
        self.vertex_ids = vids
        pos = np.full(int(vids.max()) + 1, -1, dtype=np.int64)
        pos[vids] = np.arange(vids.size)
        edges = np.asarray(cx.simplices(1), dtype=np.int64).reshape(-1, 2)
        self.tail, self.head = pos[edges[:, 0]], pos[edges[:, 1]]
        tris = np.asarray(cx.simplices(2), dtype=np.int64).reshape(-1, 3)
        n = int(vids.max()) + 1
        keys = edges[:, 0] * n + edges[:, 1]
        order = np.argsort(keys)

        def edge_index(a, b):
            return order[np.searchsorted(keys, a * n + b, sorter=order)]

        # (delta alpha)(abc) = alpha(bc) - alpha(ac) + alpha(ab)
        self.tri_edges = [edge_index(tris[:, 1], tris[:, 2]),
                          edge_index(tris[:, 0], tris[:, 2]),
                          edge_index(tris[:, 0], tris[:, 1])]
        self.n_vertices, self.n_edges = vids.size, edges.shape[0]

    def vector(self, c, size: int | None = None) -> np.ndarray:
        out = np.zeros(self.n_edges if size is None else size, dtype=object)
        for i, v in c.entries.items():
            out[i] = int(v)
        return out

    def coboundary0(self, f: np.ndarray) -> np.ndarray:
        """(delta f)(ab) = f(b) - f(a)."""
        return f[self.head] - f[self.tail]

    def is_cocycle(self, alpha: np.ndarray) -> bool:
        bc, ac, ab = self.tri_edges
        return not np.any(alpha[bc] - alpha[ac] + alpha[ab] != 0)

    def is_cycle(self, z: np.ndarray) -> bool:
        out = np.zeros(self.n_vertices, dtype=object)
        for e in np.nonzero(z != 0)[0]:
            out[self.head[e]] += z[e]
            out[self.tail[e]] -= z[e]
        return not np.any(out != 0)


def _reduces_to(lift, target, p: int) -> bool:
    mod = {i: int(v) % p for i, v in lift.entries.items()}
    want = {i: int(v) % p for i, v in target.entries.items()}
    return ({i: v for i, v in mod.items() if v} == {i: v for i, v in want.items() if v})


def check_lift(report, kind: str, p: int) -> None:
    """The working lift is closed over Z and its exact preimage reduces to
    the input mod p."""
    d1 = Degree1(report.working_lift.complex)
    vec = d1.vector(report.working_lift)
    closed = d1.is_cocycle(vec) if kind == "cocycle" else d1.is_cycle(vec)
    require(closed, f"{kind} lift is not closed over Z")
    require(_reduces_to(report.exact_preimage, report.input, p),
            f"{kind} preimage does not reduce to the input mod {p}")


def check_winding(alpha, cycle, report, primitive) -> None:
    """alpha = w * reduced + delta(witness) exactly, the reported pairing is
    <alpha, cycle>, and the reduced class pairs to +-1 with ``primitive``, a
    cycle that generates the homology the class sees."""
    d1 = Degree1(alpha.complex)
    w = int(report.winding_number)
    witness = d1.vector(report.coboundary_witness, size=d1.n_vertices)
    reduced = d1.vector(report.reduced_cocycle)
    identity = d1.vector(alpha) - w * reduced - d1.coboundary0(witness)
    require(not np.any(identity != 0), "alpha != w * reduced + delta(witness)")
    pairing = int(np.dot(d1.vector(alpha), d1.vector(cycle)))
    require(pairing == int(report.pairing),
            f"reported pairing {report.pairing} != <alpha, cycle> = {pairing}")
    generator = int(np.dot(reduced, primitive))
    require(abs(generator) == 1, f"reduced class pairs to {generator}, not +-1")


def circular_correlation(theta: np.ndarray, truth: np.ndarray) -> float:
    """1 - 2 * mean circular distance after the best reflection and offset;
    the optimum sits where some point aligns exactly or antipodally, so those
    offsets are scanned. The same score as ``circlift.circular_correlation``,
    computed here so that a change to the library cannot move its own guard."""
    best = 0.0
    for orient in (1.0, -1.0):
        diffs = np.mod(theta - orient * truth, 1.0)
        offsets = np.concatenate([diffs, diffs + 0.5])
        for chunk in np.array_split(offsets, max(1, offsets.size // 256)):
            gap = np.mod(diffs[None, :] - chunk[:, None], 1.0)
            dist = np.minimum(gap, 1.0 - gap).mean(axis=1)
            best = max(best, float(1.0 - 2.0 * dist.min()))
    return best


def coords_hash(theta: np.ndarray) -> str:
    rounded = np.round(np.asarray(theta, dtype=float) * 1e9).astype(np.int64)
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def _orthonormal_frame(rng, ambient_dim: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((ambient_dim, k)))
    return (q * np.sign(np.diag(r))).T


@dataclass
class Outcome:
    """What one operation produced, after it passed every check."""

    fingerprint: str
    circ_corr: float


# -- the two fits --------------------------------------------------------------

class Fit:
    """One ``CircularCoordinates.fit_transform`` per operation, on one seeded
    point cloud whose ground-truth angle is known."""

    prime = 47

    def __init__(self, points: np.ndarray, truth: np.ndarray, threshold, floor: float):
        self.points, self.truth = points, truth
        self.threshold, self.floor = threshold, floor

    def variant(self, i: int):
        return None

    def run(self, variant):
        est = circlift.CircularCoordinates(prime=self.prime, threshold=self.threshold)
        est.fit_transform(self.points)
        return est

    def check(self, variant, est) -> Outcome:
        res = est.result_
        check_lift(res.cocycle_lift, "cocycle", self.prime)
        check_lift(res.cycle_lift, "cycle", self.prime)
        rep = res.winding_report
        cycle = res.cycle_lift.working_lift
        check_winding(res.cocycle_lift.working_lift, cycle, rep,
                      Degree1(cycle.complex).vector(cycle))
        theta = np.asarray(est.coordinates_, dtype=float)
        require(theta.shape == self.truth.shape and bool(np.all((theta >= 0) & (theta < 1))),
                "coordinates are not one angle in [0, 1) per point")
        corr = circular_correlation(theta, self.truth)
        require(corr >= self.floor, f"circular correlation {corr:.4f} below {self.floor}")
        pair = est.pair_
        fp = (f"{res.cocycle_lift.certificate}/{res.cycle_lift.certificate} "
              f"r={res.cocycle_lift.r}/{res.cycle_lift.r} pairing={rep.pairing} "
              f"w={rep.winding_number} pair=({pair.birth!r},{pair.death!r}) "
              f"coords={coords_hash(theta)}")
        return Outcome(fp, corr)


def circle_auto(seed: int, count: int, ambient_dim: int) -> Fit:
    """Evenly spaced, noise-free circle points in R^ambient_dim at
    threshold="auto": the cone at the enclosing radius is the cubic wall."""
    rng = np.random.default_rng([seed, 1])
    truth = np.mod((np.arange(count) + rng.random()) / count, 1.0)
    frame = _orthonormal_frame(rng, ambient_dim, 2)
    plane = np.stack([np.cos(2 * np.pi * truth), np.sin(2 * np.pi * truth)], axis=1)
    return Fit(plane @ frame, truth, "auto", floor=0.99)


def trefoil_sparse(seed: int, count: int, threshold: float) -> Fit:
    """Trefoil-knot samples at a fixed small threshold: a wide, sparse
    complex whose class is essential, so restriction copies all of it."""
    rng = np.random.default_rng([seed, 2])
    truth = np.mod((np.arange(count) + rng.random()) / count, 1.0)
    t = 2 * np.pi * truth
    curve = np.stack([np.sin(t) + 2 * np.sin(2 * t), np.cos(t) - 2 * np.cos(2 * t),
                      -np.sin(3 * t)], axis=1)
    return Fit(curve @ _orthonormal_frame(rng, 3, 3), truth, threshold, floor=0.9)


# -- representatives with arbitrary F_p coefficients ----------------------------

@dataclass
class ForeignInput:
    cocycle: object
    cycle: object


class ForeignReps:
    """Lift -> reduce -> smooth -> map on a cocycle u*(6g + delta h) mod p and
    a cycle u'*z mod p, as external persistence software may emit them.

    g and z come from the ground-truth angles, not from persistence: g is the
    wrap-crossing indicator of each edge and z the loop of consecutive edges.
    Operation i draws its units u, u' and its 0-cochain h (|h| <= 2) from
    (seed, i), so every operation works on a new representative of 6 times
    the generator.
    """

    prime = 1009
    multiple = 6
    floor = 0.9

    def __init__(self, seed: int, count: int, noise_sd: float, threshold: float):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        truth = np.mod((np.arange(count) + rng.random()) / count, 1.0)
        points = np.stack([np.cos(2 * np.pi * truth), np.sin(2 * np.pi * truth)], axis=1)
        points = points + noise_sd * rng.standard_normal(points.shape)
        self.truth = truth
        self.cx = circlift.build_rips(points, threshold, 2)
        self.d1 = d1 = Degree1(self.cx)
        ang = truth[d1.vertex_ids]
        diff = ang[d1.head] - ang[d1.tail]
        self.g = (-np.round(diff)).astype(np.int64)
        self.z = self._loop(ang)
        require(d1.is_cocycle(self.g.astype(object)), "g is not a cocycle over Z")
        require(d1.is_cycle(self.z.astype(object)), "z is not a cycle over Z")
        pairing = int(self.g @ self.z)
        require(abs(pairing) == 1, f"<g, z> = {pairing}, not +-1")

    def _loop(self, ang: np.ndarray) -> np.ndarray:
        """Consecutive vertices in angle order, closed up, as a 1-chain."""
        d1 = self.d1
        index = {(int(a), int(b)): e for e, (a, b) in enumerate(zip(d1.tail, d1.head))}
        order = [int(v) for v in np.argsort(ang)]
        z = np.zeros(d1.n_edges, dtype=np.int64)
        for a, b in zip(order, order[1:] + order[:1]):
            if (a, b) in index:
                z[index[a, b]] += 1
            else:
                require((b, a) in index, "consecutive points are not joined by an edge")
                z[index[b, a]] -= 1
        return z

    def variant(self, i: int) -> ForeignInput:
        rng = np.random.default_rng([self.seed, 4, i])
        p = self.prime
        u, u2 = (int(x) for x in rng.integers(1, p, size=2))
        h = rng.integers(-2, 3, size=self.d1.n_vertices)
        coeffs = (u * (self.multiple * self.g + self.d1.coboundary0(h))) % p
        cycle = (u2 * self.z) % p
        field = circlift.GF(p)
        return ForeignInput(
            circlift.Cochain(self.cx, 1, field, {int(e): int(c) for e, c in enumerate(coeffs)}),
            circlift.Chain(self.cx, 1, field, {int(e): int(c) for e, c in enumerate(cycle)}))

    def run(self, v: ForeignInput):
        lift_a = circlift.lift_closed(v.cocycle, "cocycle")
        lift_z = circlift.lift_closed(v.cycle, "cycle")
        report = circlift.reduce_winding(lift_a.working_lift, lift_z.working_lift)
        coords = circlift.circular_map(circlift.harmonic_smooth(report.reduced_cocycle))
        return lift_a, lift_z, report, coords

    def check(self, v: ForeignInput, out) -> Outcome:
        lift_a, lift_z, report, coords = out
        check_lift(lift_a, "cocycle", self.prime)
        check_lift(lift_z, "cycle", self.prime)
        check_winding(lift_a.working_lift, lift_z.working_lift, report, self.z)
        keys = sorted(coords.values)
        require(keys == sorted(int(v) for v in self.d1.vertex_ids),
                "coordinates do not cover the vertices")
        theta = np.array([coords.values[k] for k in keys])
        corr = circular_correlation(theta, self.truth[keys])
        require(corr >= self.floor, f"circular correlation {corr:.4f} below {self.floor}")
        fp = (f"{lift_a.certificate}/{lift_z.certificate} r={lift_a.r}/{lift_z.r} "
              f"pairing={report.pairing} w={report.winding_number} "
              f"divisions={list(report.division_trace)} coords={coords_hash(theta)}")
        return Outcome(fp, corr)


WORKLOADS = {"circle_auto": circle_auto, "trefoil_sparse": trefoil_sparse,
             "foreign_reps": ForeignReps}


def make(name: str, seed: int, scale: str):
    return WORKLOADS[name](seed, **SIZES[scale][name])

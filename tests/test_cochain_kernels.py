"""The coefficient-array kernels of lifting and winding against the
per-entry loops over dicts they replaced (``oracles.reference_lift_closed``
and ``oracles.reference_reduce_winding``): identical reports, or the same
error, on random complexes up to dimension 3, on representatives of a
multiple of a circle's generator, and across the int64 / Python-int
boundary of `complexes.exact_dtype`."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlift import (Chain, Cochain, FilteredComplex, GF, ZZ, apply_boundary,
                      apply_coboundary, build_from_simplices, build_rips, lift_closed,
                      reduce_winding)
from circlift.errors import CircliftError
from circlift.fields import inv_mod
from circlift.lifting import (CERT_IN_RANGE, CERT_PER_FACE_RANGE, CERT_SNF_REPAIRED,
                              CERT_VERIFIED_ONLY)
from oracles import reference_lift_closed, reference_reduce_winding

DIFFERENTIAL = settings(max_examples=120, deadline=None, database=None)
SMALL_PRIMES = (3, 7, 47, 1009)
LARGE_PRIMES = (2_147_483_659, 1_099_511_627_791)


def same_outcome(new, ref, *args):
    """Both calls return equal reports with plain-int coefficients, or
    both raise the same error."""
    try:
        want = ref(*args)
    except (CircliftError, ValueError) as err:
        with pytest.raises(type(err)):
            new(*args)
        return None
    got = new(*args)
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()
    for vec in vars(got).values():
        if isinstance(vec, (Cochain, Chain)):
            assert all(type(v) is int for v in vec.entries.values())
    return got


@st.composite
def complexes(draw, n_max: int):
    """Complexes up to dimension 3 on at most n_max vertices."""
    n = draw(st.integers(2, n_max))
    density = draw(st.sampled_from([4, 7, 10]))
    table = {(i,): 0.0 for i in range(n)}
    for k in (2, 3, 4):
        for s in combinations(range(n), k):
            faces = [s[:i] + s[i + 1:] for i in range(k)]
            if all(f in table for f in faces) and draw(st.integers(0, 9)) < density:
                table[s] = max(table[f] for f in faces) + draw(st.integers(0, 1))
    return FilteredComplex(table)


def closed_input(cx, m: int, kind: str, p: int, rng, noisy: bool):
    """An F_p m-cocycle (a coboundary, or any cochain in the top degree) or
    m-cycle (a boundary, or any 0-chain); with ``noisy`` a random vector,
    which is usually not closed."""
    field = GF(p)

    def rand(cls, d):
        n = cx.n_simplices(d)
        keep = rng.random(n) < 0.7
        return cls(cx, d, field, {i: int(v) for i, v in
                                  enumerate(rng.integers(0, p, n)) if keep[i]})

    if kind == "cocycle":
        if noisy or m == cx.dimension:
            return rand(Cochain, m)
        return apply_coboundary(rand(Cochain, m - 1)) if m else Cochain(cx, 0, field, {})
    if noisy or m == 0:
        return rand(Chain, m)
    return apply_boundary(rand(Chain, m + 1)) if m < cx.dimension else Chain(cx, m, field, {})


class TestLift:
    @DIFFERENTIAL
    @given(complexes(8), st.sampled_from(SMALL_PRIMES), st.data())
    def test_random_complexes_small_primes(self, cx, p, data):
        self._check(cx, p, data)

    @DIFFERENTIAL
    @given(complexes(5), st.sampled_from(LARGE_PRIMES), st.data())
    def test_random_complexes_large_primes(self, cx, p, data):
        # at most 5 vertices: relations of at most k <= 4 terms on at most
        # n <= 10 simplices, so p - 1 > k^n and the scaling search succeeds
        # (the pigeonhole bound) before either side sweeps F_p
        self._check(cx, p, data)

    @staticmethod
    def _check(cx, p, data):
        m = data.draw(st.integers(0, cx.dimension), label="degree")
        kind = data.draw(st.sampled_from(["cocycle", "cycle"]), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        c = closed_input(cx, m, kind, p, rng, noisy=data.draw(st.booleans(), label="noisy"))
        same_outcome(lift_closed, reference_lift_closed, c, kind)

    def test_every_certificate(self, triangle_cocycle_f7, square_cycle_f7, hexagon):
        cyc = Chain.from_simplices(
            hexagon, 1, GF(7),
            {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (0, 5): 4})
        edges = {(4, 5): 1.0, (0, 2): 2.0, (0, 4): 3.0, (1, 5): 4.0, (2, 5): 5.0,
                 (3, 5): 5.0, (0, 1): 7.0, (0, 5): 7.0, (1, 4): 7.0, (3, 4): 7.0}
        tris = {(0, 1, 4): 7.0, (0, 1, 5): 9.0, (3, 4, 5): 9.0}
        cx = build_from_simplices(list(edges.items()) + list(tris.items()))
        repaired = Cochain.from_simplices(
            cx, 1, GF(5), {(4, 5): 2, (0, 2): 2, (0, 4): 4, (1, 5): 3, (2, 5): 4,
                           (3, 5): 2, (0, 1): 3, (0, 5): 1, (1, 4): 1})
        seen = [same_outcome(lift_closed, reference_lift_closed, c, kind).certificate
                for c, kind in ((triangle_cocycle_f7, "cocycle"), (cyc, "cycle"),
                                (square_cycle_f7, "cycle"), (repaired, "cocycle"))]
        assert seen == [CERT_IN_RANGE, CERT_PER_FACE_RANGE, CERT_VERIFIED_ONLY,
                        CERT_SNF_REPAIRED]


class CircleReps:
    """A noisy circle's Rips complex with its wrap-crossing generator g and
    the loop z through consecutive points, <g, z> = +-1."""

    def __init__(self, seed: int, count: int = 20, threshold: float = 0.75):
        rng = np.random.default_rng([seed, 3])
        angle = (np.arange(count) + rng.random()) / count % 1.0
        points = np.stack([np.cos(2 * np.pi * angle), np.sin(2 * np.pi * angle)], axis=1)
        self.cx = cx = build_rips(points + 0.03 * rng.standard_normal(points.shape),
                                  threshold, 2)
        tail, head = np.array(cx.simplices(1)).T
        self.g = (-np.round(angle[head] - angle[tail])).astype(np.int64)
        loop = {e: 0 for e in range(len(tail))}
        index = {(a, b): e for e, (a, b) in enumerate(zip(tail.tolist(), head.tolist()))}
        order = np.argsort(angle).tolist()
        for a, b in zip(order, order[1:] + order[:1]):
            if a < b:
                loop[index[a, b]] += 1
            else:
                loop[index[b, a]] -= 1
        self.z = np.array([loop[e] for e in range(len(tail))], dtype=np.int64)
        self.head, self.tail = head, tail

    def cocycle(self, multiple, h) -> np.ndarray:
        """multiple * g + delta(h), over Z (object entries)."""
        h = np.asarray(h, dtype=object)
        return multiple * self.g.astype(object) + h[self.head] - h[self.tail]


class TestWinding:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 5), st.sampled_from(SMALL_PRIMES + LARGE_PRIMES),
           st.sampled_from([1, 2, 6, 12, 30, 360]), st.integers(0, 2**32 - 1))
    def test_foreign_style_representatives(self, shape, p, multiple, seed):
        # u * (multiple * g + delta h) mod p and u' * z mod p, then lift both
        # and reduce. For the large primes u = r0^-1 and u' = r1 with small
        # r0 and r1: the scaling search ends early, and the pairing of the
        # lifts stays small enough to factor by trial division
        reps = CircleReps(shape)
        rng = np.random.default_rng(seed)
        if p in LARGE_PRIMES:
            r0, u2 = (int(r) for r in rng.integers(1, 40, size=2))
            u = inv_mod(r0, p)
        else:
            u, u2 = (int(x) for x in rng.integers(1, p, size=2))
        h = rng.integers(-2, 3, size=reps.cx.n_vertices).tolist()
        field = GF(p)
        alpha = Cochain(reps.cx, 1, field, dict(enumerate(
            (u * reps.cocycle(multiple, h) % p).tolist())))
        beta = Chain(reps.cx, 1, field, dict(enumerate((u2 * reps.z % p).tolist())))
        lifts = [same_outcome(lift_closed, reference_lift_closed, c, kind)
                 for c, kind in ((alpha, "cocycle"), (beta, "cycle"))]
        if None not in lifts:
            same_outcome(reduce_winding, reference_reduce_winding,
                         lifts[0].working_lift, lifts[1].working_lift)

    @pytest.mark.parametrize("multiple, shift", [(3 << 64, 0), (1 << 70, 1), (1 << 61, 60),
                                                 (-(6 << 62), 3)])
    def test_coefficients_beyond_int64(self, multiple, shift):
        # integer cocycles or witnesses above 2^62 take the Python-int path
        reps = CircleReps(1)
        rng = np.random.default_rng(5)
        h = [int(v) << shift for v in rng.integers(-2, 3, size=reps.cx.n_vertices)]
        alpha = Cochain(reps.cx, 1, ZZ, dict(enumerate(reps.cocycle(multiple, h).tolist())))
        beta = Chain(reps.cx, 1, ZZ, dict(enumerate(reps.z.tolist())))
        report = same_outcome(reduce_winding, reference_reduce_winding, alpha, beta)
        assert report.winding_number == abs(multiple)
        assert max(alpha.coefficient_bound(),
                   report.coboundary_witness.coefficient_bound()) >= 1 << 62

    def test_lift_scan_beyond_int64(self):
        # r * c_j reaches 2^80 at this prime: the scan computes in Python ints
        p = LARGE_PRIMES[1]
        reps = CircleReps(2)
        field = GF(p)
        h = np.random.default_rng(7).integers(-2, 3, size=reps.cx.n_vertices).tolist()
        alpha = Cochain(reps.cx, 1, field, dict(enumerate(
            (inv_mod(37, p) * reps.cocycle(1, h) % p).tolist())))
        report = same_outcome(lift_closed, reference_lift_closed, alpha, "cocycle")
        assert report.r > 1

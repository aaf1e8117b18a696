"""The (co)chain vector algebra against plain dict arithmetic written here:
round trips through the constructor, ``entries``, ``to_array``,
``from_array`` and JSON, and ``+``, ``-``, ``scale``, ``reduce_mod``,
``push_to``, ``kronecker_pairing``, ``==`` and ``is_zero``, over Z with
coefficients above 2^63, over F_p from 7 to 2^40 and over R. After every
operation the result's index is ascending, it stores no zero, and its
values are canonical in its ring."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlift import (Chain, Cochain, FilteredComplex, GF, RR, ZZ, kronecker_pairing)
from circlift.errors import EmptyInput

ALGEBRA = settings(max_examples=150, deadline=None, database=None)
RINGS = (ZZ, GF(7), GF(2_147_483_659), GF(1_099_511_627_791), RR)


def canon(ring, v):
    """The canonical representative of v in ``ring``."""
    if ring is RR:
        return float(v)
    if ring is ZZ:
        return int(v)
    return int(v) % ring.p


def reference(ring, entries) -> dict:
    """Canonical nonzero entries of a raw index -> value map."""
    out = {i: canon(ring, v) for i, v in entries.items()}
    return {i: v for i, v in out.items() if v != 0}


def assert_invariants(vec) -> None:
    index, values, ring = vec.index, vec.values, vec.ring
    assert index.dtype == np.int64 and index.shape == values.shape
    assert (np.diff(index) > 0).all()
    assert index.size == 0 or 0 <= index[0] <= index[-1] < vec.complex.n_simplices(vec.dim)
    plain = values.tolist()
    assert all(v != 0 for v in plain)
    assert all(v == canon(ring, v) for v in plain)
    scalar = float if ring is RR else int
    assert all(type(v) is scalar for v in vec.entries.values())
    assert dict(vec.entries) == dict(zip(index.tolist(), plain))


@st.composite
def complexes(draw):
    """Complexes up to dimension 2 on at most 6 vertices, filtrations 0..2."""
    n = draw(st.integers(1, 6))
    table = {(i,): float(draw(st.integers(0, 1))) for i in range(n)}
    for k in (2, 3):
        for s in combinations(range(n), k):
            faces = [s[:i] + s[i + 1:] for i in range(k)]
            if all(f in table for f in faces) and draw(st.booleans()):
                table[s] = max(table[f] for f in faces) + draw(st.integers(0, 1))
    return FilteredComplex(table)


def coefficients(ring):
    if ring is RR:
        return st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                         st.floats(-1e6, 1e6, allow_nan=False))
    return st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80))


def raw_entries(draw, ring, n: int) -> dict:
    keys = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
    return {i: draw(coefficients(ring)) for i in keys}


@st.composite
def cases(draw):
    cx = draw(complexes())
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(0, cx.dimension))
    n = cx.n_simplices(m)
    return cx, ring, m, raw_entries(draw, ring, n), raw_entries(draw, ring, n)


class TestAgainstDicts:
    @ALGEBRA
    @given(cases())
    def test_round_trips(self, case):
        cx, ring, m, a, _ = case
        want = reference(ring, a)
        for cls in (Cochain, Chain):
            vec = cls(cx, m, ring, a)
            assert_invariants(vec)
            assert dict(vec.entries) == want
            assert vec.support == sorted(want)
            assert vec.is_zero() == (not want)
            dense = vec.to_array()
            assert dense.tolist() == [want.get(i, 0) for i in range(cx.n_simplices(m))]
            for again in (cls.from_array(cx, m, ring, dense), cls(cx, m, ring, vec.entries),
                          cls.from_json_dict(cx, vec.to_json_dict())):
                assert_invariants(again)
                assert again == vec
            for i, s in enumerate(cx.simplices(m)):
                assert vec.coefficient(s) == want.get(i, ring.zero)

    @ALGEBRA
    @given(cases(), st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)))
    def test_arithmetic(self, case, c):
        cx, ring, m, a, b = case
        va, vb = Cochain(cx, m, ring, a), Cochain(cx, m, ring, b)
        ra, rb = reference(ring, a), reference(ring, b)
        keys = set(ra) | set(rb)
        results = {
            "add": (va + vb, {i: ra.get(i, 0) + rb.get(i, 0) for i in keys}),
            "sub": (va - vb, {i: ra.get(i, 0) - rb.get(i, 0) for i in keys}),
            "neg": (-va, {i: -v for i, v in ra.items()}),
            "scale": (va.scale(c), {i: canon(ring, c) * v for i, v in ra.items()}),
            "scale by 0": (va.scale(0), {}),
        }
        for name, (got, raw) in results.items():
            assert_invariants(got)
            assert dict(got.entries) == reference(ring, raw), name
            assert got.is_zero() == (not reference(ring, raw)), name
        assert (va == vb) == (ra == rb)
        assert (va - va).is_zero()

    @ALGEBRA
    @given(cases(), st.sampled_from([3, 7, 2_147_483_659]))
    def test_reduce_mod(self, case, p):
        cx, ring, m, a, _ = case
        if ring is RR:
            return
        got = Chain(cx, m, ring, a).reduce_mod(p)
        assert_invariants(got)
        assert got.ring == GF(p)
        assert dict(got.entries) == reference(GF(p), reference(ring, a))

    @ALGEBRA
    @given(cases(), st.integers(0, 3))
    def test_push_to(self, case, level):
        cx, ring, m, a, _ = case
        # a restriction, and the same simplices in lexicographic order
        targets = [FilteredComplex({s: float(k) for k in range(cx.dimension + 1)
                                    for s in cx.simplices(k)})]
        try:
            targets.append(cx.restrict(float(level)))
        except EmptyInput:
            pass
        vec = Cochain(cx, m, ring, a)
        simplices = cx.simplices(m)
        for other in targets:
            if m > other.dimension + 1:
                continue
            got = vec.push_to(other)
            assert_invariants(got)
            want = {other.index(simplices[i]): v for i, v in reference(ring, a).items()
                    if other.has_simplex(simplices[i])}
            assert got.complex is other and dict(got.entries) == want

    def test_operands_over_other_rings_or_types_are_refused(self):
        cx = FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1): 1.0})
        z, f7 = Cochain(cx, 1, ZZ, {0: -3}), Cochain(cx, 1, GF(7), {0: 4})
        for a, b in ((z, f7), (f7, z), (f7, Chain(cx, 1, GF(7), {0: 4})),
                     (Chain(cx, 1, GF(7), {0: 4}), f7)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
        for alpha, beta in ((z, Chain(cx, 1, GF(7), {0: 6})), (z, z),
                            (Chain(cx, 1, ZZ, {0: 6}), z)):
            with pytest.raises(TypeError):
                kronecker_pairing(alpha, beta)
        assert kronecker_pairing(z, Chain(cx, 1, ZZ, {0: 6})) == -18

    @ALGEBRA
    @given(cases())
    def test_kronecker_pairing(self, case):
        cx, ring, m, a, b = case
        ra, rb = reference(ring, a), reference(ring, b)
        got = kronecker_pairing(Cochain(cx, m, ring, a), Chain(cx, m, ring, b))
        want = canon(ring, sum(v * rb[i] for i, v in sorted(ra.items()) if i in rb))
        if ring is RR:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
        else:
            assert type(got) is int and got == want

"""Persistent cohomology over F_p with representative cocycles.

The pairing and the representatives are those of the cohomology reduction
of de Silva, Morozov and Vejdemo-Johansson ("Dualities in persistent
(co)homology", 2011) over the simplexwise order (filtration, dimension,
index): one live cocycle per unpaired simplex, and when a simplex evaluates
nonzero on some live cocycles one degree lower, the youngest of them dies
and the others absorb it. Only the simplices that change a cocycle are
visited one by one:

- Degree 0 is union-find over the edges in index order. An edge that joins
  two components kills the younger; every live 0-cocycle is the indicator
  of its component, so every other edge evaluates to zero. The pairs of
  degree 0 are built on the diagram's first read of that degree.
- In degree d >= 1 the births are the d-simplices that are not deaths of
  degree d-1. A birth and its earliest cofacet form an apparent pair (Bauer,
  "Ripser", 2021) when the birth is that cofacet's latest facet; its
  cocycle is the birth alone until the cofacet kills it.
- Every other birth carries a long cocycle. Waves from the births over the
  apparent simplices extend all of them at once, since a cocycle's
  coboundary vanishes on each apparent cofacet, and absorptions combine the
  extended vectors linearly. A long cocycle dies at the first non-apparent
  (d+1)-simplex on which it, or an older one, is nonzero.

The (d+1)-simplices are read through the complex's cofacet source
(`FilteredComplex.cofacet_source`) as keys and face rows, and a death is
named from its face row. The non-apparent ones come as one stream in key
order, read once per degree in cache-sized windows. A window keeps the
simplices with a face in the live supports, which a count per d-simplex
tracks: a death changes it only on the victim's support. Coboundaries are
evaluated a window at a time, in blocks of a fixed size, from where the
window stands: its start, or the simplex after a death.

Diagrams and representatives are exactly those of the per-simplex loop,
which the tests keep as their oracle. The dual 1-cycle of a class is a
fundamental cycle of the spanning forest at the representative scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable

import numpy as np

from .complexes import (Chain, Cochain, FilteredComplex, GF, _BLOCK, _FIRST, _KEY, _NEVER,
                        concat_ranges, exact_dtype, face_signs, forest_potential,
                        spanning_forest, write_json)
from .errors import DimensionOutOfRange, EmptyDiagram, NoDualCycle
from .fields import OddPrime, inv_mod


@dataclass
class PersistencePair:
    """One interval [birth, death) with its representative data.

    Only the cocycle valid anywhere below the death scale is stored;
    ``representative_cocycle`` is its restriction to the representative
    scale (a sublevel complex between birth and death), derived on first
    read.
    """

    dimension: int
    birth: float
    death: float
    scale: float
    cocycle_below_death: Cochain
    birth_simplex: tuple[int, ...]
    death_simplex: tuple[int, ...] | None
    representative_cycle: Chain | None = None

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    @cached_property
    def representative_cocycle(self) -> Cochain:
        return self.cocycle_at(self.scale)

    def cocycle_at(self, scale: float) -> Cochain:
        """Restriction of the representative to the sublevel complex at
        ``scale`` (entries on later simplices are dropped)."""
        full = self.cocycle_below_death
        k = int(full.index.searchsorted(_prefix_length(full.complex, self.dimension, scale)))
        if k == len(full.index):
            return full
        return Cochain._of(full.complex, self.dimension, full.ring,
                           full.index[:k], full.values[:k])

    def to_json_dict(self) -> dict:
        out = {
            "dimension": self.dimension,
            "birth": self.birth,
            "death": None if math.isinf(self.death) else self.death,
            "scale": self.scale,
            "representative_cocycle": self.representative_cocycle.to_json_dict(),
        }
        if self.representative_cycle is not None:
            out["representative_cycle"] = self.representative_cycle.to_json_dict()
        return out


@dataclass
class Diagram:
    """Persistence pairs grouped by dimension, most persistent first.

    ``_degree_zero``, when set, builds the degree-0 pairs: they are made on
    the first read of ``pairs_by_dim``, which `pairs` (in degree 0),
    `all_pairs`, JSON and CSV go through, since a fit reads only degree 1.
    """

    prime: int
    complex: FilteredComplex
    _by_dim: dict[int, list[PersistencePair]] = field(default_factory=dict, repr=False)
    _degree_zero: Callable[[], list[PersistencePair]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def pairs_by_dim(self) -> dict[int, list[PersistencePair]]:
        if self._degree_zero is not None:
            build, self._degree_zero = self._degree_zero, None
            self._by_dim = {0: build(), **self._by_dim}
        return self._by_dim

    def pairs(self, dim: int) -> list[PersistencePair]:
        return (self.pairs_by_dim if dim == 0 else self._by_dim).get(dim, [])

    def __getstate__(self) -> dict:
        self.pairs_by_dim       # a copy or pickle holds degree 0, not its builder
        return self.__dict__

    def all_pairs(self) -> list[PersistencePair]:
        return [p for d in sorted(self.pairs_by_dim) for p in self.pairs_by_dim[d]]

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "pairs": [p.to_json_dict() for p in self.all_pairs()],
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dimension", "birth", "death"])
            for p in self.all_pairs():
                writer.writerow([p.dimension, repr(p.birth),
                                 "inf" if math.isinf(p.death) else repr(p.death)])


def _prefix_length(cx: FilteredComplex, m: int, scale: float) -> int:
    """Number of m-simplices with filtration <= scale: they come first."""
    return int(cx.filtration_values(m).searchsorted(scale, side="right"))


# edges converted to Python ints at once by the union-find of degree 0
_UNION_CHUNK = 1 << 10


def _before(a, b) -> np.ndarray:
    """Whether key a comes before key b, elementwise."""
    return (a["f"] < b["f"]) | ((a["f"] == b["f"]) & (a["c"] < b["c"]))


def persistent_cohomology(cx: FilteredComplex, p: OddPrime, max_dim: int, *,
                          scale_policy: str | float = "midpoint") -> Diagram:
    """Persistence diagram over F_p with representative cocycles in
    dimensions 0..max_dim.

    ``scale_policy`` fixes where representatives are restricted. A finite
    float s is used for every pair with birth <= s < death, essential pairs
    included. Otherwise, and always under "midpoint" (the default), a finite
    interval uses (birth+death)/2 and an essential one the final scale of
    the complex.
    """
    fixed = parse_scale_policy(scale_policy)
    if max_dim > cx.dimension:
        raise ValueError(f"max_dim {max_dim} exceeds complex dimension {cx.dimension}")
    q = p.p
    # (degree, birth index, (death value, death simplex) or None, support,
    # canonical nonzero F_q values on it)
    finished: list[tuple[int, int, tuple | None, np.ndarray, np.ndarray]] = []
    merges, components = _components(cx)
    births = ~merges
    for d in range(1, max_dim + 1):
        deaths = _reduce(cx, d, births, q, finished)
        if d < max_dim:
            births = np.ones(cx.n_simplices(d + 1), dtype=bool)
            births[deaths["c"]] = False

    return Diagram(prime=q, complex=cx, _by_dim={
        d: _pairs(cx, d, [e for e in finished if e[0] == d], GF(q), fixed)
        for d in sorted({entry[0] for entry in finished})},
        _degree_zero=lambda: _pairs(cx, 0, components(), GF(q), fixed))


def parse_scale_policy(scale_policy: str | float) -> float | None:
    """None for "midpoint", else the finite scale ``scale_policy`` names."""
    if scale_policy == "midpoint":
        return None
    try:
        if math.isfinite(fixed := float(scale_policy)):
            return fixed
    except (TypeError, ValueError):
        pass
    raise ValueError(f'scale_policy must be "midpoint" or a finite number, got {scale_policy!r}')


def _pairs(cx: FilteredComplex, d: int, finished: list, ring, fixed: float | None) -> list:
    """The degree-d pairs of ``finished``, most persistent first: births,
    deaths and scales are computed as arrays, then each pair's cocycle is
    built once."""
    born, died, supports, values = zip(*(entry[1:] for entry in finished))
    f_d, born = cx.filtration_values(d), np.array(born)
    birth = f_d[born]
    death = np.array([math.inf if x is None else x[0] for x in died])
    scale = np.where(np.isinf(death), cx.max_filtration(), (birth + death) / 2.0)
    if fixed is not None:
        scale[(birth <= fixed) & (fixed < death)] = fixed
    simplices = cx.vertex_array(d)[born]
    order = np.lexsort([*simplices.T[::-1], birth, birth - death])
    return [PersistencePair(
        dimension=d, birth=b, death=x, scale=s,
        cocycle_below_death=Cochain._of(cx, d, ring, supports[j], values[j]),
        birth_simplex=tuple(simplex), death_simplex=None if died[j] is None else died[j][1])
        for j, b, x, s, simplex in zip(order.tolist(), birth[order].tolist(),
                                       death[order].tolist(), scale[order].tolist(),
                                       simplices[order].tolist())]


def _components(cx: FilteredComplex) -> tuple[np.ndarray, Callable[[], list]]:
    """Degree 0 by union-find over the edges in index order. Returns which
    edges join two components, the deaths of degree 0, and a function that
    builds the degree-0 entries of ``finished``.

    A component is named by its oldest vertex and its live 0-cocycle is its
    indicator, which vanishes on every edge inside a component. An edge
    that joins two components kills the younger one, whose indicator is the
    representative, and the older one absorbs it into the indicator of the
    union. Members are kept as linked lists, the older's first, so the
    members of every component that ever lived are a contiguous block of
    the final lists. The loop stops at the last merge, so the edges are
    read in chunks.
    """
    n, f_v, f_e = cx.n_vertices, cx.filtration_values(0), cx.filtration_values(1)
    root, size = list(range(n)), [1] * n
    after, last = [-1] * n, list(range(n))      # next member; last member

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    merges, absorbed, count, components = np.zeros(len(f_e), dtype=bool), [], [], n
    # column 0 of an edge's face row omits its first vertex a, so holds b
    faces = cx.face_table(1)
    edges = chain.from_iterable(zip(*faces[lo:lo + _UNION_CHUNK].T.tolist())
                                for lo in range(0, len(faces), _UNION_CHUNK))
    for j, (b, a) in enumerate(edges):
        if components == 1:
            break
        old, young = find(a), find(b)
        if old == young:
            continue
        if young < old:
            old, young = young, old
        merges[j], root[young], components = True, old, components - 1
        absorbed.append(young)
        count.append(size[young])
        after[last[old]], last[old] = young, last[young]
        size[old] += size[young]

    def entries() -> list:
        order, alive = [], [v for v in range(n) if root[v] == v]
        for v in alive:
            while v >= 0:
                order.append(v)
                v = after[v]
        deaths = np.flatnonzero(merges)
        shown = np.flatnonzero(f_e[deaths] > f_v[absorbed])
        died = list(zip(f_e[deaths[shown]].tolist(),
                        map(tuple, cx.vertex_array(1)[deaths[shown]].tolist())))
        named = np.concatenate([np.array(absorbed, dtype=np.int64)[shown], alive])
        sizes = np.concatenate([np.array(count, dtype=np.int64)[shown],
                                np.array(size)[alive]])
        # the members of a named component follow its name; sorting the keys
        # (block, member) sorts each block in place
        at = np.empty(n, dtype=np.int64)
        at[order] = np.arange(n)
        block = np.repeat(np.arange(len(named)), sizes)
        members = np.sort(block * n + np.array(order)[concat_ranges(at[named], sizes)]) \
            - block * n
        ends = np.cumsum(sizes).tolist()
        ones = np.ones(n, dtype=np.int64)
        return [(0, v, death, members[lo:hi], ones[:hi - lo]) for v, death, lo, hi in zip(
            named.tolist(), died + [None] * len(alive), [0] + ends, ends)]

    return merges, entries


def _vertices(faces: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Vertex rows of the simplices whose face rows are ``faces``, given the
    faces' vertex rows ``V``: face 1 omits vertex 1, so it starts with
    vertex 0, and face 0 holds the others."""
    return np.column_stack([V[faces[:, 1], 0], V[faces[:, 0]]])


def _reduce(cx: FilteredComplex, d: int, births: np.ndarray, q: int,
            finished: list) -> np.ndarray:
    """Degree d >= 1: pair the births (a mask over the d-simplices) with
    (d+1)-simplices, read through the complex's cofacet source. Returns the
    keys of the (d+1)-simplices that are deaths.

    A birth sigma whose earliest cofacet tau has sigma as its latest facet
    is an apparent pair: {sigma: 1} is untouched until tau, where sigma is
    the youngest live cocycle nonzero on tau.
    """
    source, f_d, n_d = cx.cofacet_source(d), cx.filtration_values(d), len(births)
    earliest, faces = source.earliest(n_d)
    sigma = np.flatnonzero(births & (earliest["c"] != _NEVER["c"])
                           & (faces.max(axis=1) == np.arange(n_d)))
    tau, tau_faces = earliest[sigma], faces[sigma]
    shown = tau["f"] > f_d[sigma]
    # an indicator {s: 1}: its support is a row of a column of the births
    one = np.ones(1, dtype=np.int64)
    finished.extend((d, s, (f, tuple(verts)), row, one) for s, f, verts, row in zip(
        sigma[shown].tolist(), tau["f"][shown].tolist(),
        _vertices(tau_faces[shown], cx.vertex_array(d)).tolist(), sigma[shown, None]))

    # when a simplex enters the long cocycles: apparent ones at their tau,
    # long births at once (_FIRST), the rest never (_NEVER)
    arrive = np.full(n_d, _NEVER)
    arrive[sigma] = tau
    long = np.flatnonzero(births & (arrive["c"] == _NEVER["c"]))
    # a birth with no cofacet keeps {b: 1} and never dies
    alone = earliest["c"][long] == _NEVER["c"]
    finished.extend((d, b, None, row, one) for b, row in zip(long[alone].tolist(),
                                                            long[alone, None]))
    long = long[~alone]
    arrive[long] = _FIRST
    if not long.size:
        return tau
    return np.concatenate([tau, _replay(cx, source, d, q, long, sigma, tau_faces, arrive,
                                        finished)])


def _replay(cx: FilteredComplex, source, d: int, q: int, long: np.ndarray,
            sigma: np.ndarray, tau_faces: np.ndarray, arrive: np.ndarray,
            finished: list) -> np.ndarray:
    """Run the long cocycles of degree d, one column of E each, born at the
    ``long`` simplices (ascending): extend them over the apparent simplices
    ``sigma``, whose taus have the face rows ``tau_faces``, then find their
    deaths among the other (d+1)-simplices, whose keys it returns.

    Between long deaths a live long cocycle equals its column of E
    restricted to the simplices that have arrived, and it is nonzero on a
    non-apparent (d+1)-simplex exactly when the coboundary of its column
    is. Absorptions are linear, so they combine columns; a dead column is
    zeroed. ``count`` holds, per d-simplex, the live columns nonzero on it,
    and the one stream of cofacets reads it window by window. A death
    changes E and ``count`` only on the victim's support, and evaluation
    resumes with the next simplex of the window.

    A column is zero below the simplex it was born at: extension and
    absorption only add later simplices. So a block is evaluated on the
    live columns born at or before its latest face.
    """
    signs, f_d, V = np.array(face_signs(d + 1)), cx.filtration_values(d), cx.vertex_array(d)
    # row n_d stays zero. Entries are below q: a sum over d+2 faces is
    # exact in E's dtype, and an absorption's products below q^2 in ``wide``
    E = np.zeros((len(arrive) + 1, len(long)), dtype=exact_dtype((d + 2) * q))
    wide = exact_dtype(q * q + q)
    E[long, np.arange(len(long))] = 1
    _extend(E, tau_faces, sigma, signs, q)
    count = (E != 0).sum(axis=1)

    live, deaths = np.ones(len(long), dtype=bool), []
    cap = max(1, _BLOCK // len(long))       # rows whose values fill one block
    for keys, faces in source.cofacets(count, arrive):
        lo = 0
        while lo < len(keys):
            rows = faces[lo:lo + cap]
            cols = np.flatnonzero(live[:np.searchsorted(long, rows.max(), side="right")])
            at = sum(int(s) * E.take(rows[:, i], axis=0)[:, cols]
                     for i, s in enumerate(signs)) % q
            hits = np.flatnonzero((at != 0).any(axis=1))
            if not hits.size:
                lo += len(rows)
                continue
            r = lo + int(hits[0])
            nonzero = np.flatnonzero(at[hits[0]])
            row, rho = at[hits[0], nonzero], keys[r]
            # the youngest dies; the older ones absorb it
            col, older = int(cols[nonzero[-1]]), cols[nonzero[:-1]]
            birth = int(long[col])
            support = np.flatnonzero(E[:-1, col])
            values = E[support, col]
            live[col] = False
            deaths.append(keys[r:r + 1])
            if rho["f"] > f_d[birth]:
                arrived = _before(arrive[support], rho)
                finished.append((d, birth, (float(rho["f"]), tuple(
                    _vertices(faces[r:r + 1], V)[0].tolist())),
                    support[arrived], values[arrived]))
            factors = row[:-1].astype(wide) * inv_mod(int(row[-1]), q) % q
            block = np.ix_(support, older)
            E[block] = (E[block] - values.astype(wide)[:, None] * factors) % q
            E[support, col] = 0
            count[support] = (E[support] != 0).sum(axis=1)
            if not live.any():
                return np.concatenate(deaths)
            lo = r + 1
    for col in np.flatnonzero(live).tolist():
        kept = np.flatnonzero((E[:-1, col] != 0) & (arrive["c"] != _NEVER["c"]))
        finished.append((d, int(long[col]), None, kept, E[kept, col]))
    return np.concatenate(deaths or [np.empty(0, dtype=_KEY)])


def _extend(E: np.ndarray, rows: np.ndarray, sigma: np.ndarray, signs: np.ndarray,
            q: int) -> None:
    """Set every column of E on each apparent sigma so that its coboundary
    vanishes on sigma's tau (face rows ``rows``): E(sigma) = -sign_sigma *
    the sum of sign_i E(face_i) over tau's other faces, which all come
    earlier in index order. Waves from the nonzero rows (the births): each
    wave recomputes the sigma that read a row the last wave changed, and
    the rows it changes make the next wave. The reads are acyclic, so the
    waves end, and a row that no birth reaches keeps its zero."""
    m = len(sigma)
    pos = rows.argmax(axis=1)
    rows = rows.copy()
    rows[np.arange(m), pos] = len(E) - 1      # sigma reads the zero row
    # the readers of each row: the sigma whose tau has it as another face
    on = rows.ravel()
    order = np.argsort(on)
    reader, start = order // rows.shape[1], np.searchsorted(on[order], np.arange(len(E) + 1))
    wave = np.flatnonzero(E.any(axis=1))      # the rows the last wave changed
    while wave.size:
        # each reader once, by a mask: np.unique's hash table grows the heap
        read = np.zeros(m, dtype=bool)
        read[reader[concat_ranges(start[wave], start[wave + 1] - start[wave])]] = True
        group = np.flatnonzero(read)
        total = sum(int(s) * E.take(rows[group, i], axis=0) for i, s in enumerate(signs))
        value = -signs[pos[group], None] * total % q
        moved = (value != E[sigma[group]]).any(axis=1)
        wave = sigma[group[moved]]
        E[wave] = value[moved]


def cycle_representative(cx: FilteredComplex, p: OddPrime,
                         pair: PersistencePair) -> Chain:
    """A 1-cycle at the pair's representative scale that pairs nonzero
    (mod p) with the pair's cocycle alpha.

    phi integrates alpha mod p along the spanning forest of the sublevel
    complex. The first edge e = (a, b), in index order, with alpha(e) !=
    phi(b) - phi(a) gives the cycle: e plus the tree path from b back to a,
    coefficients +-1, which pairs to alpha(e) - (phi(b) - phi(a)). With no
    such edge alpha is an F_p coboundary, and ``NoDualCycle`` is raised.

    ``cx`` is the complex the pair was computed on, or one with the same
    vertices and edges up to the pair's scale, such as the working complex
    at that scale; the cycle lives on ``cx``.
    """
    if pair.dimension != 1:
        raise DimensionOutOfRange(
            f"dual cycles are computed in degree 1 only, got degree {pair.dimension}",
            operation="persistence.cycle_representative")
    q, sub, own = p.p, cx.restrict(pair.scale), pair.representative_cocycle.complex
    if own is not cx and not all(
            np.array_equal(sub.vertex_array(m),
                           own.vertex_array(m)[:_prefix_length(own, m, pair.scale)])
            for m in (0, 1)):
        raise ValueError("pair was computed on a different complex")
    # at threshold="auto" alpha lives on the skeleton, which has more edges
    alpha = pair.representative_cocycle.to_array(exact_dtype(3 * q))[:sub.n_simplices(1)]
    phi = forest_potential(sub, alpha, q)
    # column 0 of an edge's face row omits its first vertex a, so holds b
    head, tail = sub.face_table(1).T
    wrong = np.flatnonzero((alpha - phi[head] + phi[tail]) % q)
    if not wrong.size:
        raise NoDualCycle("the cocycle is a coboundary mod p",
                          operation="persistence.cycle_representative")
    e = int(wrong[0])
    up = np.full((sub.n_vertices, 3), -1, dtype=np.int64)
    parent, child, edge, sign = spanning_forest(sub).steps
    up[child] = np.stack([parent, edge, sign], axis=1)
    up = up.tolist()
    cycle = {e: 1}
    # b up to its root, then down to a; edges above both cancel to zero
    for v, direction in ((int(head[e]), -1), (int(tail[e]), 1)):
        while up[v][0] >= 0:
            v, j, sign = up[v]
            cycle[j] = cycle.get(j, 0) + direction * sign
    return Chain(cx, 1, GF(q), cycle)


def select_class(diagram: Diagram, strategy: str = "max-persistence",
                 dim: int = 1) -> PersistencePair:
    """Pick a pair from the diagram: "max-persistence" or "index:k"."""
    k = parse_class_strategy(strategy)
    pairs = diagram.pairs(dim)
    if not pairs:
        raise EmptyDiagram(f"no intervals in dimension {dim}",
                           operation="persistence.select_class")
    if k is None:
        return pairs[0]
    if not 0 <= k < len(pairs):
        raise EmptyDiagram(f"index {k} out of range ({len(pairs)} pairs)",
                           operation="persistence.select_class")
    return pairs[k]


def parse_class_strategy(strategy: str) -> int | None:
    """None for "max-persistence", else the k of "index:k"; whether the
    diagram has a k-th pair is for `select_class` to say."""
    if strategy == "max-persistence":
        return None
    if isinstance(strategy, str) and strategy.startswith("index:"):
        try:
            return int(strategy.removeprefix("index:"))
        except ValueError:
            pass
    raise ValueError('class_strategy must be "max-persistence" or "index:k" for an '
                     f"integer k, got {strategy!r}")

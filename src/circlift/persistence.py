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
  of its component, so every other edge evaluates to zero.
- In degree d >= 1 the births are the d-simplices that are not deaths of
  degree d-1. A birth and its earliest cofacet form an apparent pair (Bauer,
  "Ripser", 2021) when the birth is that cofacet's latest facet; its
  cocycle is the birth alone until the cofacet kills it.
- Every other birth carries a long cocycle. One pass over the apparent
  simplices extends all of them at once, since a cocycle's coboundary
  vanishes on each apparent cofacet, and absorptions combine the extended
  vectors linearly. A long cocycle dies at the first non-apparent
  (d+1)-simplex on which it, or an older one, is nonzero, found by
  evaluating coboundaries in bounded chunks.

Diagrams and representatives are exactly those of the per-simplex loop,
which the tests keep as their oracle. The dual 1-cycle of a class is a
fundamental cycle of the spanning forest at the representative scale.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (Chain, Cochain, FilteredComplex, GF, face_signs,
                        forest_potential)
from .errors import DimensionOutOfRange, EmptyDiagram, NoDualCycle
from .fields import OddPrime, inv_mod


@dataclass
class PersistencePair:
    """One interval [birth, death) with its representative data.

    The representative cocycle is stored restricted to the representative
    scale (a sublevel complex between birth and death); the unrestricted
    cocycle, valid anywhere below the death scale, is kept alongside so the
    scale can be revisited.
    """

    dimension: int
    birth: float
    death: float
    scale: float
    representative_cocycle: Cochain
    cocycle_below_death: Cochain
    birth_simplex: tuple[int, ...]
    death_simplex: tuple[int, ...] | None
    representative_cycle: Chain | None = None

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    def cocycle_at(self, scale: float) -> Cochain:
        """Restriction of the representative to the sublevel complex at
        ``scale`` (entries on later simplices are dropped)."""
        full = self.cocycle_below_death
        n = _prefix_length(full.complex, self.dimension, scale)
        if max(full.entries, default=-1) < n:
            return full
        kept = {i: v for i, v in full.entries.items() if i < n}
        return Cochain(full.complex, self.dimension, full.ring, kept)

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
    """Persistence pairs grouped by dimension, most persistent first."""

    prime: int
    complex: FilteredComplex
    pairs_by_dim: dict[int, list[PersistencePair]] = field(default_factory=dict)

    def pairs(self, dim: int) -> list[PersistencePair]:
        return self.pairs_by_dim.get(dim, [])

    def all_pairs(self) -> list[PersistencePair]:
        return [p for d in sorted(self.pairs_by_dim) for p in self.pairs_by_dim[d]]

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "pairs": [p.to_json_dict() for p in self.all_pairs()],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dimension", "birth", "death"])
            for p in self.all_pairs():
                writer.writerow([p.dimension, repr(p.birth),
                                 "inf" if math.isinf(p.death) else repr(p.death)])


def _prefix_length(cx: FilteredComplex, m: int, scale: float) -> int:
    """Number of m-simplices with filtration <= scale: they come first."""
    return int(np.searchsorted(cx.filtration_values(m), scale, side="right"))


# cofacet values evaluated at once while searching for long deaths
_EVAL_CHUNK = 1 << 18


def persistent_cohomology(cx: FilteredComplex, p: OddPrime, max_dim: int, *,
                          scale_policy: str | float = "midpoint") -> Diagram:
    """Persistence diagram over F_p with representative cocycles in
    dimensions 0..max_dim.

    ``scale_policy`` fixes where representatives are restricted. A float s
    is used for every pair with birth <= s < death, essential pairs
    included. Otherwise, and always under "midpoint" (the default), a finite
    interval uses (birth+death)/2 and an essential one the final scale of
    the complex.
    """
    if max_dim > cx.dimension:
        raise ValueError(f"max_dim {max_dim} exceeds complex dimension {cx.dimension}")
    q = p.p
    # (degree, birth index, death index or None, representative entries)
    finished: list[tuple[int, int, int | None, dict[int, int]]] = []
    dead = _components(cx, finished)
    for d in range(1, max_dim + 1):
        dead = _reduce(cx, d, ~dead, q, finished)

    final_scale = cx.max_filtration()
    diagram = Diagram(prime=q, complex=cx)
    ring = GF(q)
    for d, bidx, didx, support in finished:
        birth = float(cx.filtration_values(d)[bidx])
        death = math.inf if didx is None else float(cx.filtration_values(d + 1)[didx])
        raw = Cochain(cx, d, ring, support)
        if scale_policy != "midpoint" and birth <= float(scale_policy) < death:
            scale = float(scale_policy)
        elif math.isinf(death):
            scale = final_scale
        else:
            scale = (birth + death) / 2.0
        pair = PersistencePair(
            dimension=d, birth=birth, death=death, scale=scale,
            representative_cocycle=raw, cocycle_below_death=raw,
            birth_simplex=cx.simplex(d, bidx),
            death_simplex=None if didx is None else cx.simplex(d + 1, didx))
        pair.representative_cocycle = pair.cocycle_at(scale)
        diagram.pairs_by_dim.setdefault(d, []).append(pair)

    for pairs in diagram.pairs_by_dim.values():
        pairs.sort(key=lambda pr: (-pr.persistence, pr.birth, pr.birth_simplex))
    return diagram


def _components(cx: FilteredComplex, finished: list) -> np.ndarray:
    """Degree 0 by union-find over the edges in index order. Returns which
    edges join two components: the deaths of degree 0.

    A component is named by its oldest vertex and its live 0-cocycle is its
    indicator, which vanishes on every edge inside a component. An edge
    that joins two components kills the younger one, whose indicator is the
    representative, and the older one absorbs it into the indicator of the
    union.
    """
    f_v, f_e = cx.filtration_values(0).tolist(), cx.filtration_values(1).tolist()
    root = list(range(cx.n_vertices))
    members = [[v] for v in root]

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    merges, components = np.zeros(len(f_e), dtype=bool), len(root)
    # column 0 of an edge's face row omits its first vertex a, so holds b
    for j, (b, a) in enumerate(cx.face_table(1).tolist()):
        if components == 1:
            break
        old, young = sorted((find(a), find(b)))
        if old == young:
            continue
        merges[j], root[young], components = True, old, components - 1
        if f_e[j] > f_v[young]:
            finished.append((0, young, j, dict.fromkeys(members[young], 1)))
        members[old] += members[young]
    finished.extend((0, v, None, dict.fromkeys(members[v], 1))
                    for v in range(len(root)) if root[v] == v)
    return merges


def _reduce(cx: FilteredComplex, d: int, births: np.ndarray, q: int,
            finished: list) -> np.ndarray:
    """Degree d >= 1: pair the births (a mask over the d-simplices) with
    (d+1)-simplices. Returns which (d+1)-simplices are deaths.

    A birth sigma whose earliest cofacet tau has sigma as its latest facet
    is an apparent pair: {sigma: 1} is untouched until tau, where sigma is
    the youngest live cocycle nonzero on tau.
    """
    up = cx.face_table(d + 1)
    n_d, n_up = len(births), len(up)
    f_d, f_up = cx.filtration_values(d), cx.filtration_values(d + 1)
    earliest = np.full(n_d, n_up)
    np.minimum.at(earliest, up.ravel(), np.repeat(np.arange(n_up), d + 2))
    sigma = np.flatnonzero(births & (earliest < n_up))
    tau = earliest[sigma]
    apparent = up[tau].max(axis=1) == sigma
    sigma, tau = sigma[apparent], tau[apparent]
    dead = np.zeros(n_up, dtype=bool)
    dead[tau] = True
    shown = f_up[tau] > f_d[sigma]
    finished.extend((d, s, t, {s: 1})
                    for s, t in zip(sigma[shown].tolist(), tau[shown].tolist()))

    # when a simplex enters the long cocycles: apparent ones at their tau,
    # long births at once (-1), the rest never (n_up)
    arrive = np.full(n_d, n_up)
    arrive[sigma] = tau
    long = np.flatnonzero(births & (arrive == n_up))
    # a birth with no cofacet keeps {b: 1} and never dies
    alone = earliest[long] == n_up
    finished.extend((d, b, None, {b: 1}) for b in long[alone].tolist())
    long = long[~alone]
    arrive[long] = -1
    if long.size:
        _replay(cx, d, q, long, sigma, tau, arrive, dead, finished)
    return dead


def _replay(cx: FilteredComplex, d: int, q: int, long: np.ndarray, sigma: np.ndarray,
            tau: np.ndarray, arrive: np.ndarray, dead: np.ndarray, finished: list) -> None:
    """Run the long cocycles of degree d, one column of E each, born at the
    ``long`` simplices (ascending): extend them over the apparent simplices,
    then find their deaths among the other (d+1)-simplices, marking those
    in ``dead``.

    Between long deaths a live long cocycle equals its column of E
    restricted to the simplices that have arrived, and it is nonzero on a
    non-apparent (d+1)-simplex exactly when the coboundary of its column
    is. Absorptions are linear, so they combine columns.
    """
    up, n_d = cx.face_table(d + 1), cx.n_simplices(d)
    f_d, f_up = cx.filtration_values(d), cx.filtration_values(d + 1)
    signs = np.array(face_signs(d + 1))
    # row n_d stays zero; int64 holds every q^2 below 2^62 exactly
    E = np.zeros((n_d + 1, len(long)), dtype=np.int64 if q < 1 << 31 else object)
    E[long, np.arange(len(long))] = 1
    _extend(E, up[tau], sigma, signs, q)

    live = np.ones(len(long), dtype=bool)
    todo = np.flatnonzero(~dead)
    step = max(1, _EVAL_CHUNK // len(long))
    for lo in range(0, len(todo), step):
        if not live.any():
            return
        cols = np.flatnonzero(live)
        values = E[:, cols]
        chunk = todo[lo:lo + step]
        # only simplices with a face in some live support can evaluate nonzero
        chunk = chunk[(values != 0).any(axis=1)[up[chunk]].any(axis=1)]
        faces = up[chunk]
        at = sum(int(s) * values[faces[:, i]] for i, s in enumerate(signs)) % q
        r = 0
        while (hits := np.flatnonzero((at[r:] != 0).any(axis=1))).size:
            r += int(hits[0])
            row = at[r].copy()
            nonzero = np.flatnonzero(row)
            # the youngest dies; the older ones absorb it
            victim, rho = nonzero[-1], int(chunk[r])
            col, birth = int(cols[victim]), int(long[cols[victim]])
            dead[rho], live[col] = True, False
            if f_up[rho] > f_d[birth]:
                finished.append((d, birth, rho, _entries(E, col, arrive < rho)))
            inv = inv_mod(int(row[victim]), q)
            for k in nonzero[:-1]:
                factor = int(row[k]) * inv % q
                E[:, cols[k]] = (E[:, cols[k]] - factor * E[:, col]) % q
                at[:, k] = (at[:, k] - factor * at[:, victim]) % q
            at[:, victim] = 0
    for col in np.flatnonzero(live).tolist():
        finished.append((d, int(long[col]), None, _entries(E, col, arrive < len(dead))))


def _extend(E: np.ndarray, rows: np.ndarray, sigma: np.ndarray, signs: np.ndarray,
            q: int) -> None:
    """Set every column of E on each apparent sigma so that its coboundary
    vanishes on sigma's tau (face rows ``rows``): E(sigma) = -sign_sigma *
    the sum of sign_i E(face_i) over tau's other faces, which all come
    earlier in index order. Rows go level by level: a simplex's level is
    one more than the deepest level among those faces."""
    if not sigma.size:
        return
    pos = rows.argmax(axis=1)
    rows = rows.copy()
    rows[np.arange(len(rows)), pos] = len(E) - 1      # sigma reads the zero row
    level = [0] * len(E)
    for s, faces in zip(sigma.tolist(), rows.tolist()):
        level[s] = 1 + max([level[f] for f in faces])
    depth = np.array(level)[sigma]
    order = np.argsort(depth, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(depth[order])) + 1):
        total = sum(int(s) * E[rows[group, i]] for i, s in enumerate(signs))
        E[sigma[group]] = -signs[pos[group], None] * total % q


def _entries(E: np.ndarray, col: int, arrived: np.ndarray) -> dict[int, int]:
    """Column ``col`` of E on the simplices in ``arrived``, as a support map."""
    kept = np.flatnonzero((E[:-1, col] != 0) & arrived)
    return dict(zip(kept.tolist(), E[kept, col].tolist()))


def cycle_representative(cx: FilteredComplex, p: OddPrime,
                         pair: PersistencePair) -> Chain:
    """A 1-cycle at the pair's representative scale that pairs nonzero
    (mod p) with the pair's cocycle alpha.

    phi integrates alpha mod p along the spanning forest of the sublevel
    complex. The first edge e = (a, b), in index order, with alpha(e) !=
    phi(b) - phi(a) gives the cycle: e plus the tree path from b back to a,
    coefficients +-1, which pairs to alpha(e) - (phi(b) - phi(a)). With no
    such edge alpha is an F_p coboundary, and ``NoDualCycle`` is raised.
    """
    if pair.representative_cocycle.complex is not cx:
        raise ValueError("pair was computed on a different complex")
    if pair.dimension != 1:
        raise DimensionOutOfRange(
            f"dual cycles are computed in degree 1 only, got degree {pair.dimension}",
            operation="persistence.cycle_representative")
    q, sub = p.p, cx.restrict(pair.scale)
    alpha = pair.representative_cocycle.to_array()
    tree, phi = forest_potential(sub, alpha, q)
    # column 0 of an edge's face row omits its first vertex a, so holds b
    for e, (b, a) in enumerate(sub.face_table(1).tolist()):
        if (alpha[e] - phi[b] + phi[a]) % q:
            break
    else:
        raise NoDualCycle("the cocycle is a coboundary mod p",
                          operation="persistence.cycle_representative")
    up = {child: (parent, j, sign) for parent, child, j, sign in tree}
    cycle = {e: 1}
    # b up to its root, then down to a; edges above both cancel to zero
    for v, direction in ((b, -1), (a, 1)):
        while v in up:
            v, j, sign = up[v]
            cycle[j] = cycle.get(j, 0) + direction * sign
    return Chain(cx, 1, GF(q), cycle)


def select_class(diagram: Diagram, strategy: str = "max-persistence",
                 dim: int = 1) -> PersistencePair:
    """Pick a pair from the diagram: "max-persistence" or "index:k"."""
    pairs = diagram.pairs(dim)
    if not pairs:
        raise EmptyDiagram(f"no intervals in dimension {dim}",
                           operation="persistence.select_class")
    if strategy == "max-persistence":
        return pairs[0]
    if strategy.startswith("index:"):
        k = int(strategy.split(":", 1)[1])
        if not 0 <= k < len(pairs):
            raise EmptyDiagram(f"index {k} out of range ({len(pairs)} pairs)",
                               operation="persistence.select_class")
        return pairs[k]
    raise ValueError(f"unknown selection strategy {strategy!r}")

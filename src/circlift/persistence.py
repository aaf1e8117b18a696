"""Persistent cohomology over F_p with representative cocycles.

The reduction maintains one live cocycle per unpaired simplex and processes
simplices in filtration order (faces before cofaces). When a new simplex
evaluates nonzero against some live cocycles of one degree lower, the
youngest of them dies and absorbs the others; its value just before death is
the representative for the finite interval. Cocycles still alive at the end
give the essential intervals. The dual 1-cycle of a class is a fundamental
cycle of the spanning forest at the representative scale.
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
        cx = self.cocycle_below_death.complex
        n = _prefix_length(cx, self.dimension, scale)
        kept = {i: v for i, v in self.cocycle_below_death.entries.items() if i < n}
        return Cochain(cx, self.dimension, self.cocycle_below_death.ring, kept)

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


def _simplex_stream(cx: FilteredComplex, top_dim: int):
    """(filtration, dimension, index) of all simplices of dimension <=
    top_dim in (filtration, dim, lex) order, which puts faces before
    cofaces; each dimension is in (filtration, lex) order already."""
    dims = range(min(top_dim, cx.dimension) + 1)
    filt = np.concatenate([cx.filtration_values(m) for m in dims])
    dim = np.concatenate([np.full(cx.n_simplices(m), m) for m in dims])
    idx = np.concatenate([np.arange(cx.n_simplices(m)) for m in dims])
    order = np.lexsort((dim, filt))
    return zip(filt[order].tolist(), dim[order].tolist(), idx[order].tolist())


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

    faces = [cx.face_table(d) for d in range(max_dim + 2)]
    signs = [face_signs(d) for d in range(max_dim + 2)]
    # a cocycle's id is the stream position of its birth simplex
    live: dict[int, dict[int, int]] = {}          # cocycle id -> support map
    born: dict[int, tuple[float, int, int]] = {}  # filtration, dimension, index
    by_simplex: dict[tuple[int, int], set[int]] = {}   # (dim, idx) -> cocycle ids
    finished: list[tuple] = []

    def attach(cid: int, d: int, idx: int) -> None:
        by_simplex.setdefault((d, idx), set()).add(cid)

    def detach(cid: int, d: int, idx: int) -> None:
        group = by_simplex.get((d, idx))
        if group is not None:
            group.discard(cid)
            if not group:
                del by_simplex[(d, idx)]

    for order, (f, d, idx) in enumerate(_simplex_stream(cx, max_dim + 1)):
        if d > 0:
            values: dict[int, int] = {}
            for fidx, sign in zip(faces[d][idx].tolist(), signs[d]):
                for cid in by_simplex.get((d - 1, fidx), ()):
                    values[cid] = (values.get(cid, 0) + sign * live[cid][fidx]) % q
            values = {cid: v for cid, v in values.items() if v}
            if values:
                # youngest nonzero evaluation dies; the rest absorb it
                victim = max(values)
                vb_filt, _, vb_idx = born[victim]
                support = live[victim]
                if f > vb_filt:
                    finished.append((d - 1, vb_filt, f, dict(support), vb_idx, idx))
                inv = inv_mod(values[victim], q)
                for cid, v in values.items():
                    if cid == victim:
                        continue
                    factor = (v * inv) % q
                    target = live[cid]
                    for fidx, w in support.items():
                        nv = (target.get(fidx, 0) - factor * w) % q
                        if nv:
                            if fidx not in target:
                                attach(cid, d - 1, fidx)
                            target[fidx] = nv
                        elif fidx in target:
                            del target[fidx]
                            detach(cid, d - 1, fidx)
                for fidx in support:
                    detach(victim, d - 1, fidx)
                del live[victim], born[victim]
                continue
        if d <= max_dim:
            live[order], born[order] = {idx: 1}, (f, d, idx)
            attach(order, d, idx)

    for cid, support in live.items():
        f, d, idx = born[cid]
        finished.append((d, f, math.inf, dict(support), idx, None))

    final_scale = cx.max_filtration()
    diagram = Diagram(prime=q, complex=cx)
    ring = GF(q)
    for d, birth, death, support, bidx, didx in finished:
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

"""Reference implementations the tests compare the library against.

They derive every face again from the vertex tuple (``faces_with_signs``)
and find it through a dict, the way the library did before it kept one
face table per complex, and they reduce the full boundary matrix for the
barcode. Slow, plain Python, and independent of the face table.
``reference_rips`` is the recursive clique expansion into a dict of tuples
that ``build_rips`` replaced, ``reference_cycle_representative`` the
boundary-matrix reduction with recorded column combinations that the
spanning-forest dual cycle replaced, and ``reference_persistent_cohomology``
the per-simplex cohomology reduction that visits every simplex, which
union-find, apparent pairs and the long-cocycle replay replaced;
``reference_extend`` is the level-by-level extension of the long cocycles
over the apparent simplices that waves from the births replaced.
``reference_lift_closed`` and ``reference_reduce_winding`` are the
per-entry loops over dicts (relation checks and bounds, scaling search,
verify-every-scalar sweep, forest division and witness accumulation) that
the coefficient-array kernels of ``lifting`` and ``winding`` replaced.
``reference_spanning_forest`` and ``reference_forest_potential`` are the
first-in first-out search over adjacency lists and the per-edge
integration that the level-by-level array forest replaced.
``unchunked_distances`` is the full difference tensor that the blocked
distances replaced, ``reference_distances`` the same for a cloud of any
magnitude and ``enclosing_radius`` the radius read from it,
``reference_clique_rows`` the mask loop that
neighbour-list clique growth replaced, ``reference_rips_earliest`` the float
argmin over distance-matrix rows that the edge-index scan of a Rips
skeleton's earliest cofacets replaced, and ``reference_complex_arrays``
rebuilds a complex's sorted rows, face table, keys and key ranks from
tuples and dicts. ``reference_is_prime`` and ``reference_candidate_primes``
are the trial divisions that Miller-Rabin and Pollard-Brent replaced.
``boundary_faces`` is no oracle but a helper that reads the faces of one
simplex from a complex's face table.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from circlift.complexes import (_NEVER, Chain, Cochain, FilteredComplex, GF, Simplex, ZZ,
                                concat_ranges, face_signs)
from circlift.errors import (EmptyInput, NoDualCycle, NotACocycle, NotClosed, ValidationFailed,
                             ZeroPairing)
from circlift.fields import FpElement, OddPrime, abs_mod, inv_mod, lift_mod
from circlift.lifting import (CERT_IN_RANGE, CERT_PER_FACE_RANGE, CERT_SNF_REPAIRED,
                              CERT_VERIFIED_ONLY, LiftReport, snf_repair)
from circlift.persistence import Diagram, PersistencePair, _prefix_length
from circlift.snf import smith_normal_form
from circlift.winding import ROUTE_MOD_P, WindingReport


def faces_with_signs(s: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The i-th face omits vertex i and carries sign (-1)^i."""
    return [(s[:i] + s[i + 1:], -1 if i % 2 else 1) for i in range(len(s))]


class ReferenceComplex:
    """Simplices sorted by (filtration, lex) per dimension, with dict
    indices; the constructor checks closure and monotonicity face by face."""

    def __init__(self, table: dict[tuple[int, ...], float]):
        by_dim: dict[int, list[tuple[float, tuple[int, ...]]]] = {}
        for s, f in table.items():
            by_dim.setdefault(len(s) - 1, []).append((float(f), tuple(s)))
        self.dimension = max(by_dim)
        self.simplices: list[list[tuple[int, ...]]] = []
        self.filtration: list[list[float]] = []
        self.index: list[dict[tuple[int, ...], int]] = []
        for m in range(self.dimension + 1):
            entries = sorted(by_dim.get(m, []))
            self.simplices.append([s for _, s in entries])
            self.filtration.append([f for f, _ in entries])
            self.index.append({s: i for i, (_, s) in enumerate(entries)})
        for m in range(1, self.dimension + 1):
            for s, fs in zip(self.simplices[m], self.filtration[m]):
                for face, _ in faces_with_signs(s):
                    if face not in self.index[m - 1]:
                        raise ValueError(f"complex not closed under faces: {face} missing")
                    if self.filtration[m - 1][self.index[m - 1][face]] > fs + 1e-12:
                        raise ValueError(f"filtration not monotone at {s} / {face}")

    def faces(self, m: int) -> list[list[int]]:
        """Face indices of every m-simplex, column i omitting vertex i."""
        return [[self.index[m - 1][face] for face, _ in faces_with_signs(s)]
                for s in self.simplices[m]]


def reference_rips(points, threshold: float, max_dim: int) -> FilteredComplex:
    """Vietoris-Rips complex of a point cloud under the Euclidean metric.

    Contains every simplex on at most max_dim+1 points whose pairwise
    distances are all <= threshold; the filtration value of a simplex is the
    maximum pairwise distance among its vertices (its diameter).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    if n == 0:
        raise EmptyInput("no points", operation="complex.build_rips")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")

    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))

    table: dict[Simplex, float] = {(i,): 0.0 for i in range(n)}
    # neighbors with larger index only: cliques are grown in ascending order
    nbrs: list[np.ndarray] = [
        np.nonzero((dist[i] <= threshold) & (np.arange(n) > i))[0] for i in range(n)
    ]

    def expand(simplex: tuple[int, ...], candidates: np.ndarray, diameter: float) -> None:
        for j in candidates:
            d = max(diameter, float(dist[list(simplex), j].max()))
            new = simplex + (int(j),)
            table[new] = d
            if len(new) <= max_dim:
                expand(new, candidates[np.isin(candidates, nbrs[j], assume_unique=True)], d)

    for i in range(n):
        for j in nbrs[i]:
            d = float(dist[i, j])
            edge = (i, int(j))
            table[edge] = d
            if max_dim >= 2:
                expand(edge, nbrs[i][np.isin(nbrs[i], nbrs[j], assume_unique=True)], d)

    return FilteredComplex(table)


def unchunked_distances(points: np.ndarray) -> np.ndarray:
    """The distance matrix from the full n x n x d difference tensor, as
    the library built it before it worked in blocks."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def reference_distances(points) -> np.ndarray:
    """`unchunked_distances` of a cloud scaled by 2^-k and scaled back, with
    k 0 unless the largest |coordinate| lies outside [2^-200, 2^200], else
    the exponent that scales it below 1: so squares neither overflow nor
    underflow."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(-1, 1) if pts.ndim == 1 else pts
    top = float(np.abs(pts).max(initial=0.0))
    k = 0 if 2.0 ** -200 <= top <= 2.0 ** 200 else math.frexp(top)[1]
    return np.ldexp(unchunked_distances(np.ldexp(pts, -k)), k)


def enclosing_radius(points) -> float:
    """min over points of the max distance to the rest: beyond this scale
    the Rips complex is a cone and carries no new classes."""
    return float(reference_distances(points).max(axis=1).min())


def reference_clique_rows(dist: np.ndarray, threshold: float, max_dim: int):
    """The mask loop that neighbour-list clique growth replaced, without
    its row chunks: each m-simplex is extended by the vertices set in the
    AND of its vertices' rows of the upper adjacency matrix. Returns the
    vertex rows and filtrations of every dimension, in lexicographic
    order."""
    n = len(dist)
    above = np.triu(dist <= threshold, 1)
    u, k = np.divmod(np.flatnonzero(above), n)
    verts, filt = [np.arange(n)[:, None], np.column_stack([u, k])], [np.zeros(n), dist[u, k]]
    while len(verts) <= max_dim and len(verts[-1]):
        rows = verts[-1]
        mask = above[rows[:, 0]]
        for column in rows[:, 1:].T:
            mask &= above[column]
        r, k = np.divmod(np.flatnonzero(mask), n)
        far = filt[-1][r]
        for column in rows[r].T:
            np.maximum(far, dist[column, k], out=far)
        verts.append(np.column_stack([rows[r], k]))
        filt.append(far)
    return verts, filt


def reference_rips_earliest(skeleton: FilteredComplex, dist: np.ndarray) -> np.ndarray:
    """Key of each edge's earliest implied triangle on a Rips 1-skeleton of
    the distance matrix ``dist``, by the float argmin over its rows, without
    the row windows:
    the first c of least max(d(a, c), d(b, c), f(ab)); _NEVER for an edge in
    no triangle. Every pair within the last edge's filtration is an edge,
    so a c not joined to both a and b lies beyond it; only a and b
    themselves, at distance 0, need excluding."""
    n, filt = skeleton.n_vertices, skeleton.filtration_values(1)
    a, b = skeleton.vertex_array(1).T
    g = np.maximum(np.maximum(dist[a], dist[b]), filt[:, None])
    rows = np.arange(len(a))
    g[rows, a] = g[rows, b] = np.inf
    c = g.argmin(axis=1)
    has = np.flatnonzero(g[rows, c] <= filt[-1])
    a, b, c = a[has], b[has], c[has]
    x, z = np.minimum(a, c), np.maximum(b, c)
    keys = np.full(len(rows), _NEVER)
    keys["f"][has] = g[has, c]
    keys["c"][has] = (x * n + (a + b + c - x - z)) * n + z
    return keys


def reference_complex_arrays(verts_by_dim, filt_by_dim) -> list[dict]:
    """Per nonempty dimension, the arrays a complex holds, from tuples and
    dicts: rows and filtrations in (filtration, lex) order, the face
    table, the sorted keys (key rank of the face omitting the last vertex,
    times the vertex count, plus the rank of the last vertex) and the
    index of each key rank, found by sorting the rows again."""
    top = max(m for m, v in enumerate(verts_by_dim) if len(v))
    out, lex_rank = [], []
    for m in range(top + 1):
        order = np.argsort(filt_by_dim[m], kind="stable")
        verts = verts_by_dim[m][order]
        rows = [tuple(r) for r in verts.tolist()]
        index = {s: i for i, s in enumerate(rows)}
        lex = np.lexsort(verts.T[::-1])
        lex_rank.append({rows[i]: rank for rank, i in enumerate(lex.tolist())})
        vertex_rank = lex_rank[0]
        if m:
            faces = np.array([[out[m - 1]["index"][f] for f, _ in faces_with_signs(s)]
                              for s in rows], dtype=np.int64).reshape(-1, m + 1)
            key = [lex_rank[m - 1][s[:-1]] * len(vertex_rank) + vertex_rank[s[-1:]]
                   for s in rows]
        else:
            faces, key = np.empty((len(rows), 0), dtype=np.int64), [s[0] for s in rows]
        out.append({"verts": verts, "filt": filt_by_dim[m][order], "faces": faces,
                    "keys": np.array(key, dtype=np.int64)[lex], "lex": lex, "index": index})
    return out


def _index(cx, m: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(cx.simplices(m))}


def reference_coboundary(c: Cochain) -> dict[int, object]:
    """Entries of delta c by a loop over the cofaces and their faces."""
    cx, ring, m = c.complex, c.ring, c.dim
    below = _index(cx, m)
    out: dict[int, object] = {}
    for j, s in enumerate(cx.simplices(m + 1)):
        total = 0
        for face, sign in faces_with_signs(s):
            v = c.entries.get(below[face])
            if v is not None:
                total += sign * v
        total = ring.normalize(total)
        if total != ring.zero:
            out[j] = total
    return out


def reference_boundary(c: Chain) -> dict[int, object]:
    """Entries of the boundary of c by a loop over the support's faces."""
    cx, ring = c.complex, c.ring
    below = _index(cx, c.dim - 1)
    simp = cx.simplices(c.dim)
    out: dict[int, object] = {}
    for i, coeff in c.entries.items():
        for face, sign in faces_with_signs(simp[i]):
            out[below[face]] = out.get(below[face], 0) + sign * coeff
    out = {i: ring.normalize(v) for i, v in out.items()}
    return {i: v for i, v in out.items() if v != ring.zero}


def boundary_faces(cx, s: tuple[int, ...]) -> list[tuple[int, int]]:
    """Indices and signs of the faces of ``s`` (one dimension down) in
    ``cx``, read from its face table."""
    m = len(s) - 1
    return list(zip(cx.face_table(m)[cx.index(s)].tolist(), face_signs(m)))


def persistent_homology_intervals(cx, p, max_dim: int) -> list[tuple[int, float, float]]:
    """Barcode by standard boundary-matrix column reduction over F_p (no
    representatives), independent of the cohomology reduction."""
    q = p.p
    stream = sorted((f, m, s) for m in range(min(max_dim + 1, cx.dimension) + 1)
                    for s, f in zip(cx.simplices(m), cx.filtration_values(m).tolist()))
    position = {s: pos for pos, (_, _, s) in enumerate(stream)}
    columns: list[dict[int, int]] = [
        {position[face]: sign % q for face, sign in faces_with_signs(s)} if m else {}
        for _, m, s in stream]

    low_to_col: dict[int, int] = {}
    intervals: list[tuple[int, float, float]] = []
    paired: set[int] = set()
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                break
            factor = (col[low] * inv_mod(columns[other][low], q)) % q
            for i, v in columns[other].items():
                nv = (col.get(i, 0) - factor * v) % q
                if nv:
                    col[i] = nv
                elif i in col:
                    del col[i]
        if col:
            low = max(col)
            low_to_col[low] = j
            paired.add(low)
            paired.add(j)
            birth_f, birth_d = stream[low][0], stream[low][1]
            death_f = stream[j][0]
            if death_f > birth_f:
                intervals.append((birth_d, birth_f, death_f))
    for j, (f, d, _) in enumerate(stream):
        if j not in paired and not columns[j] and d <= max_dim:
            intervals.append((d, f, math.inf))
    intervals.sort(key=lambda t: (t[0], t[1], t[2]))
    return intervals


def nullspace_integer(matrix) -> list[list[int]]:
    """A basis (columns of V past the rank) of the integer kernel of A."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    S, _, V = smith_normal_form(matrix)
    rank = sum(1 for i in range(min(m, n)) if S[i][i])
    return [[V[i][k] for i in range(n)] for k in range(rank, n)]


def rank_integer(matrix) -> int:
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0 or n == 0:
        return 0
    S, _, _ = smith_normal_form(matrix)
    return sum(1 for i in range(min(m, n)) if S[i][i])


def reference_cycle_representative(cx, p, pair) -> Chain:
    """A homology cycle at the pair's representative scale that pairs
    nonzero (mod p) with the pair's cocycle.

    Cycles are read off a boundary-matrix reduction at the scale: every
    column that reduces to zero yields an explicit cycle through the
    recorded column operations. The column of the pair's birth simplex is
    the natural candidate; all cycle columns are scanned before giving up.
    """
    if pair.representative_cocycle.complex is not cx:
        raise ValueError("pair was computed on a different complex")
    q = p.p
    m = pair.dimension
    if m < 1:
        raise NoDualCycle("degree-0 pairs carry no dual cycle",
                          operation="persistence.cycle_representative")
    n = _prefix_length(cx, m, pair.scale)
    signs = [sign % q for sign in face_signs(m)]
    columns = [dict(zip(row, signs)) for row in cx.face_table(m)[:n].tolist()]
    combos = [{i: 1} for i in range(n)]
    low_to_col: dict[int, int] = {}
    cycles: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        combo = combos[j]
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                break
            factor = (col[low] * inv_mod(columns[other][low], q)) % q
            for target, source in ((col, columns[other]), (combo, combos[other])):
                for i, v in source.items():
                    nv = (target.get(i, 0) - factor * v) % q
                    if nv:
                        target[i] = nv
                    else:
                        target.pop(i, None)
        if col:
            low_to_col[max(col)] = j
        else:
            cycles[j] = combo

    cocycle = pair.representative_cocycle.entries

    def pairs_nonzero(candidate: dict[int, int]) -> bool:
        total = sum(v * cocycle.get(i, 0) for i, v in candidate.items()) % q
        return total != 0

    birth_idx = cx.index(pair.birth_simplex) if len(pair.birth_simplex) - 1 == m else None
    if birth_idx is not None and birth_idx in cycles and pairs_nonzero(cycles[birth_idx]):
        return Chain(cx, m, GF(q), cycles[birth_idx])
    for cycle in cycles.values():
        if pairs_nonzero(cycle):
            return Chain(cx, m, GF(q), cycle)
    raise NoDualCycle("no reduced cycle pairs nonzero with the cocycle",
                      operation="persistence.cycle_representative")


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


def reference_persistent_cohomology(cx: FilteredComplex, p: OddPrime, max_dim: int, *,
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
            cocycle_below_death=raw,
            birth_simplex=cx.simplex(d, bidx),
            death_simplex=None if didx is None else cx.simplex(d + 1, didx))
        diagram.pairs_by_dim.setdefault(d, []).append(pair)

    for pairs in diagram.pairs_by_dim.values():
        pairs.sort(key=lambda pr: (-pr.persistence, pr.birth, pr.birth_simplex))
    return diagram


def reference_extend(E: np.ndarray, rows: np.ndarray, sigma: np.ndarray, signs: np.ndarray,
                     q: int) -> None:
    """`persistence._extend` level by level: each pass writes the rows of
    the sigma whose other faces are all resolved (not apparent, or written
    by an earlier pass), and the next pass looks only at the sigma that
    wait on those: a ``bincount`` of the woken waiters takes the resolved
    faces off their counts."""
    m = len(sigma)
    pos = rows.argmax(axis=1)
    rows = rows.copy()
    rows[np.arange(m), pos] = len(E) - 1      # sigma reads the zero row
    # the sigma that wait on each sigma: the apparent faces of their tau
    position = np.full(len(E), m)
    position[sigma] = np.arange(m)
    on = position[rows].ravel()
    waiter, on = np.flatnonzero(on < m) // rows.shape[1], on[on < m]
    order = np.argsort(on)
    waiter, start = waiter[order], np.searchsorted(on[order], np.arange(m + 1))
    waiting = np.bincount(waiter, minlength=m)
    group = np.flatnonzero(waiting == 0)
    while group.size:
        total = sum(int(s) * E.take(rows[group, i], axis=0) for i, s in enumerate(signs))
        E[sigma[group]] = -signs[pos[group], None] * total % q
        times = np.bincount(waiter[concat_ranges(start[group], start[group + 1] - start[group])])
        waiting[:len(times)] -= times
        woken = np.flatnonzero(times)
        group = woken[waiting[woken] == 0]


# -- lifting and winding, entry by entry -----------------------------------------

def reference_relations(c, kind: str) -> list[tuple[tuple[int, int], ...]]:
    """The vanishing relations of an F_p (co)chain, from vertex tuples: per
    (m+1)-simplex its faces in the support (cocycle), or per (m-1)-simplex
    the support simplices it is a face of (cycle), as (position, sign)."""
    cx, m = c.complex, c.dim
    if kind == "cocycle":
        below = _index(cx, m)
        rels = [tuple((below[face], sign) for face, sign in faces_with_signs(s)
                      if below[face] in c.entries) for s in cx.simplices(m + 1)]
        return [rel for rel in rels if rel]
    if m == 0:
        return []
    below = _index(cx, m - 1)
    simp = cx.simplices(m)
    by_face: dict[int, list[tuple[int, int]]] = {}
    for i in sorted(c.entries):
        for face, sign in faces_with_signs(simp[i]):
            by_face.setdefault(below[face], []).append((i, sign))
    return [tuple(v) for _, v in sorted(by_face.items())]


def reference_check(relations, entries, p: int) -> None:
    for rel in relations:
        if sum(sign * entries.get(pos, 0) for pos, sign in rel) % p:
            raise NotClosed(f"relation {rel} does not vanish mod {p}",
                            operation="lifting.cocycle_index_system")


def reference_bounds(relations, p: int, support) -> dict[int, int]:
    out = {pos: (p - 1) // 2 for pos in support}
    for rel in relations:
        b = (p - 1) // len(rel)
        for pos, _ in rel:
            if pos in out and b < out[pos]:
                out[pos] = b
    return out


def reference_scaling_search(c, bounds, prime: OddPrime) -> FpElement | None:
    p = prime.p
    items = [(v, bounds[pos]) for pos, v in c.entries.items()]
    if not items:
        return FpElement(1, prime)
    for r in range(1, (p - 1) // 2 + 1):
        if all(abs_mod(r * v, p) <= b for v, b in items):
            return FpElement(r, prime)
    return None


def _reference_closed(vec, kind: str) -> bool:
    if kind == "cocycle":
        return not reference_coboundary(vec)
    return vec.dim == 0 or not reference_boundary(vec)


def _reference_lift(c, r: int) -> dict[int, int]:
    p = c.ring.p
    return {i: lift_mod(r * v, p) for i, v in c.entries.items()}


def reference_lift_closed(c, kind: str, snf_cap: int = 1500) -> LiftReport:
    """``lifting.lift_closed`` entry by entry: the same routes, certificates
    and checks."""
    p = c.ring.p
    prime = OddPrime(p)
    relations = reference_relations(c, kind)
    reference_check(relations, c.entries, p)
    r = reference_scaling_search(c, reference_bounds(relations, p, list(c.entries)), prime)
    if r is not None:
        cert = CERT_IN_RANGE if kind == "cocycle" else CERT_PER_FACE_RANGE
        return _reference_report(c, r, _reference_lift(c, r.value), cert, kind)
    for rv in range(1, (p - 1) // 2 + 1):
        working = _reference_lift(c, rv)
        if _reference_closed(type(c)(c.complex, c.dim, ZZ, working), kind):
            return _reference_report(c, FpElement(rv, prime), working, CERT_VERIFIED_ONLY, kind)
    repaired = snf_repair(type(c)(c.complex, c.dim, ZZ, _reference_lift(c, 1)), prime,
                          snf_cap=snf_cap)
    return _reference_report(c, FpElement(1, prime), dict(repaired.entries),
                             CERT_SNF_REPAIRED, kind)


def _reference_report(c, r: FpElement, working: dict, certificate: str,
                      kind: str) -> LiftReport:
    p = r.p
    if not _reference_closed(type(c)(c.complex, c.dim, ZZ, working), kind):
        raise ValidationFailed("certified lift failed the direct closedness check",
                               operation="lifting.lift_closed")
    inv = inv_mod(r.value, p)
    preimage = {i: v * inv for i, v in working.items()}
    if {i: v % p for i, v in preimage.items() if v % p} != c.entries:
        raise ValidationFailed("preimage does not reduce to the input",
                               operation="lifting.lift_closed")
    cls = type(c)
    return LiftReport(input=c, scaling=r,
                      working_lift=cls(c.complex, c.dim, ZZ, working),
                      exact_preimage=cls(c.complex, c.dim, ZZ, preimage),
                      certificate=certificate, is_closed=True)


def reference_spanning_forest(cx: FilteredComplex, root: int | None = None
                              ) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """``complexes.spanning_forest`` as a first-in first-out search: the
    roots and the tree edges (parent, child, edge index, sign) in visit
    order."""
    n = cx.n_vertices
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    # column 0 of an edge's face row omits its first vertex a, so holds b
    for j, (b, a) in enumerate(cx.face_table(1).tolist()):
        adj[a].append((b, j, 1))
        adj[b].append((a, j, -1))
    seen = [False] * n
    roots: list[int] = []
    tree: list[tuple[int, int, int, int]] = []
    for start in ([] if root is None else [root]) + list(range(n)):
        if seen[start]:
            continue
        seen[start] = True
        roots.append(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w, j, sign in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    tree.append((u, w, j, sign))
                    queue.append(w)
    return roots, tree


def reference_forest_potential(cx: FilteredComplex, values, modulus,
                               root: int | None = None) -> list:
    """``complexes.forest_potential`` edge by edge along the reference
    forest, on Python scalars."""
    phi = [0] * cx.n_vertices
    for parent, child, j, sign in reference_spanning_forest(cx, root)[1]:
        phi[child] = (phi[parent] + sign * values[j]) % modulus
    return phi


def reference_split(alpha: Cochain, q: int) -> tuple[dict, dict] | None:
    """The degree-1 forest division alpha = q * gamma + delta(f) on dicts:
    (f, gamma), or None when the class does not vanish mod q."""
    cx = alpha.complex
    phi = reference_forest_potential(cx, alpha.to_array(), q)
    f = {i: lift_mod(v, q) for i, v in enumerate(phi) if lift_mod(v, q)}
    residue = dict(alpha.entries)
    for i, v in reference_coboundary(Cochain(cx, 0, ZZ, f)).items():
        residue[i] = residue.get(i, 0) - v
    if any(v % q for v in residue.values()):
        return None
    return f, {i: v // q for i, v in residue.items() if v}


def reference_reduce_winding(alpha: Cochain, beta: Chain) -> WindingReport:
    """``winding.reduce_winding`` in degree 1, entry by entry."""
    cx = alpha.complex
    if reference_coboundary(alpha):
        raise NotACocycle("input cochain is not a cocycle over Z",
                          operation="winding.reduce_winding")
    if reference_boundary(beta):
        raise ValueError("beta must be an integer cycle")
    pairing = sum(v * beta.entries.get(i, 0) for i, v in alpha.entries.items())
    if pairing == 0:
        raise ZeroPairing("pairing is zero; pick a different cycle",
                          operation="winding.candidate_primes")
    primes = reference_candidate_primes(pairing)
    current, omega, witness = dict(alpha.entries), 1, {}
    trace = []
    for q in primes:
        times = 0
        while (split := reference_split(Cochain(cx, 1, ZZ, current), q)) is not None:
            f, current = split
            for i, v in f.items():
                witness[i] = witness.get(i, 0) + omega * v
            omega *= q
            times += 1
        if times:
            trace.append((q, times, ROUTE_MOD_P))
    total = {i: omega * v for i, v in current.items()}
    for i, v in reference_coboundary(Cochain(cx, 0, ZZ, witness)).items():
        total[i] = total.get(i, 0) + v
    if {i: v for i, v in total.items() if v} != alpha.entries:
        raise ValidationFailed("winding decomposition identity broken",
                               operation="winding.reduce_winding")
    return WindingReport(pairing=pairing, candidate_primes=tuple(primes),
                         division_trace=tuple(trace), winding_number=omega,
                         reduced_cocycle=Cochain(cx, 1, ZZ, current),
                         coboundary_witness=Cochain(cx, 0, ZZ, witness))


# -- number theory by trial division -----------------------------------------

def reference_is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def reference_candidate_primes(pairing: int) -> list[int]:
    """Distinct prime factors of |pairing|, ascending, by trial division."""
    if pairing == 0:
        raise ZeroPairing("pairing is zero; pick a different cycle",
                          operation="winding.candidate_primes")
    n = abs(pairing)
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out

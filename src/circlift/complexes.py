"""Filtered simplicial complexes and sparse (co)chain algebra.

Simplices are stored as strictly ascending vertex tuples (the canonical
orientation). The i-th face of a simplex omits its i-th vertex and carries
sign (-1)^i, which makes the coboundary matrix in each degree the exact
transpose of the boundary matrix one degree up.
"""

from __future__ import annotations

import json
import math
import numbers
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, DimensionOutOfRange, EmptyInput, NotACocycle

Simplex = tuple[int, ...]


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class Ring:
    """Minimal coefficient-ring protocol: a name and a normalizer.

    Arithmetic happens with Python's own +,-,* on the normalized values;
    ``normalize`` maps any representative to the canonical one (e.g. mod p).
    ``dtype`` holds values exactly in numpy: Python ints, or floats for R.
    Array kernels compute in ``array_dtype(bound)`` and map their results
    to canonical values with ``normalize_array``.
    """

    name: str
    dtype: type = object

    def normalize(self, x):
        raise NotImplementedError

    def array_dtype(self, bound: int):
        """Dtype of an exact computation whose intermediates are at most
        ``bound`` in magnitude: see `exact_dtype`."""
        return exact_dtype(bound)

    def normalize_array(self, values: np.ndarray) -> np.ndarray:
        return values

    @property
    def zero(self):
        return self.normalize(0)

    def coeff_to_str(self, x) -> str:
        return repr(x) if isinstance(x, float) else str(x)

    def coeff_from_str(self, s: str):
        return self.normalize(float(s) if ("." in s or "e" in s or "inf" in s) else int(s))


class Integers(Ring):
    name = "Z"

    def normalize(self, x):
        return int(x)

    def __repr__(self):
        return "ZZ"


class Reals(Ring):
    name = "R"
    dtype = float

    def normalize(self, x):
        return float(x)

    def array_dtype(self, bound: int):
        return float

    def __repr__(self):
        return "RR"


class PrimeField(Ring):
    def __init__(self, p: int):
        self.p = int(p)
        self.name = f"F_{self.p}"

    def normalize(self, x):
        return int(x) % self.p

    def normalize_array(self, values: np.ndarray) -> np.ndarray:
        return values % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


ZZ = Integers()
RR = Reals()

_EXACT_LIMIT = 1 << 62


def exact_dtype(bound: int):
    """The dtype of exact integer array arithmetic whose every intermediate
    is at most ``bound`` in magnitude: int64 when that is below 2^62, so no
    sum or product can wrap, else object arrays of Python ints. A kernel
    computes the bound from p and its input magnitudes (including every
    Python int it combines with the array); the numpy expressions are the
    same for both dtypes."""
    return np.int64 if bound < _EXACT_LIMIT else object


_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def ring_from_name(name: str) -> Ring:
    if name == "Z":
        return ZZ
    if name == "R":
        return RR
    if name.startswith("F_"):
        return GF(int(name[2:]))
    raise ValueError(f"unknown ring {name!r}")


# ---------------------------------------------------------------------------
# simplices
# ---------------------------------------------------------------------------

def as_simplex(vertices: Iterable[int]) -> Simplex:
    s = tuple(vertices)
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise ValueError(f"vertices must be strictly ascending, got {s}")
    return s


def face_signs(m: int) -> list[int]:
    """Signs of the columns of the face table in dimension m: (-1)^i."""
    return [-1 if i % 2 else 1 for i in range(m + 1)]


def _search(keys: np.ndarray, queries: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Position of each query in the sorted ``keys``; clears ``found`` where
    the query is absent."""
    pos = np.minimum(np.searchsorted(keys, queries), max(keys.size - 1, 0))
    found &= (keys[pos] == queries) if keys.size else False
    return pos


# ---------------------------------------------------------------------------
# filtered complex
# ---------------------------------------------------------------------------

class FilteredComplex:
    """A finite simplicial complex with a monotone filtration value per
    simplex. Within each dimension, simplices are sorted by (filtration,
    lexicographic vertices) and indexed densely. Immutable once built.

    Per dimension m it holds a vertex array (N_m x (m+1) ids), a filtration
    array and a face table (N_m x (m+1) indices) whose column i is the face
    omitting vertex i, with sign (-1)^i. Lookups by vertex tuple go through
    one sorted key per simplex: the key rank of its face omitting the last
    vertex, times the number of vertices, plus the rank of the last vertex.
    Those keys sort like the rows, lexicographically.
    """

    def __init__(self, simplices_with_filtration: Mapping[Simplex, float]):
        rows: dict[int, list] = {}
        filt: dict[int, list] = {}
        for s, f in simplices_with_filtration.items():
            rows.setdefault(len(s) - 1, []).append(s)
            filt.setdefault(len(s) - 1, []).append(f)
        verts_by_dim, filt_by_dim = [], []
        for m in range(max(rows, default=-1) + 1):
            verts = np.array(rows.get(m) or np.empty((0, m + 1), dtype=np.int64))
            if verts.dtype.kind not in "iu" or verts.max(initial=0) > np.iinfo(np.int64).max:
                raise ValueError("vertex ids must be integers that fit in 64 bits")
            verts = verts.astype(np.int64)
            # compare, not np.diff: differences of int64 ids can overflow
            descending = np.flatnonzero((verts[:, 1:] <= verts[:, :-1]).any(axis=1))
            if descending.size:
                raise ValueError("vertices must be strictly ascending, "
                                 f"got {tuple(verts[descending[0]].tolist())}")
            lex = np.lexsort(verts.T[::-1])
            verts_by_dim.append(verts[lex])
            filt_by_dim.append(np.array(filt.get(m, []), dtype=float)[lex])
        self._init_arrays(verts_by_dim, filt_by_dim)

    def _init_arrays(self, verts_by_dim: list[np.ndarray], filt_by_dim: list[np.ndarray],
                     rips: bool = False) -> None:
        """Fill the complex from per-dimension int64 vertex rows (ascending
        within a row) and their filtration values; trailing empty dimensions
        are dropped. The rows of each dimension must come in lexicographic
        order: one stable sort on the filtration then gives the (filtration,
        lex) order. Finding every face by its key checks closure; the
        filtration is checked to be monotone. With ``rips`` the vertices are
        0..n-1, so a vertex id is its key rank and edges take their vertex
        faces directly. `build_rips` stores its triangles with `_store`,
        from the clique growth, and passes none here."""
        counts = [len(v) for v in verts_by_dim]
        if not any(counts):
            raise EmptyInput("complex has no simplices", operation="complex.build")
        self._verts, self._filt, self._faces = [], [], []
        self._keys, self._lex = [], []      # sorted keys; key rank -> index
        self._forests, self._skeleton = {}, False
        for m in range(max(m for m, n in enumerate(counts) if n) + 1):
            self._add_dimension(verts_by_dim[m], filt_by_dim[m], rips)

    def _add_dimension(self, verts: np.ndarray, filt: np.ndarray, rips: bool) -> None:
        """Store the next dimension m from its rows in lexicographic order:
        since keys sort like the rows, the inverse of the stable sort on the
        filtration takes each key rank to its index."""
        m = len(self._verts)
        order = np.argsort(filt, kind="stable")
        verts, filt = verts[order], filt[order]
        # NaN sorts last and fails every comparison, so no order check sees it
        if np.isnan(filt[-1:]).any():
            raise ValueError("filtration is NaN at "
                             f"{tuple(verts[np.isnan(filt)][0].tolist())}")
        if not m:
            key, faces = verts[:, 0], np.empty((len(verts), 0), dtype=np.int64)
        else:
            # the key rank of each face omitting the last vertex
            faces, last = (verts[:, ::-1], verts[:, 0]) if rips and m == 1 else \
                self._find_faces(verts)
            late = self._filt[m - 1][faces] > filt[:, None] + 1e-12
            if late.any():
                j, i = divmod(int(np.flatnonzero(late)[0]), m + 1)
                raise ValueError(f"filtration not monotone at {tuple(verts[j].tolist())}"
                                 f" / {self.simplex(m - 1, faces[j, i])}")
            tail = verts[:, m] if rips else np.searchsorted(self._keys[0], verts[:, m])
            key = last * len(self._keys[0]) + tail
        keys = np.empty_like(key)
        keys[order] = key
        self._store(verts, filt, faces, keys, order)

    def _store(self, verts: np.ndarray, filt: np.ndarray, faces: np.ndarray,
               keys: np.ndarray, order: np.ndarray) -> None:
        """Append the next dimension: its rows, filtration values and face
        table by index, its sorted keys, and ``order``, which takes each
        index to its key rank."""
        lex = np.empty_like(order)
        lex[order] = np.arange(len(order))
        for store, arr in ((self._verts, verts), (self._filt, filt),
                           (self._faces, faces), (self._keys, keys), (self._lex, lex)):
            store.append(arr)
        self.dimension = len(self._verts) - 1

    def _find_faces(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Face table of rows of m-simplices found by key search, and the
        key rank of each face omitting the last vertex."""
        m, codes = verts.shape[1] - 1, []
        for i in range(m + 1):
            code, found = self._codes(np.delete(verts, i, axis=1))
            if not found.all():
                face = np.delete(verts[np.argmin(found)], i).tolist()
                raise ValueError(f"complex not closed under faces: {tuple(face)} missing")
            codes.append(code)
        return self._lex[m - 1][np.stack(codes, axis=1)], codes[m]

    def _codes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Key rank of each row of vertex ids among the simplices of its
        dimension, and whether the row is one of them."""
        found = np.ones(len(rows), dtype=bool)
        code = _search(self._keys[0], rows[:, 0], found)
        for j in range(1, rows.shape[1]):
            rank = _search(self._keys[0], rows[:, j], found)
            code = _search(self._keys[j], code * len(self._keys[0]) + rank, found)
        return code, found

    # -- plain accessors -----------------------------------------------------

    def _stores(self, m: int) -> bool:
        """Whether 0 <= m <= dimension; a Rips skeleton refuses m >= 2."""
        if m >= 2 and self._skeleton:
            raise DimensionOutOfRange(f"a Rips complex built with max_dim 1 stores no "
                                      f"{m}-simplices; build it with max_dim {m} to read them",
                                      operation="complex.degree")
        return 0 <= m <= self.dimension

    def simplices(self, m: int) -> list[Simplex]:
        return [tuple(row) for row in self.vertex_array(m).tolist()]

    def simplex(self, m: int, i: int) -> Simplex:
        return tuple(self.vertex_array(m)[i].tolist())

    def vertex_array(self, m: int) -> np.ndarray:
        """N_m x (m+1) vertex ids of the m-simplices."""
        return self._verts[m] if self._stores(m) else np.empty((0, m + 1), int)

    def face_table(self, m: int) -> np.ndarray:
        """N_m x (m+1) face indices of the m-simplices: column i holds the
        face omitting vertex i, with sign (-1)^i."""
        return self._faces[m] if self._stores(m) else np.empty((0, m + 1), int)

    def n_simplices(self, m: int) -> int:
        return len(self.vertex_array(m))

    @property
    def n_vertices(self) -> int:
        return len(self._verts[0])

    @property
    def vertex_ids(self) -> list[int]:
        return self._verts[0][:, 0].tolist()

    def indices(self, m: int, rows) -> np.ndarray:
        """Index of each row of vertex ids among the m-simplices, -1 where
        the row is not a simplex of this complex."""
        rows = np.asarray(rows, dtype=np.int64)
        if not self._stores(m):
            return np.full(len(rows), -1)
        code, found = self._codes(rows.reshape(-1, m + 1))
        idx = self._lex[m][code]
        return np.where(found & (idx < self.n_simplices(m)), idx, -1)

    def index(self, s: Simplex) -> int:
        i = int(self.indices(len(s) - 1, [s])[0])
        if i < 0:
            raise KeyError(s)
        return i

    def has_simplex(self, s: Simplex) -> bool:
        return bool(self.indices(len(s) - 1, [s])[0] >= 0)

    def filtration(self, s: Simplex) -> float:
        return float(self._filt[len(s) - 1][self.index(s)])

    def filtration_values(self, m: int) -> np.ndarray:
        return self._filt[m] if self._stores(m) else np.empty(0)

    def max_filtration(self) -> float:
        return max(float(f[-1]) for f in self._filt if f.size)

    def __repr__(self) -> str:
        counts = ",".join(str(len(v)) for v in self._verts)
        return f"FilteredComplex(dim={self.dimension}, counts=[{counts}])"

    # -- derived structure ---------------------------------------------------

    def restrict(self, max_filtration: float) -> "FilteredComplex":
        """Sublevel subcomplex of all simplices with filtration <= value: a
        prefix of every dimension, sharing these arrays and lookup keys. A
        scale that keeps everything gives this complex, so what is built on
        it (its spanning forest) is built once. A skeleton's restriction is
        a skeleton, and its implied triangles are those among its edges."""
        counts = [int(np.searchsorted(f, max_filtration, side="right")) for f in self._filt]
        if not any(counts):
            raise EmptyInput(f"no simplices at scale {max_filtration}",
                             operation="complex.restrict")
        if counts == [len(f) for f in self._filt]:
            return self
        top = max(m for m, n in enumerate(counts) if n)
        for m in range(1, top + 1):
            # a face may sit up to 1e-12 above its coface, beyond the cut
            outside = self._faces[m][:counts[m]] >= counts[m - 1]
            if outside.any():
                face = self.simplex(m - 1, self._faces[m].flat[np.flatnonzero(outside)[0]])
                raise ValueError(f"complex not closed under faces: {face} missing")
        sub = object.__new__(FilteredComplex)
        sub.dimension, sub._keys, sub._lex = top, self._keys, self._lex
        sub._verts, sub._filt, sub._faces = (
            [arr[:n] for arr, n in zip(store, counts[:top + 1])]
            for store in (self._verts, self._filt, self._faces))
        sub._forests, sub._skeleton = {}, self._skeleton
        return sub

    def cofacet_source(self, d: int):
        """The (d+1)-simplices as cofacets of the d-simplices, as keys and face
        rows (`earliest` and `cofacets`): from the face table, or for the
        edges of a Rips 1-skeleton its edge index."""
        return _RipsTriangles(self) if self._skeleton and d == 1 else _FaceTable(self, d)

    def boundary_matrix(self, m: int) -> np.ndarray:
        """Dense N_{m-1} x N_m integer matrix of the boundary C_m -> C_{m-1}:
        column j holds the signed faces of the j-th m-simplex. Only the
        Smith-normal-form routes build it, under their size cap."""
        if not 1 <= m <= self.dimension:
            raise DimensionOutOfRange(f"no boundary in degree {m}",
                                      operation="complex.boundary_matrix")
        return self._incidence(m)

    def coboundary_matrix(self, m: int) -> np.ndarray:
        """Dense matrix of delta_m : C^m -> C^{m+1}, the transpose of the
        boundary matrix in degree m+1; 0 x N_m in the top degree, so kernels
        make sense."""
        if not 0 <= m <= self.dimension:
            raise DimensionOutOfRange(f"no coboundary in degree {m}",
                                      operation="complex.coboundary_matrix")
        return self._incidence(m + 1).T

    def _incidence(self, m: int) -> np.ndarray:
        """N_{m-1} x N_m signed incidences from the face table; no columns
        above the top dimension."""
        faces = self.face_table(m)
        out = np.zeros((self.n_simplices(m - 1), len(faces)), dtype=np.int64)
        for i, sign in enumerate(face_signs(m)):
            out[faces[:, i], np.arange(len(faces))] = sign
        return out

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        # the degree above the top is read too: a skeleton refuses it, since
        # its triangles are implied and the JSON would drop them
        return {
            "simplices": [
                {"vertices": v, "filtration": f}
                for m in range(self.dimension + 2)
                for v, f in zip(self.vertex_array(m).tolist(),
                                self.filtration_values(m).tolist())
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FilteredComplex":
        return build_from_simplices(
            [(tuple(e["vertices"]), float(e["filtration"])) for e in data["simplices"]]
        )

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def build_from_simplices(entries: Iterable[tuple[Iterable[int], float]]) -> FilteredComplex:
    """Build a complex from (possibly maximal-only) simplices; missing faces
    are added with the minimum filtration value of their cofaces."""
    table: dict[Simplex, float] = {}

    def visit(s: Simplex, f: float) -> None:
        prev = table.get(s)
        if prev is not None and prev <= f:
            return
        table[s] = f
        if len(s) > 1:
            for i in range(len(s)):
                visit(s[:i] + s[i + 1:], f)

    got_any = False
    for vertices, f in entries:
        s, f = as_simplex(sorted(vertices)), float(f)
        if math.isnan(f):
            raise ValueError(f"filtration is NaN at {s}")
        visit(s, f)
        got_any = True
    if not got_any:
        raise EmptyInput("no simplices supplied", operation="complex.build")
    return FilteredComplex(table)


# a block of distances holds this many float differences, and a
# chunk of clique growth this many candidate vertices
_DISTANCE_BLOCK = 1 << 15
_CLIQUE_CHUNK = 1 << 18


def _finite_points(points) -> tuple[np.ndarray, int]:
    """A point cloud as an n x d float array, refusing NaN and infinite
    coordinates, scaled by 2^-k, and k: 0 unless the largest |coordinate|
    lies outside [2^-200, 2^200], else the exponent that scales it below 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {pts.shape}")
    bad = ~np.isfinite(pts)
    if bad.any():
        row, col = divmod(int(np.flatnonzero(bad)[0]), pts.shape[1])
        raise ValueError(f"points must be finite, got {pts[row, col]} "
                         f"(NaN or inf) in row {row}")
    top = float(np.abs(pts).max(initial=0.0))
    k = 0 if 2.0 ** -200 <= top <= 2.0 ** 200 else math.frexp(top)[1]
    return (np.ldexp(pts, -k) if k else pts), k


def _distance_blocks(pts: np.ndarray, k: int):
    """The upper triangle of the Euclidean distance matrix of the points
    ``pts`` scaled by 2^k, one block row at a time: strips (lo, strip) of
    the rows lo..lo+side against the columns lo..n-1.

    The exact pairwise-difference formula (a Gram-matrix shortcut would
    round equal distances apart). Each unordered pair is computed once, in
    square blocks of about 32k floats, so memory stays a strip plus a
    bounded buffer whatever the dimension d. A block on the diagonal is
    exactly symmetric, with an exactly zero diagonal. The squared
    differences are summed in numpy's own order for a length-d axis:
    coordinate by coordinate below 8 coordinates, where numpy's sum is
    sequential, and by ``sum(axis=-1)`` over each block of differences from
    8 on, where it is pairwise. Every distance is bitwise that of the full
    n x n x d difference tensor. Points with no coordinates are all at
    distance 0. `_finite_points` scales a cloud whose largest |coordinate|
    lies outside [2^-200, 2^200] to below 1, and the strips are scaled
    back, so squares neither overflow nor underflow.
    """
    n, d = pts.shape
    side = max(1, math.isqrt(_DISTANCE_BLOCK // (d if d >= 8 else 1)))
    coords = np.ascontiguousarray(pts.T) if d < 8 else None
    for lo in range(0, n, side):
        rows = slice(lo, lo + side)
        strip = np.empty((min(side, n - lo), n - lo))
        for at in range(lo, n, side):
            cols = slice(at, at + side)
            block = strip[:, at - lo:at - lo + side]
            if d >= 8:
                diff = pts[rows, None, :] - pts[None, cols, :]
                diff *= diff
                block[...] = diff.sum(axis=-1)
            else:
                block[...] = 0.0
                term = np.empty(block.shape)
                for x in coords:
                    np.subtract.outer(x[rows], x[cols], out=term)
                    term *= term
                    block += term
        np.sqrt(strip, out=strip)
        yield lo, np.ldexp(strip, k, out=strip) if k else strip


def build_rips(points, threshold: float | str, max_dim: int) -> FilteredComplex:
    """Vietoris-Rips complex of a point cloud under the Euclidean metric,
    point i being vertex i; ``threshold="auto"`` is the enclosing radius,
    the least over the points of the largest distance to another: beyond it
    the complex is a cone and carries no new classes.

    Contains every simplex on at most max_dim+1 points whose pairwise
    distances are all <= threshold; the filtration value of a simplex is the
    maximum pairwise distance among its vertices (its diameter). At max_dim
    1 the triangles are implied, not stored: `cofacet_source` streams them,
    so the diagram up to degree 1 is that of max_dim 2, and reads of degree
    2 are refused. The edges and the radius come from one pass over
    `_distance_blocks` (`_rips_edges`); no n x n matrix is stored.

    Cliques grow one dimension at a time from neighbour lists (Zomorodian,
    "Fast construction of the Vietoris-Rips complex", 2010). The upper
    neighbours of a vertex, the larger vertices within the threshold, form
    one sorted list per vertex, and each m-simplex is extended by every
    upper neighbour of its last vertex that is within the threshold of all
    its other vertices. Each dimension's rows come out in lexicographic
    order. At most ``_CLIQUE_CHUNK`` candidates are held at once, or the
    candidates of one simplex if it has more. Edges take their vertex
    faces directly. A triangle takes its faces and its place from the
    growth (`_rips_triangles`). Higher simplices find their faces by key
    search, and the lengths of their new pairs are the filtration values of
    those edges. The complex at a scale s <= t is bitwise the sublevel
    complex at s of the one at t.
    """
    pts, k = _finite_points(points)
    n = len(pts)
    _check_rips(threshold, max_dim, n)
    return _rips_from_edges(n, *_rips_edges(_distance_blocks(pts, k), n, threshold), max_dim)


def _rips_edges(strips, n: int, threshold) -> tuple[np.ndarray, np.ndarray]:
    """The ascending pairs u * n + k, u < k, within the threshold, and their
    lengths, cut from the strips: a strip's entries above the diagonal come
    in ascending pair order. At "auto" each point's largest distance is the
    maximum of its row and its column over the strips, which are held until
    the least of those, the radius, is known, and freed on return."""
    if isinstance(threshold, str):
        strips, far = list(strips), np.zeros(n)
        for lo, strip in strips:
            np.maximum(far[lo:lo + len(strip)], strip.max(axis=1), out=far[lo:lo + len(strip)])
            np.maximum(far[lo:], strip.max(axis=0), out=far[lo:])
        threshold = far.min()
    pairs, lengths = [], []
    for lo, strip in strips:
        i, j = np.divmod(np.flatnonzero(strip <= threshold), strip.shape[1])
        upper = i < j
        i, j = i[upper], j[upper]
        pairs.append((i + lo) * n + j + lo)
        lengths.append(strip[i, j])
    return np.concatenate(pairs), np.concatenate(lengths)


def _check_rips(threshold, max_dim: int, n: int) -> None:
    """Refuse a Rips complex of no points, or with options that mean nothing."""
    if not isinstance(max_dim, (int, np.integer)) or max_dim < 1:
        raise ValueError(f"max_dim must be an integer >= 1, got {max_dim!r}")
    if not (threshold == "auto" if isinstance(threshold, str)
            else isinstance(threshold, numbers.Real) and threshold >= 0):
        raise ValueError(f'threshold must be >= 0 or "auto", and not NaN, got {threshold!r}')
    if n == 0:
        raise EmptyInput("no points", operation="complex.build_rips")


def _rips_from_edges(n: int, pairs: np.ndarray, lengths: np.ndarray,
                     max_dim: int) -> FilteredComplex:
    """The Rips complex on n points whose edges within the threshold are
    the ascending pairs u * n + k, u < k, of lengths ``lengths``."""
    owner, neighbour = np.divmod(pairs, n)
    cx = object.__new__(FilteredComplex)
    cx._init_arrays([np.arange(n)[:, None], np.column_stack([owner, neighbour])],
                    [np.zeros(n), lengths], rips=True)
    cx._skeleton = max_dim == 1       # a 1-skeleton: its triangles are implied
    if max_dim < 2 or not len(pairs):
        return cx
    # upper neighbours of v: neighbour[start[v]:start[v + 1]], ascending
    start = np.searchsorted(owner, np.arange(n + 1))
    index = edge_index(n, cx._verts[1]).ravel()
    _rips_triangles(cx, owner, neighbour, start, index)
    while 2 <= cx.dimension < max_dim:
        # the rows of the top dimension, in key order, grow by one vertex
        rows, filt = cx._verts[-1][cx._lex[-1]], cx._filt[-1][cx._lex[-1]]
        grown, grown_filt = [], []
        for r, at in _extensions(rows[:, -1], start):
            k = neighbour[at]
            # the edges (v, k) for the other vertices v
            other = index[rows[r, :-1] * n + k[:, None]]
            keep = (other < len(pairs)).all(axis=1)
            r, k, other = r[keep], k[keep], other[keep]
            far = np.maximum(filt[r], lengths[at[keep]])
            for column in other.T:
                np.maximum(far, cx._filt[1][column], out=far)
            grown.append(np.column_stack([rows[r], k]))
            grown_filt.append(far)
        rows = np.concatenate(grown)
        if not len(rows):
            break
        cx._add_dimension(rows, np.concatenate(grown_filt), rips=True)
    return cx


def _extensions(last: np.ndarray, start: np.ndarray):
    """Chunks (r, at) of the candidate extensions of rows whose last
    vertices are ``last``: row r with the upper neighbour at position at,
    for at most ``_CLIQUE_CHUNK`` candidates, or one row's if it has more."""
    first, count = start[last], np.diff(start)[last]
    ends, lo = np.cumsum(count), 0
    while lo < len(last):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + _CLIQUE_CHUNK,
                                             side="right")))
        yield np.repeat(np.arange(lo, hi), count[lo:hi]), concat_ranges(first[lo:hi],
                                                                         count[lo:hi])
        lo = hi


def _rips_triangles(cx: FilteredComplex, owner: np.ndarray, neighbour: np.ndarray,
                    start: np.ndarray, index: np.ndarray) -> None:
    """Store the triangles of a Rips complex whose edges (owner, neighbour),
    in lexicographic order, ``cx`` holds.

    Edge r = (u, v) grows by each upper neighbour k of v, at position at;
    the lexicographic rank of an edge is its key rank, so the faces (v, k)
    and (u, v) are the indices of ranks at and r. The face (u, k) is read
    from the flattened `edge_index` ``index``, where a missing edge, the
    edge count, means no triangle. A triangle's filtration is that of its
    latest face, and `_order_by_faces` places it. Its key is r * n + k."""
    n, n_e, lex, f_e = cx.n_vertices, len(owner), cx._lex[1], cx._filt[1]
    grown = []
    for r, at in _extensions(neighbour, start):
        xz = index.take(owner[r] * n + neighbour[at])
        keep = np.flatnonzero(xz < n_e)
        grown.append((r[keep], at[keep], xz[keep]))
    r, at, xz = (np.concatenate(column) for column in zip(*grown))
    del grown       # the triangles are held once from here on
    if not len(r):
        return
    latest = np.maximum(lex[at], xz)
    np.maximum(latest, lex[r], out=latest)
    order = _order_by_faces(f_e, latest)
    keys = r * n + neighbour[at]
    r, at, xz, latest = r[order], at[order], xz[order], latest[order]
    cx._store(np.stack([owner[r], neighbour[r], neighbour[at]], axis=1), f_e[latest],
              np.stack([lex[at], xz, lex[r]], axis=1, dtype=np.int64), keys, order)


def _order_by_faces(f_e: np.ndarray, latest: np.ndarray) -> np.ndarray:
    """The stable sort of ``f_e[latest]``, for ascending ``f_e``: the stable
    sort of the tie ranks of the faces ``latest``, one past the last index
    of each one's value. Tie ranks are monotone in the value and equal
    exactly on its ties, so the permutations agree. They are held in the
    least unsigned dtype that holds len(f_e): 16 bits below 65,536 values,
    which numpy sorts by radix."""
    tie_end = np.searchsorted(f_e, f_e, side="right").astype(np.min_scalar_type(len(f_e)))
    return np.argsort(tie_end[latest], kind="stable")


def edge_index(n: int, edges: np.ndarray) -> np.ndarray:
    """n x n matrix of the index of the edge on each pair of the vertices
    0..n-1, in either order; len(edges) where there is none. ``edges``
    holds the vertex pairs, one edge per row. The dtype is the least
    unsigned one that holds len(edges): 2 bytes a cell below 65,536 edges."""
    index = np.full((n, n), len(edges), dtype=np.min_scalar_type(len(edges)))
    a, b = edges.T
    index[a, b] = index[b, a] = np.arange(len(edges))
    return index


def stored_sublevel(cx: FilteredComplex, scale: float) -> FilteredComplex:
    """The sublevel complex at ``scale``; a Rips skeleton's grows its triangles
    from its edges within ``scale``, bitwise `build_rips` of its points at ``scale``."""
    if not cx._skeleton:
        return cx.restrict(scale)
    # edges in key order; a restriction shares its parent's keys, those beyond it too
    lex = cx._lex[1]
    rank = np.flatnonzero(lex < np.searchsorted(cx._filt[1], scale, side="right"))
    return _rips_from_edges(cx.n_vertices, cx._keys[1][rank], cx._filt[1][lex[rank]], 2)


# cells (cofacet rows times faces, or edges times vertices) one window of
# a cofacet stream holds: its temporaries stay in a core's cache
_BLOCK = 1 << 16

# A (d+1)-simplex is found by its key: the filtration, then a code that
# orders ties lexicographically (its index in a complex, or the vertex code
# of an implied triangle). _FIRST precedes every key and _NEVER follows it.
_KEY = np.dtype([("f", float), ("c", np.int64)])
_FIRST = np.array((-np.inf, -1), dtype=_KEY)[()]
_NEVER = np.array((np.inf, np.iinfo(np.int64).max), dtype=_KEY)[()]


class _FaceTable:
    """The (d+1)-simplices of a complex as cofacets of its d-simplices,
    read from the face table; a key's code is the simplex's index."""

    def __init__(self, cx: FilteredComplex, d: int):
        self.d, self.up, self.filt = d, cx.face_table(d + 1), cx.filtration_values(d + 1)

    def _keys(self, index: np.ndarray) -> np.ndarray:
        keys = np.empty(len(index), dtype=_KEY)
        keys["f"], keys["c"] = self.filt[index], index
        return keys

    def earliest(self, n_d: int) -> tuple[np.ndarray, np.ndarray]:
        """Key and face row of each d-simplex's earliest cofacet: _NEVER and
        zeros for none."""
        n_up = len(self.up)
        first = np.full(n_d, n_up)
        np.minimum.at(first, self.up.ravel(), np.repeat(np.arange(n_up), self.d + 2))
        none, keys = first == n_up, np.full(n_d, _NEVER)
        keys[~none] = self._keys(first[~none])
        # a gather zeroed where none: a scatter of short rows costs more
        up = self.up if n_up else np.zeros((1, self.d + 2), dtype=self.up.dtype)
        return keys, np.where(none[:, None], 0, up.take(first, axis=0, mode="clip"))

    def cofacets(self, count: np.ndarray, arrive: np.ndarray):
        """Windows (keys, face rows), in key order, of the (d+1)-simplices
        with a face of nonzero ``count``, skipping the apparent ones (an
        apparent simplex is the key in ``arrive`` of its latest face). Each
        window reads ``count`` as it is when the window is made."""
        step = max(1, _BLOCK // (self.d + 2))
        for lo in range(0, len(self.up), step):
            faces = self.up[lo:lo + step]
            # face by face: reductions across a short row are slow
            live, latest = count[faces[:, 0]] > 0, faces[:, 0]
            for face in faces.T[1:]:
                live, latest = live | (count[face] > 0), np.maximum(latest, face)
            keep = np.flatnonzero(live & (arrive["c"][latest] != np.arange(lo, lo + len(faces))))
            if keep.size:
                yield self._keys(lo + keep), faces[keep]


class _RipsTriangles:
    """The triangles of a Rips 1-skeleton as cofacets of its edges, read
    from its `edge_index`: those of edge j = (a, b) are the common
    neighbours c, and {a, b, c} has the filtration of edge max(j, ac, bc).
    Its code (x*n + y)*n + z over its sorted vertices x < y < z orders ties
    lexicographically, so for one edge the cofacets come in the order of c."""

    def __init__(self, cx: FilteredComplex):
        self.edges, self.filt = cx.vertex_array(1), cx.filtration_values(1)
        self.n, self.edge = cx.n_vertices, edge_index(cx.n_vertices, self.edges)
        # tie_end[j]: one past the last edge of edge j's filtration value
        self.tie_end = np.searchsorted(self.filt, self.filt, side="right")

    def _windows(self):
        """Windows (lo, a, b, ac, bc), in key order: edges lo.. (a, b) and their
        `edge_index` rows, about ``_BLOCK`` cells ending after a filtration value."""
        n_e, width, lo = len(self.edges), max(1, _BLOCK // self.n), 0
        while lo < n_e:
            hi = int(self.tie_end[min(lo + width, n_e) - 1])
            a, b = self.edges[lo:hi].T
            yield lo, a, b, self.edge[a], self.edge[b]
            lo = hi

    def earliest(self, n_d: int) -> tuple[np.ndarray, np.ndarray]:
        """Key and face row of each edge's earliest cofacet: _NEVER and zeros
        for none. With m = max(ac, bc) per c (n_d where c misses a or b), the
        least filtration is that of edge late = max(min m, j), and the
        earliest cofacet is the first c whose m comes before the end of
        late's filtration value."""
        late, c = np.empty(n_d, dtype=np.int64), np.empty(n_d, dtype=np.int64)
        for lo, a, b, ac, bc in self._windows():
            hi = lo + len(a)
            m = np.maximum(ac, bc, out=ac)
            late[lo:hi] = np.maximum(m.min(axis=1), np.arange(lo, hi))
            # all rows, in m's dtype: copying rows or widening m costs more
            c[lo:hi] = (m < self.tie_end[late[lo:hi].clip(max=n_d - 1), None]
                        .astype(m.dtype)).argmax(axis=1)
        # all edges at once, rows zeroed where none: per window, or scattered, costs more
        j, (a, b), keys = np.flatnonzero(late < n_d), self.edges.T, np.full(n_d, _NEVER)
        keys["f"][j], keys["c"][j] = self.filt[late[j]], self._code(a[j], b[j], c[j])
        rows = _triangle_faces(a, b, c, np.arange(n_d), self.edge[a, c], self.edge[b, c])
        return keys, np.where((late == n_d)[:, None], 0, rows)

    def _code(self, a, b, c) -> np.ndarray:
        """Code of each triangle {a, b, c} with a < b."""
        x, z = np.minimum(a, c), np.maximum(b, c)
        return (x * self.n + (a + b + c - x - z)) * self.n + z

    def cofacets(self, count: np.ndarray, arrive: np.ndarray):
        """Windows (keys, face rows), in key order, of the triangles with an
        edge of nonzero ``count``, skipping the apparent ones (an apparent
        triangle is the key in ``arrive`` of its latest edge). Triangles are
        found by their latest edge j: the c whose edges to a and b both come
        before j. Each window reads ``count`` as it is when the window is
        made."""
        n = self.n
        for lo, a, b, ac, bc in self._windows():
            hi = lo + len(a)
            j = np.arange(lo, hi, dtype=ac.dtype)[:, None]
            # every face found comes before hi; a clipped read lands only on
            # a cell that the first test rejects
            live = count[:hi] > 0
            flat = np.flatnonzero((np.maximum(ac, bc) < j) & (
                live.take(ac, mode="clip") | live.take(bc, mode="clip") | live[lo:, None]))
            r = flat // n
            c, ac, bc, ab = flat - r * n, ac.ravel().take(flat), bc.ravel().take(flat), lo + r
            keys = np.empty(len(r), dtype=_KEY)
            keys["f"], keys["c"] = self.filt[ab], self._code(a[r], b[r], c)
            keep = arrive["c"][ab] != keys["c"]
            # rows come by j, and one row's triangles in the order of c, so
            # only ties of filtration between rows need sorting
            order = np.flatnonzero(keep)
            order = order[np.argsort((self.tie_end[ab[order]] - lo) * n ** 3 + keys["c"][order])]
            if order.size:
                yield keys[order], _triangle_faces(a[r[order]], b[r[order]], c[order],
                                                   ab[order], ac[order], bc[order])


def _triangle_faces(a, b, c, ab, ac, bc) -> np.ndarray:
    """Face rows of the triangles {a, b, c}, a < b, from their edges ab, ac
    and bc, in their dtype: the faces omit x, y and z of x < y < z."""
    return np.stack([np.where(c < a, ab, bc),
                     np.where(c < a, bc, np.where(c < b, ab, ac)),
                     np.where(c < b, ac, ab)], axis=1)


class Forest(NamedTuple):
    """A breadth-first spanning forest of a 1-skeleton, on vertex indices.

    ``roots`` holds one vertex per component, in component order, and
    ``steps`` one column (parent, child, edge index, sign) per tree edge,
    level by level across all components: level k + 1, the children of
    level k, is ``steps[:, levels[k]:levels[k + 1]]``. Sign is +1 when the
    child is the edge's second vertex; then f(child) - f(parent) = sign *
    (delta f)(edge) for every 0-cochain f.
    """

    roots: np.ndarray
    steps: np.ndarray
    levels: np.ndarray


def spanning_forest(cx: FilteredComplex, root: int | None = None) -> Forest:
    """Breadth-first spanning forest of the 1-skeleton.

    Every component is rooted at its lowest vertex index, except the one
    holding ``root``, which is rooted there; components come in the order
    of their roots, ``root`` first. Neighbors are visited in edge order. A
    complex never changes, so it keeps its forest per root; callers share
    the returned arrays and must not modify them.
    """
    if root not in cx._forests:
        cx._forests[root] = _breadth_first_forest(cx, root)
    return cx._forests[root]


def _breadth_first_forest(cx: FilteredComplex, root: int | None) -> Forest:
    """All components at once, one level per step. A vertex's parent is the
    first vertex of the frontier, in frontier order, with an edge to it,
    and children come in the order of (parent, edge): within a component
    that is the order of a first-in first-out search. The adjacency is
    held as 1-D columns, and each level keeps the first occurrence of each
    new neighbour, marked by ``np.minimum.at``; nothing is sorted per level."""
    n = cx.n_vertices
    # column 0 of an edge's face row omits its first vertex a, so holds b
    b, a = cx.face_table(1).T
    label = _lowest_in_component(n, a, b)
    roots = np.flatnonzero(label == np.arange(n))
    if root is not None:
        roots = np.concatenate([[root], roots[roots != label[root]]])
    # adjacency entry 2e + s is edge e seen from a (s = 0) or from b (s = 1),
    # sorted by owner then edge
    owner = np.stack([a, b], axis=1).ravel()
    entry = np.argsort(owner, kind="stable")
    owner, neighbour = owner[entry], np.stack([b, a], axis=1).ravel()[entry]
    start = np.searchsorted(owner, np.arange(n + 1))
    seen, first = np.zeros(n, dtype=bool), np.empty(n, dtype=np.int64)
    seen[roots] = True
    frontier, steps = roots, []
    while frontier.size:
        at = concat_ranges(start[frontier], start[frontier + 1] - start[frontier])
        at = at[~seen[neighbour[at]]]
        child, rank = neighbour[at], np.arange(len(at))
        first[child] = len(at)
        np.minimum.at(first, child, rank)
        steps.append(at[first[child] == rank])
        frontier = neighbour[steps[-1]]
        seen[frontier] = True
    levels = np.cumsum([0] + [len(step) for step in steps])
    at = np.concatenate(steps)
    return Forest(roots, np.stack([owner[at], neighbour[at], entry[at] >> 1,
                                   1 - 2 * (entry[at] & 1)]), levels)


def concat_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of range(start[i], start[i] + count[i]) over i."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def _lowest_in_component(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lowest vertex of each vertex's component, for edges (a, b): hook
    the higher of two labels on an edge under the lower, then follow labels
    to the end, until every edge has one label."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def forest_potential(cx: FilteredComplex, values: np.ndarray, modulus,
                     root: int | None = None) -> np.ndarray:
    """The potential phi of the edge values along the tree edges of
    ``spanning_forest``, in the dtype of ``values``: phi is 0 at every root
    and phi(child) = (phi(parent) + sign * values[edge]) % ``modulus``
    (ints stay exact; floats with modulus 1.0 count turns), one level at a
    time."""
    forest = spanning_forest(cx, root)
    phi = np.zeros(cx.n_vertices, dtype=values.dtype)
    for lo, hi in zip(forest.levels[:-1].tolist(), forest.levels[1:].tolist()):
        parent, child, edge, sign = forest.steps[:, lo:hi]
        phi[child] = (phi[parent] + sign * values[edge]) % modulus
    return phi


# ---------------------------------------------------------------------------
# chains and cochains
# ---------------------------------------------------------------------------

class _SimplexVector:
    """Sparse simplex-indexed vector over a declared ring, held as two
    read-only arrays: ``index``, the ascending indices of the nonzero
    coefficients, and ``values``, those coefficients, canonical in the ring
    (Python ints or int64 over Z and F_p, floats over R). Zero coefficients
    are never stored, so the support is exact.

    The constructor normalizes entry by entry; kernels that compute on
    coefficient arrays build their results from canonical values, taken as
    they are (`from_array`).
    """

    def __init__(self, complex: FilteredComplex, dim: int, ring: Ring,
                 entries: Mapping[int, object]):
        _check_degree(complex, dim)
        n, zero = complex.n_simplices(dim), ring.zero
        clean: dict[int, object] = {}
        for idx, coeff in entries.items():
            if not 0 <= idx < n:
                raise ValueError(f"simplex index {idx} out of range in degree {dim}")
            # a canonical value is zero exactly when it equals ring.zero
            v = ring.normalize(coeff)
            if v != zero:
                clean[int(idx)] = v
        index = np.fromiter(clean, np.int64, len(clean))
        order = np.argsort(index)
        self._hold(complex, dim, ring, index[order],
                   np.array(list(clean.values()), dtype=ring.dtype)[order])

    def _hold(self, complex: FilteredComplex, dim: int, ring: Ring,
              index: np.ndarray, values: np.ndarray) -> None:
        _check_degree(complex, dim)
        self.complex, self.dim, self.ring = complex, int(dim), ring
        index.setflags(write=False)
        values.setflags(write=False)
        self.index, self.values = index, values

    @classmethod
    def _of(cls, complex: FilteredComplex, dim: int, ring: Ring,
            index: np.ndarray, values: np.ndarray):
        """Vector of nonzero canonical ``values`` at ascending ``index``,
        taken as they are."""
        vec = object.__new__(cls)
        vec._hold(complex, dim, ring, index, values)
        return vec

    @classmethod
    def _sparse(cls, complex: FilteredComplex, dim: int, ring: Ring,
                index: np.ndarray, values: np.ndarray):
        """`_of` with the zeros of ``values`` dropped."""
        keep = values != 0
        return cls._of(complex, dim, ring, index[keep], values[keep])

    @cached_property
    def entries(self) -> Mapping[int, object]:
        """Simplex index -> nonzero coefficient, as plain Python scalars;
        read-only, and built once, on first access."""
        return MappingProxyType(dict(zip(self.index.tolist(), self.values.tolist())))

    # -- construction helpers --

    @classmethod
    def from_simplices(cls, complex: FilteredComplex, dim: int, ring: Ring,
                       assignment: Mapping[Simplex, object]):
        return cls(complex, dim, ring,
                   {_index_in(complex, dim, s): v for s, v in assignment.items()})

    @classmethod
    def from_array(cls, complex: FilteredComplex, dim: int, ring: Ring, values: np.ndarray):
        """Vector with the nonzero entries of a dense array of canonical
        coefficients over the simplices of the degree."""
        if len(values) != complex.n_simplices(dim):
            raise ValueError(f"{len(values)} coefficients for "
                             f"{complex.n_simplices(dim)} simplices in degree {dim}")
        index = np.flatnonzero(values)
        return cls._of(complex, dim, ring, index, values[index])

    def to_array(self, dtype=None) -> np.ndarray:
        """Dense coefficients over the simplices of the degree, exactly: as
        ``dtype`` when given (see `exact_dtype`), else as the ring's. The
        array is the caller's to change."""
        out = np.zeros(self.complex.n_simplices(self.dim), dtype=dtype or self.ring.dtype)
        out[self.index] = self.values
        return out

    def coefficient_bound(self) -> int:
        """An upper bound on |coefficient|, at least 1: p - 1 over F_p, the
        largest one otherwise."""
        if isinstance(self.ring, PrimeField):
            return self.ring.p - 1
        return max(1, np.abs(self.values).max(initial=0, keepdims=True).item())

    # -- ring-respecting arithmetic --

    def scale(self, c):
        r = self.ring
        c = r.normalize(c)
        values = self.values.astype(r.array_dtype(max(abs(c), 1) * self.coefficient_bound()))
        return self._sparse(self.complex, self.dim, r, self.index, r.normalize_array(values * c))

    def __add__(self, other):
        _check_compatible(self, other, (type(self), type(self)), "complex.vector")
        r, n = self.ring, len(self.index)
        index, at = np.unique(np.concatenate([self.index, other.index]), return_inverse=True)
        dtype = r.array_dtype(self.coefficient_bound() + other.coefficient_bound())
        total = np.zeros(len(index), dtype=dtype)
        total[at[:n]] = self.values.astype(dtype)
        total[at[n:]] += other.values.astype(dtype)
        return self._sparse(self.complex, self.dim, r, index, r.normalize_array(total))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    # -- views --

    def coefficient(self, s: Simplex):
        return self.entries.get(_index_in(self.complex, self.dim, s), self.ring.zero)

    @property
    def support(self) -> list[int]:
        return self.index.tolist()

    def is_zero(self) -> bool:
        return not len(self.index)

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.complex is other.complex
                and self.dim == other.dim and np.array_equal(self.index, other.index)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        inside = ", ".join(f"{self.complex.simplex(self.dim, i)}: {v}"
                           for i, v in zip(self.index.tolist(), self.values.tolist()))
        return f"{type(self).__name__}[{self.ring.name}]({{{inside}}})"

    # -- coefficient maps --

    def reduce_mod(self, p: int):
        """Push Z (or F_q) coefficients through the quotient map to F_p."""
        values = self.values.astype(exact_dtype(max(self.coefficient_bound(), p)))
        return self._sparse(self.complex, self.dim, GF(p), self.index, values % p)

    def push_to(self, other: FilteredComplex):
        """Re-express on another complex holding (a subset of) the support.

        Support simplices missing from the target are dropped: this is the
        pullback along the inclusion of a subcomplex.
        """
        target = other.indices(self.dim, self.complex.vertex_array(self.dim)[self.index])
        keep = np.flatnonzero(target >= 0)
        keep = keep[np.argsort(target[keep])]
        return self._of(other, self.dim, self.ring, target[keep], self.values[keep])

    # -- serialization --

    def to_json_dict(self) -> dict:
        rows = self.complex.vertex_array(self.dim)
        return {
            "dim": self.dim,
            "ring": self.ring.name,
            "entries": [[rows[i].tolist(), self.ring.coeff_to_str(v)]
                        for i, v in zip(self.index.tolist(), self.values.tolist())],
        }

    @classmethod
    def from_json_dict(cls, complex: FilteredComplex, data: dict, ring: Ring | None = None):
        ring = ring or ring_from_name(data.get("ring", "Z"))
        assignment = {tuple(v): ring.coeff_from_str(c) for v, c in data["entries"]}
        return cls.from_simplices(complex, int(data["dim"]), ring, assignment)


def _check_compatible(a, b, types: tuple[type, type], operation: str) -> None:
    """Refuse operands of other ``types``, over different rings, or on
    different complexes or degrees."""
    if (type(a), type(b)) != types or a.ring != b.ring:
        raise TypeError(f"{operation} takes a {types[0].__name__} and a {types[1].__name__} "
                        f"over one ring, got a {type(a).__name__} over {a.ring.name} "
                        f"and a {type(b).__name__} over {b.ring.name}")
    if a.complex is not b.complex or a.dim != b.dim:
        raise DimensionMismatch("operands on different complexes or degrees",
                                operation=operation)


def _index_in(complex: FilteredComplex, dim: int, s: Simplex) -> int:
    """Index of ``s`` among the dim-simplices, refusing another dimension's."""
    s = as_simplex(s)
    if len(s) != dim + 1:
        raise ValueError(f"simplex {s} is not of degree {dim}")
    return complex.index(s)


def _check_degree(complex: FilteredComplex, dim: int) -> None:
    # degree dimension+1 is allowed as the (always empty) target of the
    # top-degree coboundary
    if not 0 <= dim <= complex.dimension + 1:
        raise DimensionOutOfRange(f"degree {dim} not present", operation="complex.vector")


class Cochain(_SimplexVector):
    """Sparse m-cochain (simplex -> coefficient)."""


class Chain(_SimplexVector):
    """Sparse m-chain (simplex -> coefficient)."""


def coboundary_array(cx: FilteredComplex, m: int, values: np.ndarray) -> np.ndarray:
    """(delta c)(s) = sum_i (-1)^i c(face_i(s)) over all (m+1)-simplices, for
    dense m-cochain coefficients ``values``, in their dtype."""
    values = values[cx.face_table(m + 1)]
    return sum(sign * values[:, i] for i, sign in enumerate(face_signs(m + 1)))


def apply_coboundary(c: Cochain) -> Cochain:
    """The coboundary of an m-cochain, degree m+1; integer and F_p
    coefficients are summed in int64 whenever `exact_dtype` allows."""
    cx, m, ring = c.complex, c.dim, c.ring
    if m > cx.dimension:
        _raise_degree(m)
    values = c.to_array(ring.array_dtype((m + 2) * c.coefficient_bound()))
    return Cochain.from_array(cx, m + 1, ring,
                              ring.normalize_array(coboundary_array(cx, m, values)))


def is_closed(c: Cochain | Chain) -> bool:
    """Whether a cochain is a cocycle, or a chain a cycle, over its ring:
    its coboundary, or its boundary, vanishes. Every 0-chain is a cycle."""
    if isinstance(c, Chain):
        return c.dim == 0 or apply_boundary(c).is_zero()
    return apply_coboundary(c).is_zero()


def _require_integer_cocycle(alpha: Cochain, operation: str) -> None:
    if alpha.ring is not ZZ:
        raise ValueError("expected integer coefficients")
    if not is_closed(alpha):
        raise NotACocycle("input cochain is not a cocycle over Z", operation=operation)


def _raise_degree(m: int):
    raise DimensionOutOfRange(f"degree {m} out of range", operation="complex.apply")


def apply_boundary(c: Chain) -> Chain:
    """Boundary of an m-chain: sum of signed faces, degree m-1."""
    cx, m, ring = c.complex, c.dim, c.ring
    if m < 1:
        _raise_degree(m - 1)
    # a face collects at most one coefficient per m-simplex
    coeff = c.values.astype(ring.array_dtype(cx.n_simplices(m) * c.coefficient_bound()))
    total = np.zeros(cx.n_simplices(m - 1), dtype=coeff.dtype)
    np.add.at(total, cx.face_table(m)[c.index].ravel(),
              (coeff[:, None] * np.array(face_signs(m))).ravel())
    return Chain.from_array(cx, m - 1, ring, ring.normalize_array(total))


def kronecker_pairing(alpha: Cochain, beta: Chain):
    """Evaluation sum_s alpha(s) * beta_s of a cochain on a chain, using the
    canonical ascending-vertex orientations."""
    _check_compatible(alpha, beta, (Cochain, Chain), "complex.kronecker_pairing")
    _, a, b = np.intersect1d(alpha.index, beta.index, assume_unique=True, return_indices=True)
    return alpha.ring.normalize((alpha.values[a].astype(object)
                                 * beta.values[b].astype(object)).sum())

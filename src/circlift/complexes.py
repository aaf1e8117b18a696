"""Filtered simplicial complexes and sparse (co)chain algebra.

Simplices are stored as strictly ascending vertex tuples (the canonical
orientation). The i-th face of a simplex omits its i-th vertex and carries
sign (-1)^i, which makes the coboundary matrix in each degree the exact
transpose of the boundary matrix one degree up.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, DimensionOutOfRange, EmptyInput

Simplex = tuple[int, ...]


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class Ring:
    """Minimal coefficient-ring protocol: a name and a normalizer.

    Arithmetic happens with Python's own +,-,* on the normalized values;
    ``normalize`` maps any representative to the canonical one (e.g. mod p).
    """

    name: str

    def normalize(self, x):
        raise NotImplementedError

    def is_zero(self, x) -> bool:
        return self.normalize(x) == self.zero

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

    def normalize(self, x):
        return float(x)

    def __repr__(self):
        return "RR"


class PrimeField(Ring):
    def __init__(self, p: int):
        self.p = int(p)
        self.name = f"F_{self.p}"

    def normalize(self, x):
        return int(x) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


ZZ = Integers()
RR = Reals()

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


def faces_with_signs(s: Simplex) -> list[tuple[Simplex, int]]:
    """The i-th face omits vertex i and carries sign (-1)^i."""
    return [(s[:i] + s[i + 1:], -1 if i % 2 else 1) for i in range(len(s))]


# ---------------------------------------------------------------------------
# filtered complex
# ---------------------------------------------------------------------------

class FilteredComplex:
    """A finite simplicial complex with a monotone filtration value per
    simplex. Within each dimension, simplices are sorted by (filtration,
    lexicographic vertices) and indexed densely. Immutable once built.
    """

    def __init__(self, simplices_with_filtration: Mapping[Simplex, float]):
        if not simplices_with_filtration:
            raise EmptyInput("complex has no simplices", operation="complex.build")
        by_dim: dict[int, list[tuple[float, Simplex]]] = {}
        for s, f in simplices_with_filtration.items():
            s = as_simplex(s)
            by_dim.setdefault(len(s) - 1, []).append((float(f), s))
        self.dimension = max(by_dim)
        self._simplices: list[list[Simplex]] = []
        self._filtration: list[list[float]] = []
        self._index: list[dict[Simplex, int]] = []
        for m in range(self.dimension + 1):
            entries = sorted(by_dim.get(m, []), key=lambda e: (e[0], e[1]))
            self._simplices.append([s for _, s in entries])
            self._filtration.append([f for f, _ in entries])
            self._index.append({s: i for i, (_, s) in enumerate(entries)})
        self._validate()

    def _validate(self) -> None:
        for m in range(1, self.dimension + 1):
            below = self._index[m - 1]
            for s in self._simplices[m]:
                fs = self.filtration(s)
                for face, _ in faces_with_signs(s):
                    if face not in below:
                        raise ValueError(f"complex not closed under faces: {face} missing")
                    if self.filtration(face) > fs + 1e-12:
                        raise ValueError(f"filtration not monotone at {s} / {face}")

    # -- plain accessors -----------------------------------------------------

    def simplices(self, m: int) -> list[Simplex]:
        if not 0 <= m <= self.dimension:
            return []
        return self._simplices[m]

    def n_simplices(self, m: int) -> int:
        return len(self.simplices(m))

    @property
    def n_vertices(self) -> int:
        return len(self._simplices[0])

    @property
    def vertex_ids(self) -> list[int]:
        return [s[0] for s in self._simplices[0]]

    def index(self, s: Simplex) -> int:
        return self._index[len(s) - 1][s]

    def has_simplex(self, s: Simplex) -> bool:
        m = len(s) - 1
        return 0 <= m <= self.dimension and s in self._index[m]

    def filtration(self, s: Simplex) -> float:
        return self._filtration[len(s) - 1][self._index[len(s) - 1][s]]

    def filtration_values(self, m: int) -> list[float]:
        return self._filtration[m] if 0 <= m <= self.dimension else []

    def max_filtration(self) -> float:
        return max(vals[-1] for vals in self._filtration if vals)

    def total_simplices(self) -> int:
        return sum(len(s) for s in self._simplices)

    def __repr__(self) -> str:
        counts = ",".join(str(len(s)) for s in self._simplices)
        return f"FilteredComplex(dim={self.dimension}, counts=[{counts}])"

    # -- derived structure ---------------------------------------------------

    def restrict(self, max_filtration: float) -> "FilteredComplex":
        """Sublevel subcomplex of all simplices with filtration <= value."""
        kept = {
            s: f
            for m in range(self.dimension + 1)
            for s, f in zip(self._simplices[m], self._filtration[m])
            if f <= max_filtration
        }
        if not kept:
            raise EmptyInput(f"no simplices at scale {max_filtration}",
                             operation="complex.restrict")
        return FilteredComplex(kept)

    def boundary_faces(self, s: Simplex) -> list[tuple[int, int]]:
        """Indices and signs of the faces of ``s`` (one dimension down)."""
        below = self._index[len(s) - 2]
        return [(below[face], sign) for face, sign in faces_with_signs(s)]

    def boundary_matrix(self, m: int, ring: Ring = ZZ) -> "SparseMatrix":
        """Matrix of the boundary C_m -> C_{m-1}: rows are (m-1)-simplices,
        column j holds the signed faces of the j-th m-simplex."""
        if not 1 <= m <= self.dimension:
            raise DimensionOutOfRange(f"no boundary in degree {m}",
                                      operation="complex.boundary_matrix")
        cols = [
            {row: ring.normalize(sign) for row, sign in self.boundary_faces(s)}
            for s in self._simplices[m]
        ]
        return SparseMatrix(self.n_simplices(m - 1), self.n_simplices(m), ring, cols)

    def coboundary_matrix(self, m: int, ring: Ring = ZZ) -> "SparseMatrix":
        """Matrix of delta_m : C^m -> C^{m+1}, the transpose of the boundary
        matrix in degree m+1. Rows are (m+1)-simplices."""
        if not 0 <= m < self.dimension:
            # a top-degree coboundary is identically zero: expose it as an
            # empty matrix so kernels/images still make sense
            if m == self.dimension:
                return SparseMatrix(0, self.n_simplices(m), ring, [{} for _ in self._simplices[m]])
            raise DimensionOutOfRange(f"no coboundary in degree {m}",
                                      operation="complex.coboundary_matrix")
        return self.boundary_matrix(m + 1, ring).transpose()

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "simplices": [
                {"vertices": list(s), "filtration": f}
                for m in range(self.dimension + 1)
                for s, f in zip(self._simplices[m], self._filtration[m])
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FilteredComplex":
        return build_from_simplices(
            [(tuple(e["vertices"]), float(e["filtration"])) for e in data["simplices"]]
        )

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)


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
            for face, _ in faces_with_signs(s):
                visit(face, f)

    got_any = False
    for vertices, f in entries:
        visit(as_simplex(sorted(vertices)), float(f))
        got_any = True
    if not got_any:
        raise EmptyInput("no simplices supplied", operation="complex.build")
    return FilteredComplex(table)


def build_rips(points, threshold: float, max_dim: int) -> FilteredComplex:
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


def spanning_forest(cx: FilteredComplex, root: int | None = None
                    ) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """Breadth-first spanning forest of the 1-skeleton, on vertex indices.

    Every component is rooted at its lowest vertex index, except the one
    holding ``root``, which is rooted there. Neighbors are visited in edge
    order. Returns the roots and the tree edges in visit order as
    (parent, child, edge index, sign), where sign is +1 when the child is
    the edge's second vertex; then f(child) - f(parent) = sign * (delta f)(edge)
    for every 0-cochain f.
    """
    n = cx.n_vertices
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for j, (a, b) in enumerate(cx.simplices(1)):
        ia, ib = cx.index((a,)), cx.index((b,))
        adj[ia].append((ib, j, 1))
        adj[ib].append((ia, j, -1))
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


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------

@dataclass
class SparseMatrix:
    """Column-sparse matrix over a declared coefficient ring."""

    n_rows: int
    n_cols: int
    ring: Ring
    columns: list[dict[int, object]]

    def transpose(self) -> "SparseMatrix":
        cols: list[dict[int, object]] = [{} for _ in range(self.n_rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                cols[i][j] = v
        return SparseMatrix(self.n_cols, self.n_rows, self.ring, cols)

    def to_dense(self) -> list[list[object]]:
        dense = [[self.ring.zero] * self.n_cols for _ in range(self.n_rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                dense[i][j] = v
        return dense


# ---------------------------------------------------------------------------
# chains and cochains
# ---------------------------------------------------------------------------

class _SimplexVector:
    """Sparse simplex-indexed vector over a declared ring. Zero coefficients
    are never stored, so the support is exact."""

    def __init__(self, complex: FilteredComplex, dim: int, ring: Ring,
                 entries: Mapping[int, object]):
        # degree dimension+1 is allowed as the (always empty) target of the
        # top-degree coboundary
        if not 0 <= dim <= complex.dimension + 1:
            raise DimensionOutOfRange(f"degree {dim} not present",
                                      operation="complex.vector")
        n = complex.n_simplices(dim)
        clean: dict[int, object] = {}
        for idx, coeff in entries.items():
            if not 0 <= idx < n:
                raise ValueError(f"simplex index {idx} out of range in degree {dim}")
            v = ring.normalize(coeff)
            if not ring.is_zero(v):
                clean[int(idx)] = v
        self.complex = complex
        self.dim = int(dim)
        self.ring = ring
        self.entries: dict[int, object] = clean

    # -- construction helpers --

    @classmethod
    def from_simplices(cls, complex: FilteredComplex, dim: int, ring: Ring,
                       assignment: Mapping[Simplex, object]):
        return cls(complex, dim, ring,
                   {complex.index(as_simplex(s)): v for s, v in assignment.items()})

    def with_entries(self, entries: Mapping[int, object], ring: Ring | None = None):
        return type(self)(self.complex, self.dim, ring or self.ring, entries)

    # -- ring-respecting arithmetic --

    def scale(self, c):
        r = self.ring
        return self.with_entries({i: r.normalize(c * v) for i, v in self.entries.items()})

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.entries)
        for i, v in other.entries.items():
            out[i] = self.ring.normalize(out.get(i, 0) + v)
        return self.with_entries(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def _check_compatible(self, other) -> None:
        if self.complex is not other.complex or self.dim != other.dim:
            raise DimensionMismatch("operands on different complexes or degrees",
                                    operation="complex.vector")

    # -- views --

    def coefficient(self, s: Simplex):
        return self.entries.get(self.complex.index(as_simplex(s)), self.ring.zero)

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)

    def support_simplices(self) -> list[Simplex]:
        simp = self.complex.simplices(self.dim)
        return [simp[i] for i in self.support]

    def max_abs(self):
        return max((abs(v) for v in self.entries.values()), default=0)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.complex is other.complex
                and self.dim == other.dim and self.entries == other.entries)

    def __repr__(self) -> str:
        inside = ", ".join(f"{self.complex.simplices(self.dim)[i]}: {v}"
                           for i, v in sorted(self.entries.items()))
        return f"{type(self).__name__}[{self.ring.name}]({{{inside}}})"

    # -- coefficient maps --

    def reduce_mod(self, p: int):
        """Push Z (or F_q) coefficients through the quotient map to F_p."""
        return self.with_entries({i: int(v) % p for i, v in self.entries.items()},
                                 ring=GF(p))

    def map_coefficients(self, fn, ring: Ring):
        return self.with_entries({i: fn(v) for i, v in self.entries.items()}, ring=ring)

    def to_real(self):
        return self.map_coefficients(float, RR)

    def push_to(self, other: FilteredComplex):
        """Re-express on another complex holding (a subset of) the support.

        Support simplices missing from the target are dropped: this is the
        pullback along the inclusion of a subcomplex.
        """
        simp = self.complex.simplices(self.dim)
        entries = {}
        for i, v in self.entries.items():
            if other.has_simplex(simp[i]):
                entries[other.index(simp[i])] = v
        return type(self)(other, self.dim, self.ring, entries)

    # -- serialization --

    def to_json_dict(self) -> dict:
        simp = self.complex.simplices(self.dim)
        return {
            "dim": self.dim,
            "ring": self.ring.name,
            "entries": [[list(simp[i]), self.ring.coeff_to_str(v)]
                        for i, v in sorted(self.entries.items())],
        }

    @classmethod
    def from_json_dict(cls, complex: FilteredComplex, data: dict, ring: Ring | None = None):
        ring = ring or ring_from_name(data.get("ring", "Z"))
        assignment = {tuple(v): ring.coeff_from_str(c) for v, c in data["entries"]}
        vec = cls.from_simplices(complex, int(data["dim"]), ring, assignment)
        return vec


class Cochain(_SimplexVector):
    """Sparse m-cochain (simplex -> coefficient)."""


class Chain(_SimplexVector):
    """Sparse m-chain (simplex -> coefficient)."""


def apply_coboundary(c: Cochain) -> Cochain:
    """(delta c)(s) = sum_i (-1)^i c(face_i(s)) over all (m+1)-simplices."""
    cx, ring = c.complex, c.ring
    m = c.dim
    if m >= cx.dimension:
        return Cochain(cx, m + 1, ring, {}) if m == cx.dimension else _raise_degree(m)
    out: dict[int, object] = {}
    for j, s in enumerate(cx.simplices(m + 1)):
        total = 0
        for idx, sign in cx.boundary_faces(s):
            v = c.entries.get(idx)
            if v is not None:
                total += sign * v
        total = ring.normalize(total)
        if not ring.is_zero(total):
            out[j] = total
    return Cochain(cx, m + 1, ring, out)


def _raise_degree(m: int):
    raise DimensionOutOfRange(f"degree {m} out of range", operation="complex.apply")


def apply_boundary(c: Chain) -> Chain:
    """Boundary of an m-chain: sum of signed faces, degree m-1."""
    cx, ring = c.complex, c.ring
    if c.dim < 1:
        _raise_degree(c.dim - 1)
    simp = cx.simplices(c.dim)
    out: dict[int, object] = {}
    for i, coeff in c.entries.items():
        for idx, sign in cx.boundary_faces(simp[i]):
            out[idx] = out.get(idx, 0) + sign * coeff
    out = {i: ring.normalize(v) for i, v in out.items()}
    return Chain(cx, c.dim - 1, ring, {i: v for i, v in out.items() if not ring.is_zero(v)})


def is_cocycle(c: Cochain) -> bool:
    return apply_coboundary(c).is_zero()


def is_cycle(c: Chain) -> bool:
    if c.dim == 0:
        return True
    return apply_boundary(c).is_zero()


def kronecker_pairing(alpha: Cochain, beta: Chain):
    """Evaluation sum_s alpha(s) * beta_s of a cochain on a chain, using the
    canonical ascending-vertex orientations."""
    if alpha.complex is not beta.complex or alpha.dim != beta.dim:
        raise DimensionMismatch("pairing needs matching complex and degree",
                                operation="complex.kronecker_pairing")
    ring = alpha.ring
    total = 0
    small, large = (alpha.entries, beta.entries)
    if len(large) < len(small):
        small, large = large, small
    for i, v in small.items():
        w = large.get(i)
        if w is not None:
            total += v * w
    return ring.normalize(total)

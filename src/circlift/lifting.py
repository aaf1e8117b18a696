"""Lifting F_p (co)chains to closed integer (co)chains.

The coefficient-wise heuristic lift only preserves closedness when the
coefficients are small enough. Each vanishing sum of k support coefficients
survives lifting whenever every lifted term has magnitude at most
floor((p-1)/k): the lifted sum is then a multiple of p of magnitude below p,
hence zero. The machinery here finds a scalar r in F_p^* putting a scaled
copy of the input inside those per-position ranges, falls back to a plain
verify-every-scalar sweep, and finally repairs the lift through an exact
integer solve when both searches fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Optional, Sequence

import numpy as np

from . import snf
from .complexes import (Chain, Cochain, ZZ, apply_boundary, apply_coboundary, exact_dtype,
                        face_signs, is_closed)
from .errors import (ComplexTooLargeForSnf, NotClosed, TorsionObstruction,
                     ValidationFailed)
from .fields import FpElement, OddPrime, inv_mod

DEFAULT_SNF_CAP = 1500
# a scan block of scalars times support entries holds at most this many values
_SCAN_CHUNK = 1 << 18

CERT_IN_RANGE = "InRange"
CERT_PER_FACE_RANGE = "PerFaceRange"
CERT_VERIFIED_ONLY = "VerifiedOnly"
CERT_SNF_REPAIRED = "SnfRepaired"


@dataclass(frozen=True, eq=False)
class IndexSystem:
    """Signed vanishing relations over the support of an F_p (co)chain.

    Relation i is the run ``start[i]:start[i+1]`` of the arrays ``pos``
    (simplex indices) and ``sign``, with sum_j sign_j * c_j = 0 in F_p.
    Signs fold the orientation of each face into the relation, which leaves
    the magnitude bounds untouched.
    """

    dim: int
    prime: int
    pos: np.ndarray
    sign: np.ndarray
    start: np.ndarray

    def __post_init__(self):
        if (np.diff(self.start) <= 0).any():
            raise ValueError("empty relation")

    @cached_property
    def relations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each relation as a tuple of (position, sign) pairs."""
        pairs = list(zip(self.pos.tolist(), self.sign.tolist()))
        cut = self.start.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(cut, cut[1:]))

    @property
    def longest(self) -> int:
        """Length of the longest relation, 0 without any."""
        return int(np.diff(self.start).max(initial=0))

    def sums(self, terms: np.ndarray) -> np.ndarray:
        """Signed sum of each relation, per row of ``terms``, whose last
        axis holds the coefficient at each entry of ``pos``."""
        if len(self.start) == 1:
            return terms[..., :0]
        return np.add.reduceat(terms * self.sign, self.start[:-1], axis=-1)

    def check(self, c: Cochain | Chain) -> None:
        """Raise NotClosed unless every relation vanishes mod p on the
        coefficients of the F_p (co)chain c."""
        p = self.prime
        terms = c.to_array(exact_dtype(self.longest * p))[self.pos]
        bad = np.flatnonzero(self.sums(terms) % p)
        if bad.size:
            rel = self.relations[bad[0]]
            raise NotClosed(f"relation {rel} does not vanish mod {p}",
                            operation="lifting.cocycle_index_system")

    def bounds(self, support: Sequence[int]) -> dict[int, int]:
        """Per-position bound: min over containing relations of
        floor((p-1)/|relation|); positions in no relation are only limited
        by the lift range (p-1)/2 itself."""
        p = self.prime
        support = np.asarray(support, dtype=np.int64)
        size = np.diff(self.start)
        out = np.full(max(support.max(initial=-1), self.pos.max(initial=-1)) + 1,
                      (p - 1) // 2, dtype=exact_dtype(p))
        np.minimum.at(out, self.pos, np.repeat((p - 1) // size.astype(out.dtype), size))
        return dict(zip(support.tolist(), out[support].tolist()))


@dataclass(frozen=True)
class LiftReport:
    """Outcome of lifting a closed F_p (co)chain to a closed integer one.

    ``working_lift`` is the heuristic lift of r * input (small coefficients,
    used downstream); ``exact_preimage`` multiplies it by the canonical
    representative of r^{-1} so that it reduces to the input itself mod p.
    """

    input: Cochain | Chain
    scaling: FpElement
    working_lift: Cochain | Chain
    exact_preimage: Cochain | Chain
    certificate: str
    is_closed: bool

    @property
    def r(self) -> int:
        return self.scaling.value

    def to_json_dict(self) -> dict:
        return {
            "r": self.scaling.value,
            "prime": self.scaling.p,
            "certificate": self.certificate,
            "kind": "cycle" if isinstance(self.input, Chain) else "cocycle",
            "working_lift": self.working_lift.to_json_dict(),
            "exact_preimage": self.exact_preimage.to_json_dict(),
            "is_closed": self.is_closed,
        }


def _field_prime(c: Cochain | Chain) -> int:
    ring = c.ring
    if not hasattr(ring, "p"):
        raise ValueError(f"expected F_p coefficients, got {ring.name}")
    return ring.p


def naive_lift(c: Cochain | Chain) -> Cochain | Chain:
    """Coefficient-wise centered lift to Z. No closedness guarantee."""
    p = _field_prime(c)
    return type(c).from_array(c.complex, c.dim, ZZ, _centred(c.to_array(exact_dtype(p)), p))


def _centred(values: np.ndarray, p: int) -> np.ndarray:
    """The lift_mod representatives in [-(p-1)/2, (p-1)/2] of values in [0, p)."""
    return np.where(values > (p - 1) // 2, values - p, values)


def cocycle_index_system(c: Cochain | Chain) -> IndexSystem:
    """Vanishing relations certifying closedness of an F_p (co)chain.

    For an m-cocycle there is one relation per (m+1)-simplex, listing its
    faces inside the support; for an m-cycle, one relation per (m-1)-simplex
    that is a face of a support simplex (none for m = 0). Raises NotClosed
    when any relation sum fails to vanish mod p.
    """
    p = _field_prime(c)
    cx, support = c.complex, c.index
    if isinstance(c, Cochain):
        faces = cx.face_table(c.dim + 1)
        in_support = np.zeros(cx.n_simplices(c.dim), dtype=bool)
        in_support[support] = True
        group, col = np.divmod(np.flatnonzero(in_support[faces]), c.dim + 2)
        pos, sign = faces[group, col], np.array(face_signs(c.dim + 1))[col]
    else:
        faces = cx.face_table(c.dim)[support].ravel()
        order = np.argsort(faces, kind="stable")
        row, col = np.divmod(order, c.dim + 1)
        group, pos, sign = faces[order], support[row], np.array(face_signs(c.dim))[col]
    # a relation starts where the sorted group changes; the fences -1 and
    # -2 differ from every group and from each other, so with no group at
    # all the offsets are just [0]
    start = np.flatnonzero(np.diff(group, prepend=-1, append=-2))
    system = IndexSystem(c.dim, p, pos, sign.astype(np.int64), start)
    system.check(c)
    return system


def _first_scalar(p: int, values: np.ndarray, passes) -> Optional[int]:
    """Smallest r in 1..(p-1)/2 for which ``passes`` accepts the row of
    r * values mod p in an R x len(values) block, or None. The dtype of
    ``values`` must hold r * values exactly. Blocks grow geometrically, so
    an early r costs little."""
    half, lo, rows = (p - 1) // 2, 1, 1
    cap = max(1, _SCAN_CHUNK // max(len(values), 1))
    while lo <= half:
        r = np.arange(lo, min(lo + rows, half + 1), dtype=values.dtype)
        ok = np.flatnonzero(passes(r[:, None] * values % p))
        if ok.size:
            return int(r[ok[0]])
        lo, rows = lo + len(r), min(2 * rows, cap)
    return None


def scaling_search(c: Cochain | Chain,
                   bounds: dict[int, int]) -> Optional[FpElement]:
    """Smallest r in F_p^* with abs_p(r * c_j) <= bounds[j] on the support.

    Only r <= (p-1)/2 needs scanning: r and p-r scale to pointwise-negated
    vectors with identical magnitudes, so the smallest qualifying scalar is
    never in the upper half.
    """
    p = _field_prime(c)
    values = c.values.astype(exact_dtype(p * p))
    if not values.size:
        return FpElement(1, OddPrime(p))
    limit = np.array(list(map(bounds.__getitem__, c.support)), dtype=values.dtype)
    r = _first_scalar(p, values,
                      lambda scaled: (np.minimum(scaled, p - scaled) <= limit).all(axis=1))
    return None if r is None else FpElement(r, OddPrime(p))


def _verified_scalar(c: Cochain | Chain, system: IndexSystem) -> Optional[int]:
    """Smallest r in 1..(p-1)/2 whose scaled centred lift is closed over Z:
    every relation of ``system``, which covers every simplex the
    (co)boundary of a lift on the support can reach, sums to zero."""
    p = _field_prime(c)
    values = c.values.astype(exact_dtype(p * max(p, system.longest)))
    at = np.searchsorted(c.index, system.pos)
    return _first_scalar(p, values,
                         lambda scaled: ~system.sums(_centred(scaled, p)[:, at]).any(axis=1))


def lift_closed(c: Cochain | Chain, kind: Literal["cocycle", "cycle"] | None = None, *,
                snf_cap: int = DEFAULT_SNF_CAP) -> LiftReport:
    """Lift a closed F_p (co)chain to a closed integer one.

    Routes, cheapest certificate first:
      1. scaling search under the index-system bounds (closedness guaranteed
         by the range argument: certificate InRange / PerFaceRange);
      2. plain sweep over r, keeping the first scaled heuristic lift that is
         closed over Z (VerifiedOnly);
      3. integer repair of the r=1 lift through a Smith-normal-form solve
         (SnfRepaired), capped by ``snf_cap``.
    Whatever the route, the lift returned is checked closed directly. The
    type of c says cocycle or cycle; ``kind``, when given, must agree.
    """
    _check_snf_cap(snf_cap)
    if kind is not None and kind != ("cycle" if isinstance(c, Chain) else "cocycle"):
        raise ValueError(f"a {type(c).__name__} does not lift as a {kind}")
    prime = OddPrime(_field_prime(c))
    system = cocycle_index_system(c)
    r = scaling_search(c, system.bounds(c.index))
    if r is not None:
        cert = CERT_PER_FACE_RANGE if isinstance(c, Chain) else CERT_IN_RANGE
        return _finish_report(c, r, naive_lift(c.scale(r.value)), cert)

    rv = _verified_scalar(c, system)
    if rv is not None:
        return _finish_report(c, FpElement(rv, prime), naive_lift(c.scale(rv)),
                              CERT_VERIFIED_ONLY)

    repaired = snf_repair(naive_lift(c), prime, snf_cap=snf_cap)
    return _finish_report(c, FpElement(1, prime), repaired, CERT_SNF_REPAIRED)


def _finish_report(c, r: FpElement, working, certificate: str) -> LiftReport:
    if not is_closed(working):
        raise ValidationFailed("certified lift failed the direct closedness check",
                               operation="lifting.lift_closed")
    preimage = working.scale(inv_mod(r.value, r.p))
    if preimage.reduce_mod(r.p) != c:
        raise ValidationFailed("preimage does not reduce to the input",
                               operation="lifting.lift_closed")
    return LiftReport(input=c, scaling=r, working_lift=working,
                      exact_preimage=preimage, certificate=certificate,
                      is_closed=True)


def _check_snf_cap(snf_cap) -> None:
    """Refuse a cap that is not an integer >= 0, before any route runs."""
    if not isinstance(snf_cap, (int, np.integer)) or snf_cap < 0:
        raise ValueError(f"snf_cap must be an integer >= 0, got {snf_cap!r}")


def _snf_guard(n_unknowns: int, n_equations: int, snf_cap: int, operation: str) -> None:
    if n_unknowns + n_equations > snf_cap:
        raise ComplexTooLargeForSnf(
            f"{n_unknowns}+{n_equations} simplices exceed the SNF cap {snf_cap}",
            operation=operation)


def snf_repair(alpha: Cochain | Chain, p: OddPrime, *,
               snf_cap: int = DEFAULT_SNF_CAP) -> Cochain | Chain:
    """Repair an integer cochain that is closed mod p into one closed over Z.

    The defect d(alpha) is p * eta for an integer eta; solving d(xi) = eta
    exactly and subtracting p * xi removes it without changing the mod-p
    reduction. Unsolvability of the system means the obstruction class is
    genuine p-torsion: TorsionObstruction.
    """
    _check_snf_cap(snf_cap)
    cx, cocycle = alpha.complex, isinstance(alpha, Cochain)
    defect = apply_coboundary(alpha) if cocycle else apply_boundary(alpha)
    if not defect.reduce_mod(p.p).is_zero():
        raise NotClosed(f"input is not closed mod {p.p}", operation="lifting.snf_repair")
    if defect.is_zero():
        return alpha

    _snf_guard(cx.n_simplices(alpha.dim), cx.n_simplices(defect.dim), snf_cap,
               "lifting.snf_repair")
    op = cx.coboundary_matrix(alpha.dim) if cocycle else cx.boundary_matrix(alpha.dim)
    eta = (defect.to_array(object) // p.p).tolist()
    xi = snf.solve_integer(op, eta)
    if xi is None:
        raise TorsionObstruction(
            f"defect class is {p.p}-torsion; retry with another prime",
            operation="lifting.snf_repair")
    correction = type(alpha)(cx, alpha.dim, ZZ,
                             {i: -p.p * v for i, v in enumerate(xi) if v})
    return alpha + correction


def pigeonhole_bound(n: int, k: int) -> int:
    """Least field size beyond which scaling always succeeds: any prime p
    with p - 1 > k^n admits a working scalar for every vector in F_p^n."""
    if n < 1:
        raise ValueError("support size must be >= 1")
    if k < 2:
        raise ValueError("relation size must be >= 2")
    return k ** n + 1


def has_p_torsion(cx, degree: int, p: OddPrime, *,
                  snf_cap: int = DEFAULT_SNF_CAP) -> bool:
    """Whether p divides an elementary divisor of the boundary map into
    degree-1 chains, i.e. whether degree-th cohomology has p-torsion."""
    _check_snf_cap(snf_cap)
    if degree < 1 or degree > cx.dimension:
        return False
    _snf_guard(cx.n_simplices(degree), cx.n_simplices(degree - 1), snf_cap,
               "lifting.has_p_torsion")
    return any(d % p.p == 0 for d in snf.elementary_divisors(cx.boundary_matrix(degree)))

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
from typing import Literal, Optional, Sequence

import numpy as np

from . import snf
from .complexes import Chain, Cochain, ZZ, apply_boundary, apply_coboundary, face_signs
from .errors import (ComplexTooLargeForSnf, NotClosed, TorsionObstruction,
                     ValidationFailed)
from .fields import FpElement, OddPrime, abs_mod, inv_mod, lift_mod

DEFAULT_SNF_CAP = 1500

Kind = Literal["cocycle", "cycle"]

CERT_IN_RANGE = "InRange"
CERT_PER_FACE_RANGE = "PerFaceRange"
CERT_VERIFIED_ONLY = "VerifiedOnly"
CERT_SNF_REPAIRED = "SnfRepaired"


@dataclass(frozen=True)
class IndexSystem:
    """Signed vanishing relations over the support of an F_p (co)chain.

    Each relation is a tuple of (position, sign) pairs with
    sum_j sign_j * c_j = 0 in F_p; positions are simplex indices. Signs fold
    the orientation of each face into the relation, which leaves the
    magnitude bounds untouched.
    """

    dim: int
    prime: int
    relations: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        for rel in self.relations:
            if not rel:
                raise ValueError("empty relation")

    @staticmethod
    def check(relations, entries, p: int) -> None:
        for rel in relations:
            if sum(sign * entries.get(pos, 0) for pos, sign in rel) % p:
                raise NotClosed(
                    f"relation {rel} does not vanish mod {p}",
                    operation="lifting.cocycle_index_system",
                )

    def bounds(self, support: Sequence[int]) -> dict[int, int]:
        """Per-position bound: min over containing relations of
        floor((p-1)/|relation|); positions in no relation are only limited
        by the lift range (p-1)/2 itself."""
        p = self.prime
        out = {pos: (p - 1) // 2 for pos in support}
        for rel in self.relations:
            b = (p - 1) // len(rel)
            for pos, _ in rel:
                if pos in out and b < out[pos]:
                    out[pos] = b
        return out


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
    return c.map_coefficients(lambda v: lift_mod(v, p), ZZ)


def _is_closed(c: Cochain | Chain, kind: Kind) -> bool:
    if kind == "cocycle":
        return apply_coboundary(c).is_zero()
    return c.dim == 0 or apply_boundary(c).is_zero()


def infer_kind(c: Cochain | Chain) -> Kind:
    return "cycle" if isinstance(c, Chain) else "cocycle"


def _runs(group: np.ndarray, pos: np.ndarray, sign: np.ndarray
          ) -> list[tuple[tuple[int, int], ...]]:
    """One relation of (position, sign) pairs per run of equal ``group``."""
    pairs = list(zip(pos.tolist(), sign.tolist()))
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(pairs)]
    return [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]


def cocycle_index_system(c: Cochain | Chain, kind: Kind | None = None) -> IndexSystem:
    """Vanishing relations certifying closedness of an F_p (co)chain.

    For an m-cocycle there is one relation per (m+1)-simplex, listing its
    faces inside the support; for an m-cycle, one relation per (m-1)-simplex
    that is a face of a support simplex. Raises NotClosed when any relation
    sum fails to vanish mod p.
    """
    kind = kind or infer_kind(c)
    p = _field_prime(c)
    cx = c.complex
    if kind == "cocycle":
        faces = cx.face_table(c.dim + 1)
        in_support = np.zeros(cx.n_simplices(c.dim), dtype=bool)
        in_support[list(c.entries)] = True
        row, col = np.nonzero(in_support[faces])
        relations = _runs(row, faces[row, col], np.array(face_signs(c.dim + 1))[col])
    else:
        if c.dim < 1:
            raise ValueError("cycles of degree 0 have no face relations")
        support = np.array(sorted(c.entries), dtype=np.int64)
        faces = cx.face_table(c.dim)[support].ravel()
        order = np.argsort(faces, kind="stable")
        row, col = np.divmod(order, c.dim + 1)
        relations = _runs(faces[order], support[row], np.array(face_signs(c.dim))[col])
    IndexSystem.check(relations, c.entries, p)
    return IndexSystem(c.dim, p, tuple(relations))


def scaling_search(c: Cochain | Chain,
                   bounds: dict[int, int]) -> Optional[FpElement]:
    """Smallest r in F_p^* with abs_p(r * c_j) <= bounds[j] on the support.

    Only r <= (p-1)/2 needs scanning: r and p-r scale to pointwise-negated
    vectors with identical magnitudes, so the smallest qualifying scalar is
    never in the upper half.
    """
    p = _field_prime(c)
    items = [(v, bounds[pos]) for pos, v in c.entries.items()]
    if not items:
        return FpElement(1, OddPrime(p))
    for r in range(1, (p - 1) // 2 + 1):
        if all(abs_mod(r * v, p) <= b for v, b in items):
            return FpElement(r, OddPrime(p))
    return None


def lift_closed(c: Cochain | Chain, kind: Kind | None = None, *,
                snf_cap: int = DEFAULT_SNF_CAP) -> LiftReport:
    """Lift a closed F_p (co)chain to a closed integer one.

    Routes, cheapest certificate first:
      1. scaling search under the index-system bounds (closedness guaranteed
         by the range argument: certificate InRange / PerFaceRange);
      2. plain sweep over r, keeping any scaled heuristic lift that verifies
         closed over Z (VerifiedOnly);
      3. integer repair of the r=1 lift through a Smith-normal-form solve
         (SnfRepaired), capped by ``snf_cap``.
    """
    kind = kind or infer_kind(c)
    p = _field_prime(c)
    prime = OddPrime(p)
    if not _is_closed(c, kind):
        raise NotClosed(f"input is not a {kind} over F_{p}",
                        operation="lifting.lift_closed")

    system = cocycle_index_system(c, kind)
    r = scaling_search(c, system.bounds(list(c.entries)))
    if r is not None:
        working = naive_lift(c.scale(r.value))
        cert = CERT_IN_RANGE if kind == "cocycle" else CERT_PER_FACE_RANGE
        return _finish_report(c, r, working, cert, kind)

    for rv in range(1, (p - 1) // 2 + 1):
        working = naive_lift(c.scale(rv))
        if _is_closed(working, kind):
            return _finish_report(c, FpElement(rv, prime), working,
                                  CERT_VERIFIED_ONLY, kind)

    repaired = snf_repair(naive_lift(c), prime, kind=kind, snf_cap=snf_cap)
    return _finish_report(c, FpElement(1, prime), repaired,
                          CERT_SNF_REPAIRED, kind)


def _finish_report(c, r: FpElement, working, certificate: str, kind: Kind) -> LiftReport:
    if not _is_closed(working, kind):
        raise ValidationFailed("certified lift failed the direct closedness check",
                               operation="lifting.lift_closed")
    preimage = working.scale(inv_mod(r.value, r.p))
    if preimage.reduce_mod(r.p) != c:
        raise ValidationFailed("preimage does not reduce to the input",
                               operation="lifting.lift_closed")
    return LiftReport(input=c, scaling=r, working_lift=working,
                      exact_preimage=preimage, certificate=certificate,
                      is_closed=True)


def _snf_guard(n_unknowns: int, n_equations: int, snf_cap: int, operation: str) -> None:
    if n_unknowns + n_equations > snf_cap:
        raise ComplexTooLargeForSnf(
            f"{n_unknowns}+{n_equations} simplices exceed the SNF cap {snf_cap}",
            operation=operation)


def snf_repair(alpha: Cochain | Chain, p: OddPrime, kind: Kind | None = None, *,
               snf_cap: int = DEFAULT_SNF_CAP) -> Cochain | Chain:
    """Repair an integer cochain that is closed mod p into one closed over Z.

    The defect d(alpha) is p * eta for an integer eta; solving d(xi) = eta
    exactly and subtracting p * xi removes it without changing the mod-p
    reduction. Unsolvability of the system means the obstruction class is
    genuine p-torsion: TorsionObstruction.
    """
    kind = kind or infer_kind(alpha)
    cx = alpha.complex
    defect = (apply_coboundary(alpha) if kind == "cocycle" else apply_boundary(alpha))
    if any(v % p.p for v in defect.entries.values()):
        raise NotClosed(f"input is not closed mod {p.p}", operation="lifting.snf_repair")
    if defect.is_zero():
        return alpha

    if kind == "cocycle":
        op = cx.coboundary_matrix(alpha.dim, ZZ)
    else:
        op = cx.boundary_matrix(alpha.dim, ZZ)
    _snf_guard(op.n_cols, op.n_rows, snf_cap, "lifting.snf_repair")

    eta = [0] * op.n_rows
    for i, v in defect.entries.items():
        eta[i] = int(v) // p.p
    xi = snf.solve_integer(snf.sparse_to_rows(op), eta)
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
    if degree < 1 or degree > cx.dimension:
        return False
    op = cx.boundary_matrix(degree, ZZ)
    _snf_guard(op.n_cols, op.n_rows, snf_cap, "lifting.has_p_torsion")
    return any(d % p.p == 0 for d in snf.elementary_divisors(snf.sparse_to_rows(op)))

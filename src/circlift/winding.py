"""Winding-number detection and reduction for integer cocycles.

A cocycle whose class is w times a generator wraps the circle w times, and w
divides its Kronecker pairing with any integer cycle. Reduction factors the
pairing, and for each prime factor q repeatedly checks whether the class
dies mod q; while it does, the cocycle splits as q * gamma + an integer
coboundary, and gamma carries the class with one factor of q removed. What
remains when no candidate prime divides out is a winding-1 representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import snf
from .complexes import (Chain, Cochain, ZZ, apply_boundary, apply_coboundary,
                        kronecker_pairing, spanning_forest)
from .errors import NotACocycle, NotDivisible, ValidationFailed, ZeroPairing
from .fields import is_prime, lift_mod
from .lifting import DEFAULT_SNF_CAP, _snf_guard

ROUTE_MOD_P = "ModPSolve"
ROUTE_SNF = "IntegerSnf"


@dataclass(frozen=True)
class DivideStep:
    """One exact division alpha = q * gamma + delta(potential)."""

    gamma: Cochain
    potential: Cochain
    route: str
    prop_range_certified: bool


@dataclass(frozen=True)
class WindingReport:
    """Full audit trail of a winding reduction."""

    pairing: int
    candidate_primes: tuple[int, ...]
    division_trace: tuple[tuple[int, int, str], ...]
    winding_number: int
    reduced_cocycle: Cochain
    coboundary_witness: Cochain

    def to_json_dict(self) -> dict:
        return {
            "pairing": str(self.pairing),
            "candidate_primes": list(self.candidate_primes),
            "division_trace": [
                {"prime": q, "times_divided": t, "route": route}
                for q, t, route in self.division_trace
            ],
            "winding_number": str(self.winding_number),
            "reduced_cocycle": self.reduced_cocycle.to_json_dict(),
            "coboundary_witness": self.coboundary_witness.to_json_dict(),
        }


def _require_integer_cocycle(alpha: Cochain, operation: str) -> None:
    if alpha.ring is not ZZ:
        raise ValueError("expected integer coefficients")
    if not apply_coboundary(alpha).is_zero():
        raise NotACocycle("input cochain is not a cocycle over Z", operation=operation)


def _divisible(c: Cochain, q: int) -> bool:
    return all(v % q == 0 for v in c.entries.values())


def _forest_potential(alpha: Cochain, q: int) -> tuple[Cochain, Cochain]:
    """(f, delta f) for the centred lift f of the F_q potential that
    integrates a 1-cocycle alpha mod q along a spanning forest, starting
    from 0 at each root.

    alpha - delta f vanishes mod q on every tree edge by construction, and
    on every edge exactly when alpha mod q is an F_q coboundary.
    """
    cx = alpha.complex
    phi = [0] * cx.n_vertices
    for parent, child, j, sign in spanning_forest(cx)[1]:
        phi[child] = (phi[parent] + sign * alpha.entries.get(j, 0)) % q
    f = Cochain(cx, 0, ZZ, {i: lift_mod(v, q) for i, v in enumerate(phi)})
    return f, apply_coboundary(f)


def _integer_split(alpha: Cochain, q: int, snf_cap: int,
                   operation: str) -> tuple[Cochain, Cochain] | None:
    """(f, gamma) with alpha = q * gamma + delta(f), from one integer solve
    of [delta | q I] (f, gamma) = alpha, or None when it has no solution,
    i.e. when the class of alpha does not vanish mod q."""
    cx, m = alpha.complex, alpha.dim
    n_m, n_below = cx.n_simplices(m), cx.n_simplices(m - 1)
    _snf_guard(n_below + n_m, n_m, snf_cap, operation)
    rows = snf.sparse_to_rows(cx.coboundary_matrix(m - 1, ZZ))
    for i in range(n_m):
        rows[i].extend(q if k == i else 0 for k in range(n_m))
    rhs = [0] * n_m
    for i, v in alpha.entries.items():
        rhs[i] = int(v)
    sol = snf.solve_integer(rows, rhs)
    if sol is None:
        return None
    return (Cochain(cx, m - 1, ZZ, {i: sol[i] for i in range(n_below)}),
            Cochain(cx, m, ZZ, {i: sol[n_below + i] for i in range(n_m)}))


def class_vanishes_mod(alpha: Cochain, q: int) -> bool:
    """Whether the class of an integer cocycle dies in F_q cohomology,
    i.e. alpha mod q is a coboundary over F_q.

    Degree 1 integrates along a spanning forest in O(E); higher degrees ask
    whether the integer division system of ``divide_step`` has a solution.
    """
    _require_integer_cocycle(alpha, "winding.class_vanishes_mod")
    if alpha.dim == 0:
        return _divisible(alpha, q)
    if alpha.dim == 1:
        return _divisible(alpha - _forest_potential(alpha, q)[1], q)
    return _integer_split(alpha, q, DEFAULT_SNF_CAP,
                          "winding.class_vanishes_mod") is not None


def candidate_primes(pairing: int) -> list[int]:
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


def _range_conditions_hold(deltaf: Cochain, qgamma_max: int,
                           p_work: int, m: int) -> bool:
    """Coefficient-range certificate: q*gamma and delta(f) inside the
    certified lifting range for p_work."""
    bound = (p_work - 1) // (m + 2)
    if qgamma_max > bound:
        return False
    return all(abs(v) <= bound for v in deltaf.entries.values())


def _auto_p_work(q: int, coeff_bound: int) -> int:
    p = max(q, 2 * coeff_bound, 2) + 1
    while not is_prime(p) or p == q:
        p += 1
    return p


def divide_step(alpha: Cochain, q: int, p_work: int | None = None, *,
                route: str = "auto", snf_cap: int = DEFAULT_SNF_CAP) -> DivideStep:
    """Split alpha = q * gamma + delta(f) exactly over Z.

    Mod-q route (degree 1, the default there): f is the centred lift of the
    spanning-forest potential of alpha mod q, so alpha - delta(f) is
    divisible by q entry by entry and gamma is the exact quotient; the
    result is flagged when the coefficient-range certificate for p_work
    holds. Integer route (the default in higher degrees): one exact solve of
    the combined system via Smith normal form. Either way the identity is
    verified over Z.
    """
    _require_integer_cocycle(alpha, "winding.divide_step")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if p_work is not None and (not is_prime(p_work) or p_work <= q):
        raise ValueError("p_work must be a prime larger than q")
    m = alpha.dim
    if m < 1:
        raise ValueError("degree must be >= 1")

    if route == "modp" or (route == "auto" and m == 1):
        if m != 1:
            raise ValueError("the mod-q route divides 1-cocycles only")
        f, deltaf = _forest_potential(alpha, q)
        residue = alpha - deltaf
        if not _divisible(residue, q):
            raise NotDivisible(f"class does not vanish mod {q}",
                               operation="winding.divide_step")
        gamma = residue.map_coefficients(lambda v: v // q, ZZ)
        if gamma.scale(q) + deltaf != alpha:
            raise ValidationFailed("division identity broken",
                                   operation="winding.divide_step")
        qgamma_max = int(gamma.max_abs()) * q
        p_eff = p_work or _auto_p_work(q, max(qgamma_max, int(deltaf.max_abs())))
        certified = _range_conditions_hold(deltaf, qgamma_max, p_eff, m)
        return DivideStep(gamma, f, ROUTE_MOD_P, certified)

    split = _integer_split(alpha, q, snf_cap, "winding.divide_step")
    if split is None:
        raise NotDivisible(f"class does not vanish mod {q}",
                           operation="winding.divide_step")
    f, gamma = split
    if gamma.scale(q) + apply_coboundary(f) != alpha:
        raise ValidationFailed("division identity broken",
                               operation="winding.divide_step")
    return DivideStep(gamma, f, ROUTE_SNF, False)


def reduce_winding(alpha: Cochain, beta: Chain, p_work: int | None = None, *,
                   route: str = "auto", snf_cap: int = DEFAULT_SNF_CAP) -> WindingReport:
    """Reduce an integer cocycle to a winding-1 representative.

    Factors the Kronecker pairing with beta, divides out each candidate
    prime while the class keeps vanishing mod it, and returns the full
    division trace. The output satisfies
    alpha = winding_number * reduced + delta(witness) exactly.
    """
    _require_integer_cocycle(alpha, "winding.reduce_winding")
    if beta.dim > 0 and not apply_boundary(beta).is_zero():
        raise ValueError("beta must be an integer cycle")
    pairing = kronecker_pairing(alpha, beta)
    primes = candidate_primes(pairing)

    current = alpha
    omega = 1
    witness = Cochain(alpha.complex, alpha.dim - 1, ZZ, {})
    trace: list[tuple[int, int, str]] = []
    remaining = abs(pairing)
    for q in primes:
        times = 0
        max_times = 0
        r = remaining
        while r % q == 0:
            max_times += 1
            r //= q
        while class_vanishes_mod(current, q):
            if times >= max_times:
                raise ValidationFailed(
                    f"division by {q} exceeded the pairing bound {max_times}",
                    operation="winding.reduce_winding")
            step = divide_step(current, q, p_work, route=route, snf_cap=snf_cap)
            witness = witness + step.potential.scale(omega)
            omega *= q
            current = step.gamma
            times += 1
            trace.append((q, times, step.route))
        if times:
            remaining //= q ** times
    # collapse per-prime entries to (prime, total divisions, last route)
    collapsed: dict[int, tuple[int, str]] = {}
    for q, times, rt in trace:
        collapsed[q] = (times, rt)
    final_trace = tuple((q, t, rt) for q, (t, rt) in sorted(collapsed.items()))

    for q in primes:
        if class_vanishes_mod(current, q):
            raise ValidationFailed(f"reduced class still vanishes mod {q}",
                                   operation="winding.reduce_winding")
    if current.scale(omega) + apply_coboundary(witness) != alpha:
        raise ValidationFailed("winding decomposition identity broken",
                               operation="winding.reduce_winding")
    return WindingReport(
        pairing=pairing,
        candidate_primes=tuple(primes),
        division_trace=final_trace,
        winding_number=omega,
        reduced_cocycle=current,
        coboundary_witness=witness,
    )

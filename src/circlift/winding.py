"""Winding-number detection and reduction for integer cocycles.

A cocycle whose class is w times a generator wraps the circle w times, and w
divides its Kronecker pairing with any integer cycle. Reduction factors the
pairing, and for each prime factor q repeatedly checks whether the class
dies mod q; while it does, the cocycle splits as q * gamma + an integer
coboundary, and gamma carries the class with one factor of q removed. What
remains when no candidate prime divides out is a winding-1 representative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import snf
from .complexes import (Chain, Cochain, ZZ, _require_integer_cocycle, coboundary_array,
                        exact_dtype, forest_potential, is_closed, kronecker_pairing)
from .errors import NotDivisible, ValidationFailed, ZeroPairing
from .fields import is_prime
from .lifting import DEFAULT_SNF_CAP, _centred, _check_snf_cap, _snf_guard

ROUTE_MOD_P = "ModPSolve"
ROUTE_SNF = "IntegerSnf"


@dataclass(frozen=True)
class DivideStep:
    """One exact division alpha = q * gamma + delta(potential)."""

    gamma: Cochain
    potential: Cochain
    route: str


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


def _split(alpha: Cochain, q: int, route: str, snf_cap: int,
           operation: str) -> tuple[Cochain, Cochain, str] | None:
    """(f, gamma, route label) with alpha = q * gamma + delta(f) exactly, or
    None when the class of the integer cocycle alpha does not vanish mod q:
    the split is the vanishing test. "auto" integrates along the spanning
    forest in degree 1 ("modp") and solves [delta | q I] (f, gamma) = alpha
    over Z above it ("snf")."""
    if route not in ("auto", "modp", "snf"):
        raise ValueError(f"unknown division route {route!r}")
    cx, m = alpha.complex, alpha.dim
    if route == "modp" or (route == "auto" and m == 1):
        if m != 1:
            raise ValueError("the mod-q route divides 1-cocycles only")
        # f: centred lift of alpha mod q integrated from 0 at each forest
        # root; alpha - delta f vanishes mod q on tree edges by construction,
        # and on every edge exactly when alpha mod q is an F_q coboundary.
        # |delta f| < q, so every intermediate is below |alpha| + 2q.
        a = alpha.to_array(exact_dtype(alpha.coefficient_bound() + 2 * q))
        f = _centred(forest_potential(cx, a, q), q)
        residue = a - coboundary_array(cx, 0, f)
        if (residue % q != 0).any():
            return None
        return (Cochain.from_array(cx, 0, ZZ, f), Cochain.from_array(cx, 1, ZZ, residue // q),
                ROUTE_MOD_P)
    n_m, n_below = cx.n_simplices(m), cx.n_simplices(m - 1)
    _snf_guard(n_below + n_m, n_m, snf_cap, operation)
    # the q I block stays in Python ints: q may exceed 2^63
    rows = [row + [q if k == i else 0 for k in range(n_m)]
            for i, row in enumerate(cx.coboundary_matrix(m - 1).tolist())]
    sol = snf.solve_integer(rows, alpha.to_array().tolist())
    if sol is None:
        return None
    return (Cochain(cx, m - 1, ZZ, dict(enumerate(sol[:n_below]))),
            Cochain(cx, m, ZZ, dict(enumerate(sol[n_below:]))), ROUTE_SNF)


def _decomposes(alpha: Cochain, omega: int, reduced: Cochain, witness: Cochain) -> bool:
    """Whether alpha = omega * reduced + delta(witness) exactly."""
    m = alpha.dim
    bound = (omega * reduced.coefficient_bound() + (m + 1) * witness.coefficient_bound()
             + alpha.coefficient_bound())
    dtype = exact_dtype(bound)
    total = omega * reduced.to_array(dtype) + coboundary_array(
        alpha.complex, m - 1, witness.to_array(dtype))
    return np.array_equal(total, alpha.to_array(dtype))


def class_vanishes_mod(alpha: Cochain, q: int) -> bool:
    """Whether the class of an integer cocycle dies in F_q cohomology,
    i.e. alpha mod q is a coboundary over F_q.

    Degree 1 integrates along a spanning forest in O(E); higher degrees ask
    whether the integer division system of ``divide_step`` has a solution.
    """
    _require_integer_cocycle(alpha, "winding.class_vanishes_mod")
    if alpha.dim == 0:
        return alpha.reduce_mod(q).is_zero()
    return _split(alpha, q, "auto", DEFAULT_SNF_CAP,
                  "winding.class_vanishes_mod") is not None


# differences |x - y| multiplied together between two gcds in Pollard-Brent
_BATCH = 128


def candidate_primes(pairing: int) -> list[int]:
    """Distinct prime factors of |pairing|, ascending: trial division by 2
    and the odd numbers below 10^4, then Pollard-Brent rho on the cofactor.
    Each factor is proven prime, by the trial division or by `is_prime`
    (which refuses beyond its bound)."""
    if pairing == 0:
        raise ZeroPairing("pairing is zero; pick a different cycle",
                          operation="winding.candidate_primes")
    n = abs(pairing)
    out: list[int] = []
    d = 2
    while d < 10_000 and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    large, rest = set(), [n] if n > 1 else []
    while rest:
        m = rest.pop()
        # no m has a prime factor below d, so m < d^2 is prime
        if m < d * d or is_prime(m):
            large.add(m)
        elif root := _perfect_root(m):
            rest.append(root)
        else:
            f = _pollard_brent(m)
            rest += [f, m // f]
    return out + sorted(large)


def _perfect_root(m: int) -> int | None:
    """r with r^k = m for some k >= 2, or None. Rho splits a prime power
    p^k only after about sqrt(p) steps, so powers are taken apart first;
    m has no prime factor below 10^4, so k < log(m) / log(10^4)."""
    for k in range(2, m.bit_length() // 13 + 1):
        # Newton's method from above gives floor(m^(1/k))
        x = 1 << -(-m.bit_length() // k)
        while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
            x = y
        if x ** k == m:
            return x
    return None


def _pollard_brent(n: int) -> int:
    """A proper factor of the composite n with no prime factor below 10^4:
    Brent's cycle finding on y -> y^2 + c mod n, with the differences
    multiplied up between gcds (Brent, "An improved Monte Carlo
    factorization algorithm", 1980), for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _BATCH
            r *= 2
        if g == n:      # the batch overshot: step again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def divide_step(alpha: Cochain, q: int, *, route: str = "auto",
                snf_cap: int = DEFAULT_SNF_CAP) -> DivideStep:
    """Split alpha = q * gamma + delta(f) exactly over Z.

    Mod-q route (degree 1, the default there): f is the centred lift of the
    spanning-forest potential of alpha mod q, so alpha - delta(f) is
    divisible by q entry by entry and gamma is the exact quotient. Integer
    route (the default in higher degrees): one exact solve of the combined
    system via Smith normal form. Either way the identity is verified over Z.
    """
    _check_snf_cap(snf_cap)
    _require_integer_cocycle(alpha, "winding.divide_step")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if alpha.dim < 1:
        raise ValueError("degree must be >= 1")

    split = _split(alpha, q, route, snf_cap, "winding.divide_step")
    if split is None:
        raise NotDivisible(f"class does not vanish mod {q}",
                           operation="winding.divide_step")
    f, gamma, label = split
    if not _decomposes(alpha, q, gamma, f):
        raise ValidationFailed("division identity broken",
                               operation="winding.divide_step")
    return DivideStep(gamma, f, label)


def reduce_winding(alpha: Cochain, beta: Chain, *,
                   snf_cap: int = DEFAULT_SNF_CAP) -> WindingReport:
    """Reduce an integer cocycle to a winding-1 representative.

    Factors the Kronecker pairing with beta, divides out each candidate
    prime while the class keeps vanishing mod it, and returns the full
    division trace. alpha is checked closed once; the output satisfies
    alpha = winding_number * reduced + delta(witness) exactly, which is
    checked at the end and makes every intermediate quotient closed too.
    """
    operation = "winding.reduce_winding"
    _check_snf_cap(snf_cap)
    _require_integer_cocycle(alpha, operation)
    if beta.ring is not ZZ or not is_closed(beta):
        raise ValueError("beta must be an integer cycle")
    pairing = kronecker_pairing(alpha, beta)
    primes = candidate_primes(pairing)

    current, omega = alpha, 1
    # the witness sum of omega * f accumulates on an array; its bound
    # covers every partial sum and omega itself
    witness, bound = np.zeros(alpha.complex.n_simplices(alpha.dim - 1), dtype=np.int64), 1
    trace: list[tuple[int, int, str]] = []
    for q in primes:
        max_times, r = 0, abs(pairing)
        while r % q == 0:
            max_times, r = max_times + 1, r // q
        times = 0
        # the split that fails proves the class no longer vanishes mod q; a
        # later split alpha = q' gamma + delta f by another prime keeps it so
        while (split := _split(current, q, "auto", snf_cap, operation)) is not None:
            if times == max_times:
                raise ValidationFailed(
                    f"division by {q} exceeded the pairing bound {max_times}",
                    operation=operation)
            f, current, label = split
            bound += omega * f.coefficient_bound()
            dtype = exact_dtype(bound)
            witness = witness.astype(dtype) + omega * f.to_array(dtype)
            omega *= q
            times += 1
        if times:
            trace.append((q, times, label))

    witness = Cochain.from_array(alpha.complex, alpha.dim - 1, ZZ, witness)
    if not _decomposes(alpha, omega, current, witness):
        raise ValidationFailed("winding decomposition identity broken",
                               operation=operation)
    return WindingReport(
        pairing=pairing,
        candidate_primes=tuple(primes),
        division_trace=tuple(trace),
        winding_number=omega,
        reduced_cocycle=current,
        coboundary_witness=witness,
    )

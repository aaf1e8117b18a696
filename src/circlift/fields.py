"""Exact arithmetic in F_p for odd primes.

Provides a proven primality test, odd prime moduli, elements of F_p, and
scalar maps for the canonical representative absolute value, inverses and
the centred lift and reduction between F_p and Z. The lift itself works on
coefficient arrays (``lifting._centred``). Everything here is pure and
immutable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import PrimalityUnproven, ZeroInverse


# Miller-Rabin to the first 13 prime bases proves n prime below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test to the first 13 prime
    bases. A witness proves n composite at any size; passing all 13 proves
    n prime below `PRIMALITY_BOUND`, and above it raises
    `PrimalityUnproven` rather than call a probable prime a prime.
    Remembered, so each prime a run works over is proven once."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_BOUND:
        raise PrimalityUnproven(
            f"{n} passes Miller-Rabin to the first 13 prime bases, which proves "
            f"primality only below {PRIMALITY_BOUND:,}", operation="finite_field.is_prime")
    return True


@dataclass(frozen=True)
class OddPrime:
    """An odd prime modulus. p = 2 is rejected: every lifting statement
    assumes an odd prime."""

    p: int

    def __post_init__(self) -> None:
        try:        # a numpy integer is stored as the Python int it stands for
            object.__setattr__(self, "p", operator.index(self.p))
        except TypeError:
            raise ValueError(f"prime must be an integer, got {self.p!r}") from None
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p < 3:
            raise ValueError("modulus must be an odd prime (p >= 3)")

    def __int__(self) -> int:
        return self.p


@dataclass(frozen=True)
class FpElement:
    """An element of F_p stored by its canonical representative in [0, p)."""

    value: int
    prime: OddPrime

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.prime.p:
            raise ValueError(f"value {self.value} outside [0, {self.prime.p})")

    @property
    def p(self) -> int:
        return self.prime.p

    def __mul__(self, other: "FpElement") -> "FpElement":
        if other.prime != self.prime:
            raise ValueError("mixed moduli")
        return FpElement(self.value * other.value % self.p, self.prime)

    def __add__(self, other: "FpElement") -> "FpElement":
        if other.prime != self.prime:
            raise ValueError("mixed moduli")
        return FpElement((self.value + other.value) % self.p, self.prime)

    def __neg__(self) -> "FpElement":
        return FpElement(-self.value % self.p, self.prime)


# Integer-level twins of the FpElement operations, on plain ints. Of these,
# only inv_mod has callers in the library: the coefficient code works on
# arrays.

def abs_mod(value: int, p: int) -> int:
    v = value % p
    return min(v, p - v)


def lift_mod(value: int, p: int) -> int:
    """Centered representative: the unique integer in [-(p-1)/2, (p-1)/2]
    congruent to ``value`` (ties at (p-1)/2 resolve positive)."""
    v = value % p
    return v if v <= (p - 1) // 2 else v - p


def inv_mod(value: int, p: int) -> int:
    """Multiplicative inverse in [1, p) modulo a prime p."""
    v = int(value) % p
    if v == 0:
        raise ZeroInverse("0 has no multiplicative inverse", operation="finite_field.inverse")
    return pow(v, -1, p)


def abs_p(x: FpElement) -> int:
    """min{i(x), p - i(x)}: distance of x from 0 among canonical reps."""
    return abs_mod(x.value, x.p)


def inverse(x: FpElement) -> FpElement:
    if x.value == 0:
        raise ZeroInverse("0 has no multiplicative inverse", operation="finite_field.inverse")
    return FpElement(inv_mod(x.value, x.p), x.prime)


def lift_coeff(x: FpElement) -> int:
    """Lift to the centered integer representative; |lift_coeff(x)| = abs_p(x)."""
    return lift_mod(x.value, x.p)


def reduce_coeff(z: int, p: OddPrime) -> FpElement:
    """Quotient map Z -> F_p, normalized to [0, p)."""
    return FpElement(z % p.p, p)


def range_bound(p: OddPrime, k: int) -> int:
    """Half-width floor((p-1)/k) of the coefficient range that certifies
    lifting of a vector subject to vanishing sums of k terms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (p.p - 1) // k


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]

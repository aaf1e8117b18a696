import math
import re
import time

import numpy as np
import pytest

from circlift.errors import PrimalityUnproven, ZeroInverse
from circlift.fields import (PRIMALITY_BOUND, FpElement, OddPrime, abs_p, inv_mod, inverse,
                             is_prime, lift_coeff, primes_in_range, range_bound,
                             reduce_coeff)
from circlift.winding import candidate_primes
from oracles import reference_candidate_primes, reference_is_prime


def fp(v, p):
    return FpElement(v, OddPrime(p))


class TestOddPrime:
    def test_accepts_odd_primes(self):
        for p in (3, 5, 7, 47, 101):
            assert OddPrime(p).p == p

    @pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 91])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            OddPrime(bad)

    def test_numpy_integer_is_stored_as_int(self):
        for p in (np.int64(47), np.uint16(47), np.int8(3)):
            prime = OddPrime(p)
            assert type(prime.p) is int and prime == OddPrime(int(p))

    @pytest.mark.parametrize("bad", [47.0, "47", None, np.float64(47.0)])
    def test_rejects_what_is_not_an_integer_by_name(self, bad):
        with pytest.raises(ValueError,
                           match=f"^prime must be an integer, got {re.escape(repr(bad))}$"):
            OddPrime(bad)


class TestAbs:
    def test_examples(self):
        assert abs_p(fp(3, 7)) == 3
        assert abs_p(fp(4, 7)) == 3
        assert abs_p(fp(0, 13)) == 0

    def test_never_exceeds_half(self):
        for p in primes_in_range(3, 101):
            assert all(abs_p(fp(x, p)) <= (p - 1) // 2 for x in range(p))


class TestInverse:
    def test_examples(self):
        assert inverse(fp(2, 7)).value == 4
        assert inverse(fp(1, 13)).value == 1
        assert inverse(fp(6, 7)).value == 6

    def test_zero_raises(self):
        with pytest.raises(ZeroInverse):
            inverse(fp(0, 7))
        for value in (0, 14, -7, np.int64(21)):
            with pytest.raises(ZeroInverse, match="^0 has no multiplicative inverse$"):
                inv_mod(value, 7)

    def test_inv_mod_of_any_integer_type(self):
        # negative values, numpy integers and a prime past 2^61
        for value, p in ((-3, 7), (np.int64(3), 7), (np.int64(-10**6), 1009),
                         (2**70 + 5, 2**61 - 1), (3, 2**127 - 1)):
            inv = inv_mod(value, p)
            assert type(inv) is int and 1 <= inv < p and inv * int(value) % p == 1

    def test_involution_exhaustive(self):
        for p in primes_in_range(3, 101):
            for x in range(1, p):
                e = fp(x, p)
                assert inverse(inverse(e)) == e
                assert (x * inverse(e).value) % p == 1


class TestLiftReduce:
    def test_lift_examples(self):
        assert lift_coeff(fp(4, 7)) == -3
        assert lift_coeff(fp(3, 7)) == 3

    def test_boundary_tie_is_positive(self):
        for p in (3, 7, 13, 47):
            half = (p - 1) // 2
            assert lift_coeff(fp(half, p)) == half

    def test_reduce_examples(self):
        assert reduce_coeff(-3, OddPrime(7)).value == 4
        assert reduce_coeff(8, OddPrime(7)).value == 1
        assert reduce_coeff(0, OddPrime(13)).value == 0

    def test_round_trip(self):
        for p in primes_in_range(3, 101):
            half = (p - 1) // 2
            for z in range(-half, half + 1):
                assert lift_coeff(reduce_coeff(z, OddPrime(p))) == z

    def test_norm_preservation_exhaustive(self):
        # |lift(x)| equals the field absolute value, for every x and p <= 101
        for p in primes_in_range(3, 101):
            for x in range(p):
                e = fp(x, p)
                assert abs(lift_coeff(e)) == abs_p(e)


class TestRangeBound:
    def test_examples(self):
        assert range_bound(OddPrime(7), 3) == 2
        assert range_bound(OddPrime(47), 3) == 15
        assert range_bound(OddPrime(7), 7) == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            range_bound(OddPrime(7), 0)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes


def test_fp_element_arithmetic():
    assert (fp(3, 7) * fp(5, 7)).value == 1
    assert (fp(6, 7) + fp(3, 7)).value == 2
    assert (-fp(2, 7)).value == 5
    with pytest.raises(ValueError):
        FpElement(7, OddPrime(7))
    for op in (lambda a, b: a * b, lambda a, b: a + b):
        with pytest.raises(ValueError, match="^mixed moduli$"):
            op(fp(3, 7), fp(3, 11))


class TestNumberTheory:
    """Miller-Rabin and Pollard-Brent against trial division."""

    def test_every_small_number(self):
        for n in range(-2, 10**5):
            assert is_prime(n) == reference_is_prime(n), n
        for n in range(1, 10**5):
            assert candidate_primes(n) == reference_candidate_primes(n), n
            assert candidate_primes(-n) == candidate_primes(n)

    def test_random_numbers_below_10_to_12(self):
        rng = np.random.default_rng(11)
        # uniform draws, and draws near 10^12 / k^2 with a square factor k^2
        numbers = rng.integers(2, 10**12, 200).tolist()
        numbers += [k * k * int(rng.integers(1, 10**12 // (k * k)))
                    for k in (3, 10007, 99991)]
        for n in numbers:
            assert is_prime(n) == reference_is_prime(n), n
            assert candidate_primes(n) == reference_candidate_primes(n), n

    @pytest.mark.parametrize("n, factors", [
        # a strong pseudoprime to the bases 2, 3, 5 and 7
        (3_215_031_751, [151, 751, 28351]),
        # Carmichael numbers
        (561, [3, 11, 17]), (1105, [5, 13, 17]), (1729, [7, 13, 19]),
        (41041, [7, 11, 13, 41]),
    ])
    def test_pseudoprimes(self, n, factors):
        assert not is_prime(n)
        assert candidate_primes(n) == factors
        assert math.prod(factors) == n

    def test_large_factors(self):
        p, q = 100_000_000_003, 100_000_000_019
        assert is_prime(p) and is_prime(q)
        assert candidate_primes(p * q) == [p, q]
        # a prime power far beyond trial division, and a power of a product
        assert candidate_primes(3 * (2**61 - 1) ** 2) == [3, 2**61 - 1]
        assert candidate_primes(10007**2 * 10009**5) == [10007, 10009]

    def test_mersenne_prime_is_fast(self):
        is_prime.cache_clear()
        t0 = time.perf_counter()
        assert OddPrime(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - t0 < 0.01

    def test_refuses_above_the_bound(self):
        # 2^89 - 1 and 2^127 - 1 are prime: no test here proves it
        for p in (2**89 - 1, 2**127 - 1):
            assert p > PRIMALITY_BOUND
            with pytest.raises(PrimalityUnproven,
                               match=re.escape(f"{PRIMALITY_BOUND:,}")):
                is_prime(p)
        # a witness proves a number composite at any size
        assert not is_prime((2**61 - 1) * (2**89 - 1))
        assert not is_prime(2**200)

"""Unit and property tests for repro.crypto.numtheory."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.groups import QRGroup
from repro.crypto.numtheory import (
    crt,
    egcd,
    is_probable_prime,
    is_quadratic_residue,
    jacobi,
    legendre,
    modinv,
    next_probable_prime,
    sqrt_mod,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 4, 6, 9, 100, 7917, 2**31, 2**61 - 2]
# Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers_rejected(self, n):
        assert not is_probable_prime(n)

    def test_negative_and_small(self):
        assert not is_probable_prime(-7)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)

    def test_large_prime_product_rejected(self):
        p, q = 2**61 - 1, 2**31 - 1
        assert not is_probable_prime(p * q)

    def test_agrees_with_sieve_below_10000(self):
        sieve = [True] * 10000
        sieve[0] = sieve[1] = False
        for i in range(2, 100):
            if sieve[i]:
                for j in range(i * i, 10000, i):
                    sieve[j] = False
        for n in range(10000):
            assert is_probable_prime(n) == sieve[n], n

    def test_probabilistic_branch_large(self):
        # Above the deterministic-witness bound (~3.3e24).
        p = 2**89 - 1  # Mersenne prime
        assert is_probable_prime(p, rounds=20, rng=random.Random(1))
        assert not is_probable_prime(p + 2, rounds=20, rng=random.Random(1))


class TestNextPrime:
    def test_simple(self):
        assert next_probable_prime(1) == 2
        assert next_probable_prime(2) == 3
        assert next_probable_prime(3) == 5
        assert next_probable_prime(14) == 17

    def test_strictly_greater(self):
        assert next_probable_prime(17) == 19

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_result_is_prime_and_greater(self, n):
        p = next_probable_prime(n)
        assert p > n
        assert is_probable_prime(p)


class TestEgcdModinv:
    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200)
    def test_egcd_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=100)
    def test_modinv_against_prime(self, a):
        p = 1_000_000_007
        inverse = modinv(a, p)
        assert (a * inverse) % p == 1
        assert 0 <= inverse < p

    def test_modinv_noninvertible_raises(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_modinv_of_negative(self):
        assert ((-3) * modinv(-3, 17)) % 17 == 1


class TestJacobiLegendre:
    def test_requires_odd_positive(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)
        with pytest.raises(ValueError):
            jacobi(3, 0)

    @pytest.mark.parametrize("p", [7, 11, 13, 101, 7919])
    def test_legendre_matches_brute_force(self, p):
        residues = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert legendre(a, p) == expected, (a, p)

    def test_multiplicativity(self):
        p = 1009
        rng = random.Random(0)
        for _ in range(100):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert jacobi(a * b % p, p) == jacobi(a, p) * jacobi(b, p)

    def test_is_quadratic_residue(self):
        assert is_quadratic_residue(4, 7)
        assert not is_quadratic_residue(3, 7)

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_matches_eulers_criterion_at_protocol_sizes(self, bits):
        """(a/p) = a^((p-1)/2) mod p, read as -1, 0 or 1."""
        p = QRGroup.for_bits(bits).p
        rng = random.Random(bits)
        edges = [0, 1, 2, 4, p - 1, p, p + 1, 2 * p, 7 * p, -1, -p, 1 << 40,
                 (1 << 40) * 3, p << 5]
        for a in edges + [rng.getrandbits(bits + 8) for _ in range(60)]:
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (-1 if euler == p - 1 else euler), a

    def test_matches_the_bit_at_a_time_reference(self):
        """The one-shift strip of trailing zeros equals the loop it
        replaced, composite odd moduli and n = 1 included."""

        def reference(a, n):
            a %= n
            result = 1
            while a != 0:
                while a % 2 == 0:
                    a //= 2
                    if n % 8 in (3, 5):
                        result = -result
                a, n = n, a
                if a % 4 == 3 and n % 4 == 3:
                    result = -result
                a %= n
            return result if n == 1 else 0

        rng = random.Random(5)
        moduli = [1, 3, 9, 15, 21, 45, 3 * 5 * 7 * 11, 7919 * 10007]
        moduli += [rng.getrandbits(200) | 1 for _ in range(20)]
        for n in moduli:
            for a in [0, n, 3 * n, 1 << 64] + [
                rng.getrandbits(220) for _ in range(20)
            ]:
                assert jacobi(a, n) == reference(a, n), (a, n)
        assert all(jacobi(a, 1) == 1 for a in range(-3, 4))

    def test_composite_modulus_is_the_product_over_prime_factors(self):
        for a in range(60):
            assert jacobi(a, 15) == legendre(a, 3) * legendre(a, 5)
            assert jacobi(a, 45) == legendre(a, 3) ** 2 * legendre(a, 5)


class TestSqrtMod:
    @pytest.mark.parametrize("p", [7, 11, 103, 10007])  # p % 4 == 3
    def test_fast_path(self, p):
        assert p % 4 == 3
        for x in range(1, min(p, 60)):
            a = x * x % p
            root = sqrt_mod(a, p)
            assert root * root % p == a

    @pytest.mark.parametrize("p", [13, 17, 101, 10009])  # p % 4 == 1
    def test_tonelli_shanks_path(self, p):
        assert p % 4 == 1
        for x in range(1, min(p, 60)):
            a = x * x % p
            root = sqrt_mod(a, p)
            assert root * root % p == a

    def test_zero(self):
        assert sqrt_mod(0, 13) == 0

    def test_non_residue_raises(self):
        with pytest.raises(ValueError):
            sqrt_mod(3, 7)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100)
    def test_roundtrip_property(self, x):
        p = 1_000_003  # prime, p % 4 == 3
        a = x * x % p
        if a == 0:
            return
        root = sqrt_mod(a, p)
        assert root * root % p == a


class TestCrt:
    def test_pair(self):
        x = crt([2, 3], [3, 5])
        assert x % 3 == 2 and x % 5 == 3

    def test_triple(self):
        x = crt([1, 2, 3], [5, 7, 11])
        assert x % 5 == 1 and x % 7 == 2 and x % 11 == 3

    def test_single(self):
        assert crt([4], [9]) == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            crt([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            crt([1, 2], [3])

    def test_non_coprime_raises(self):
        with pytest.raises(ValueError):
            crt([1, 2], [4, 6])

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100)
    def test_reconstruction_property(self, x):
        moduli = [101, 103, 107]
        residues = [x % m for m in moduli]
        product = 101 * 103 * 107
        assert crt(residues, moduli) == x % product

"""Elementary number theory used by the cryptographic substrate.

Everything here is pure Python over arbitrary-precision integers,
written for clarity first: the paper's protocols only need modular
exponentiation, Jacobi/Legendre symbols, modular inverses, and
primality testing.

The two operations on a protocol's hot path do not run here.
Exponentiation batches go through :mod:`repro.crypto.kernel`, and so
do :func:`legendre` and :func:`is_quadratic_residue`: the kernel uses
the system's GMP where it loads. :func:`jacobi` stays the pure-Python
reference that the kernel checks itself against and falls back to.
Miller-Rabin keeps the interpreter's ``pow``; its exponents are public
and it runs once per key generation.
"""

from __future__ import annotations

import random
import secrets
from typing import Any, Sequence

__all__ = [
    "is_probable_prime",
    "next_probable_prime",
    "egcd",
    "modinv",
    "jacobi",
    "legendre",
    "is_quadratic_residue",
    "sqrt_mod",
    "crt",
    "SMALL_PRIMES",
]

# Primes below 100, used for cheap trial division before Miller-Rabin.
SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# Deterministic Miller-Rabin witness sets (Sinclair / Feitsma-Galway).
# For n below the bound, testing exactly these bases is a *proof* of
# primality, not a probabilistic statement.
_DETERMINISTIC_WITNESSES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def _key_rng(rng: random.Random | None = None, seed: Any = None) -> random.Random:
    """The randomness a caller's ``rng=`` / ``seed=`` arguments ask for.

    ``rng`` itself when given, a reproducible ``random.Random(seed)``
    when a seed is, and otherwise the operating system's CSPRNG: key
    material comes from the Mersenne Twister only on request.
    """
    if rng is not None:
        return rng
    if seed is not None:
        return random.Random(seed)
    return secrets.SystemRandom()


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True means 'n may be prime'."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    For ``n`` below ~3.3e24 the test is *deterministic* (known witness
    sets); above that it is probabilistic with error at most
    ``4**-rounds``.

    Args:
        n: candidate integer.
        rounds: number of random rounds for large ``n``.
        rng: randomness source for witness selection (a fresh
            ``random.Random`` is created when omitted).

    Returns:
        True when ``n`` is (probably) prime.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p

    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for bound, witnesses in _DETERMINISTIC_WITNESSES:
        if n < bound:
            return all(_miller_rabin_round(n, a, d, r) for a in witnesses)

    rng = _key_rng(rng)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, r):
            return False
    return True


def next_probable_prime(n: int) -> int:
    """Smallest (probable) prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate > 2 and candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 1 if candidate == 2 else 2
    return candidate


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``.

    Raises:
        ValueError: when ``gcd(a, m) != 1``.
    """
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m} (gcd={g})")
    return x % m


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd ``n > 0``; in {-1, 0, 1}."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd n > 0")
    a %= n
    result = 1
    while a != 0:
        # (2/n)^t in one shift: t trailing zeros, and (2/n) = -1 exactly
        # when n = 3, 5 (mod 8) - a big-int division per bit is what
        # made this the cost of try-and-increment hashing.
        t = (a & -a).bit_length() - 1
        a >>= t
        if t & 1 and n & 7 in (3, 5):
            result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime ``p``; in {-1, 0, 1}."""
    return kernel.jacobi(a, p)


def is_quadratic_residue(a: int, p: int) -> bool:
    """True when ``a`` is a nonzero quadratic residue modulo the odd prime ``p``."""
    return kernel.jacobi(a, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of ``a`` modulo the odd prime ``p`` (Tonelli-Shanks).

    Returns the root ``x`` with ``x*x % p == a % p``; the other root is
    ``p - x``. For safe primes ``p % 4 == 3`` the fast exponent path is
    taken.

    Raises:
        ValueError: when ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)

    # Tonelli-Shanks for p % 4 == 1.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Chinese remainder theorem for pairwise-coprime moduli.

    Returns the unique ``x`` modulo ``prod(moduli)`` with
    ``x % moduli[i] == residues[i]`` for every ``i``.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have the same length")
    if not moduli:
        raise ValueError("crt requires at least one congruence")
    x, modulus = residues[0] % moduli[0], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        g, p, _ = egcd(modulus, m)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        diff = (r - x) % m
        x = (x + modulus * (diff * p % m)) % (modulus * m)
        modulus *= m
    return x


# Last: the kernel's load-time self-test calls ``jacobi`` above, so this
# module must be complete whichever of the two is imported first.
from . import kernel

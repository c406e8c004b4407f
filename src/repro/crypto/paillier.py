"""Paillier additively homomorphic encryption (substrate for aggregates).

The paper's conclusions ask: "Can we formalize models of minimal
disclosure and discover corresponding protocols for other database
operations such as aggregations?" The equijoin-sum protocol
(``"equijoin-sum"`` in :mod:`repro.protocols.spec`) is this library's
answer, and it needs an additively homomorphic cipher; Paillier (1999) is the
classical choice and is implemented here from scratch.

Construction (simplified variant with ``g = n + 1``):

* keygen: ``n = p q`` for distinct primes, ``λ = lcm(p-1, q-1)``,
  ``μ = λ^{-1} mod n``.
* encrypt: ``c = (1 + m n) r^n mod n²`` for random ``r ∈ Z*_n``.
* decrypt: ``m = L(c^λ mod n²) · μ mod n`` with ``L(x) = (x-1)/n``.
* homomorphisms: ``E(a) · E(b) = E(a+b)``; ``E(a)^k = E(k a)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import kernel
from .numtheory import _key_rng, is_probable_prime, modinv

__all__ = ["PaillierPublicKey", "PaillierPrivateKey", "generate_keypair"]


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class PaillierPublicKey:
    """Encryption key: the modulus ``n`` (``g = n + 1`` is implicit)."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def plaintext_modulus(self) -> int:
        """Messages live in ``Z_n``; sums wrap modulo ``n``."""
        return self.n

    def encrypt(self, m: int, rng: random.Random) -> int:
        """Randomized encryption of ``m mod n``."""
        m %= self.n
        n2 = self.n_squared
        while True:
            r = rng.randrange(1, self.n)
            if math.gcd(r, self.n) == 1:
                break
        return (1 + m * self.n) % n2 * kernel.pow_many([r], self.n, n2)[0] % n2

    def add(self, c1: int, c2: int) -> int:
        """``E(a) + E(b) -> E(a + b)`` (ciphertext multiplication)."""
        return c1 * c2 % self.n_squared

    def add_plain(self, c: int, k: int, rng: random.Random) -> int:
        """``E(a) + k -> E(a + k)``."""
        return self.add(c, self.encrypt(k, rng))

    def multiply_plain(self, c: int, k: int) -> int:
        """``E(a) * k -> E(k a)`` (ciphertext exponentiation)."""
        return kernel.pow_many([c], k % self.n, self.n_squared)[0]

    def rerandomize(self, c: int, rng: random.Random) -> int:
        """Fresh randomness, same plaintext (unlinkability helper)."""
        return self.add(c, self.encrypt(0, rng))

    def encrypt_zero(self, rng: random.Random) -> int:
        """A fresh encryption of zero (accumulator seed)."""
        return self.encrypt(0, rng)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Decryption key: ``λ`` and ``μ`` for the modulus in ``public``."""

    public: PaillierPublicKey
    lam: int
    mu: int

    def decrypt(self, c: int) -> int:
        """Recover ``m in Z_n`` from a ciphertext."""
        n = self.public.n
        n2 = self.public.n_squared
        if not 0 < c < n2:
            raise ValueError("ciphertext outside Z_{n^2}")
        x = kernel.pow_many([c], self.lam, n2)[0]
        l_value = (x - 1) // n
        return l_value * self.mu % n

    def decrypt_signed(self, c: int) -> int:
        """Decrypt interpreting the upper half of Z_n as negatives."""
        m = self.decrypt(c)
        return m - self.public.n if m > self.public.n // 2 else m


def generate_keypair(
    bits: int = 256, rng: random.Random | None = None
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with an (approximately) ``bits``-bit n.

    256-bit default keeps tests fast; use >= 2048 for anything real.
    """
    rng = _key_rng(rng)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(half, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            break
    n = p * q
    lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
    public = PaillierPublicKey(n)
    # With g = n + 1: L(g^λ mod n²) = λ mod n, so μ = λ^{-1} mod n.
    mu = modinv(lam, n)
    return public, PaillierPrivateKey(public=public, lam=lam, mu=mu)

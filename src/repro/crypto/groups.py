"""The group QR_p of quadratic residues modulo a safe prime.

This is ``DomF`` of the paper (Example 1): for a safe prime
``p = 2q + 1`` the quadratic residues form a cyclic group of prime
order ``q`` in which the Decisional Diffie-Hellman assumption is
believed to hold, making the power function a commutative encryption.

Because safe primes satisfy ``p % 4 == 3``, the element ``-1`` is a
*non*-residue, so for every ``c`` exactly one of ``c`` and ``p - c`` is
a quadratic residue. :meth:`QRGroup.encode` exploits this to embed the
integers ``0 .. q-2`` injectively into QR_p, which is how ``ext(v)``
payloads are carried by the multiplicative cipher of Section 4.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import kernel
from .numtheory import is_quadratic_residue, modinv
from .primes import is_safe_prime, safe_prime, sophie_germain_order

__all__ = ["QRGroup"]


@dataclass(frozen=True)
class QRGroup:
    """Quadratic residues modulo a safe prime ``p``.

    Attributes:
        p: the safe prime modulus.
        q: the group order ``(p - 1) // 2`` (prime).
    """

    p: int
    q: int = field(init=False)

    def __post_init__(self) -> None:
        if self.p % 4 != 3:
            raise ValueError("a safe prime modulus must satisfy p % 4 == 3")
        object.__setattr__(self, "q", sophie_germain_order(self.p))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_bits(cls, bits: int, rng: random.Random | None = None) -> "QRGroup":
        """Group over an embedded (or freshly generated) ``bits``-bit safe prime."""
        return cls(safe_prime(bits, rng))

    @classmethod
    def checked(cls, p: int) -> "QRGroup":
        """Construct after verifying that ``p`` really is a safe prime."""
        if not is_safe_prime(p):
            raise ValueError(f"{p} is not a safe prime")
        return cls(p)

    # ------------------------------------------------------------------
    # Basic group facts
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        """Bit length of the modulus (the paper's codeword size ``k``)."""
        return self.p.bit_length()

    @property
    def order(self) -> int:
        """Number of elements in the group, ``q``."""
        return self.q

    @property
    def generator(self) -> int:
        """A generator of QR_p.

        QR_p has prime order, so any element other than 1 generates it;
        ``4 = 2**2`` is always a quadratic residue.
        """
        return 4 % self.p

    def __contains__(self, x: object) -> bool:
        return (
            isinstance(x, int)
            and 0 < x < self.p
            and is_quadratic_residue(x, self.p)
        )

    def __len__(self) -> int:  # pragma: no cover - trivially delegating
        return self.q

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        """Group multiplication ``a * b mod p``."""
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse in the group."""
        return modinv(a, self.p)

    def pow(self, x: int, e: int) -> int:
        """Exponentiation ``x ** e mod p`` (the paper's ``f_e``)."""
        return kernel.pow_many([x], e, self.p)[0]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def random_element(self, rng: random.Random) -> int:
        """A uniformly random quadratic residue (square of a unit)."""
        x = rng.randrange(1, self.p)
        return x * x % self.p

    def random_exponent(self, rng: random.Random) -> int:
        """A uniformly random key from ``KeyF = {1 .. q-1}``.

        Every such exponent is invertible modulo the prime order ``q``,
        so each key yields a bijection of QR_p (Definition 2).
        """
        return rng.randrange(1, self.q)

    # ------------------------------------------------------------------
    # Message encoding (Section 4.2, Example 2)
    # ------------------------------------------------------------------
    @property
    def message_capacity(self) -> int:
        """Largest integer ``m`` such that ``encode(m)`` is defined (``q - 2``)."""
        return self.q - 2

    @property
    def message_capacity_bytes(self) -> int:
        """Number of whole bytes that fit in one encoded group element."""
        return (self.message_capacity.bit_length() - 1) // 8

    def encode(self, m: int) -> int:
        """Injectively encode ``0 <= m <= q - 2`` as a quadratic residue.

        Exactly one of ``m + 1`` and ``p - (m + 1)`` is a residue because
        ``-1`` is a non-residue mod a safe prime.
        """
        if not 0 <= m <= self.message_capacity:
            raise ValueError(
                f"message {m} outside encodable range [0, {self.message_capacity}]"
            )
        candidate = m + 1
        if is_quadratic_residue(candidate, self.p):
            return candidate
        return self.p - candidate

    def decode(self, x: int) -> int:
        """Inverse of :meth:`encode`."""
        if x not in self:
            raise ValueError(f"{x} is not an element of QR_p")
        candidate = x if x <= self.q else self.p - x
        return candidate - 1

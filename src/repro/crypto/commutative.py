"""Commutative encryption (Definition 2 / Example 1 of the paper).

The protocols only rely on four properties of the cipher family
``{f_e}``:

1. commutativity: ``f_e(f_e'(x)) == f_e'(f_e(x))``,
2. each ``f_e`` is a bijection of the domain,
3. ``f_e`` is invertible in polynomial time given ``e``,
4. ``f_e(y)`` is indistinguishable from random given ``(x, f_e(x), y)``
   (which follows from DDH for the power function).

:class:`PowerCipher` is the paper's Example 1 - the Pohlig-Hellman/SRA
power function ``f_e(x) = x**e mod p`` over quadratic residues modulo a
safe prime. :class:`CommutativeCipher` is the abstract interface, so a
different DDH group could be substituted without touching the
protocols.
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from typing import Iterable

from . import kernel
from .engine import CryptoEngine, SerialEngine
from .groups import QRGroup
from .numtheory import modinv

__all__ = ["CommutativeCipher", "PowerCipher", "key_fingerprint"]


def key_fingerprint(keys: Iterable[int], p: int) -> str:
    """A stable hex fingerprint of a party's cipher keys under ``p``.

    The encrypted-catalog cache keys its entries by this fingerprint so
    persisted ciphertexts are never replayed under a different key or
    modulus.  The fingerprint is a one-way digest: it identifies the
    keys without revealing them (though cache files themselves hold the
    raw keys and must stay private to their party — see the cache-key
    hygiene notes in ``docs/PROTOCOLS.md``).
    """
    digest = hashlib.sha256(b"repro-catalog-key-fp-v1")
    digest.update(int(p).to_bytes((int(p).bit_length() + 7) // 8 or 1, "big"))
    for key in keys:
        key = int(key)
        digest.update(b"\x00")
        digest.update(key.to_bytes((key.bit_length() + 7) // 8 or 1, "big"))
    return digest.hexdigest()


class CommutativeCipher(ABC):
    """Abstract commutative encryption over a finite domain."""

    @abstractmethod
    def sample_key(self, rng: random.Random) -> int:
        """Draw a key uniformly from ``KeyF``."""

    @abstractmethod
    def encrypt(self, key: int, x: int) -> int:
        """Apply ``f_key`` to a domain element."""

    @abstractmethod
    def decrypt(self, key: int, y: int) -> int:
        """Apply ``f_key^{-1}``."""

    def encrypt_many(self, key: int, xs: Iterable[int]) -> list[int]:
        """Encrypt a batch (order preserved)."""
        return [self.encrypt(key, x) for x in xs]

    def decrypt_many(self, key: int, ys: Iterable[int]) -> list[int]:
        """Decrypt a batch (order preserved)."""
        return [self.decrypt(key, y) for y in ys]

    def encrypt_sorted(self, key: int, xs: Iterable[int]) -> list[int]:
        """Encrypt a batch and reorder lexicographically.

        The paper's protocols ship ciphertext *sets* reordered
        lexicographically (footnote 3: sending them in input order would
        leak the correspondence between ciphertexts and values).
        """
        return sorted(self.encrypt(key, x) for x in xs)


class PowerCipher(CommutativeCipher):
    """The power function ``f_e(x) = x**e mod p`` over QR_p (Example 1).

    ``KeyF = {1, ..., q-1}`` with ``q = (p-1)/2`` prime, so every key is
    invertible modulo the group order and every ``f_e`` is a bijection
    with ``f_e^{-1} = f_{e^{-1} mod q}``.

    Under the Decisional Diffie-Hellman assumption in QR_p this family
    satisfies the indistinguishability property (Property 4) required by
    the security proofs.

    Batched calls (:meth:`encrypt_many`/:meth:`decrypt_many`) execute
    through a pluggable :class:`~repro.crypto.engine.CryptoEngine`, so
    the Section 6.2 ``P``-processor assumption is a constructor knob
    rather than a code change; the default serial engine is
    byte-for-byte equivalent to the loop it replaces.
    """

    def __init__(self, group: QRGroup, engine: CryptoEngine | None = None):
        self.group = group
        self.engine = engine or SerialEngine()

    @classmethod
    def for_bits(cls, bits: int, rng: random.Random | None = None) -> "PowerCipher":
        """Cipher over an embedded safe prime of the given size."""
        return cls(QRGroup.for_bits(bits, rng))

    def sample_key(self, rng: random.Random) -> int:
        return self.group.random_exponent(rng)

    def invert_key(self, key: int) -> int:
        """The decryption exponent ``key^{-1} mod q``."""
        return modinv(key, self.group.q)

    def encrypt(self, key: int, x: int) -> int:
        if not 0 < x < self.group.p:
            raise ValueError("plaintext outside Z_p^*")
        return kernel.pow_many([x], key, self.group.p)[0]

    def decrypt(self, key: int, y: int) -> int:
        return kernel.pow_many([y], self.invert_key(key), self.group.p)[0]

    def encrypt_many(self, key: int, xs: Iterable[int]) -> list[int]:
        """Encrypt a batch through the engine (order preserved)."""
        xs = list(xs)
        p = self.group.p
        for x in xs:
            if not 0 < x < p:
                raise ValueError("plaintext outside Z_p^*")
        return self.engine.pow_many(xs, key, p)

    def decrypt_many(self, key: int, ys: Iterable[int]) -> list[int]:
        # Invert the key once for the whole batch.
        inverse = self.invert_key(key)
        return self.engine.pow_many(list(ys), inverse, self.group.p)

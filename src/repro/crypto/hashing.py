"""Hashing database values into the cipher domain (Section 3.2.2).

The protocols never encrypt raw attribute values: each value ``v`` is
first hashed into the quadratic-residue group so the commutative
cipher's input "looks random" (the random-oracle assumption under which
the security statements are proved).

Two constructions are provided:

* :class:`TryIncrementHash` - SHA-256 of ``(label, value, counter)``,
  incrementing the counter until the digest, reduced modulo ``p``, is a
  quadratic residue. Expected two Legendre tests per value; the output
  is statistically close to uniform on QR_p.
* :class:`SquareHash` - one SHA-256 evaluation squared modulo ``p``.
  Cheaper (no Legendre tests) and still uniform on QR_p, at the price
  of hashing value pairs ``x`` and ``p - x`` together (harmless in the
  random-oracle model; kept as an ablation).

The module also implements the paper's collision analysis: the
closed-form bound ``1 - exp(-n(n-1)/2N)`` and the sort-based collision
check the server runs "at the start of each protocol".
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from . import kernel
from .groups import QRGroup
from .numtheory import is_quadratic_residue

__all__ = [
    "value_to_bytes",
    "DomainHash",
    "TryIncrementHash",
    "SquareHash",
    "collision_probability",
    "log10_collision_probability",
    "find_collisions",
]

Value = int | str | bytes


def value_to_bytes(value: Value) -> bytes:
    """Canonical byte encoding of a database value.

    Distinct values map to distinct byte strings (the type is part of
    the encoding), so hashing cannot be confused across types.
    """
    if isinstance(value, bytes):
        return b"B" + value
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    if isinstance(value, bool):  # bool is an int subtype; tag separately
        return b"L" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii")
    raise TypeError(f"unhashable database value type: {type(value).__name__}")


class DomainHash(ABC):
    """A hash ``h : V -> QR_p`` modelled as a random oracle."""

    def __init__(self, group: QRGroup, label: bytes = b"repro.h"):
        self.group = group
        self.label = label

    @abstractmethod
    def hash_value(self, value: Value) -> int:
        """Hash one database value into the group."""

    def hash_set(self, values: Iterable[Value]) -> list[int]:
        """Hash a collection, preserving order (the paper's ``h(V)``)."""
        return [self.hash_value(v) for v in values]

    def _digest_stream(self, value: Value, counter: int) -> int:
        """An integer derived from SHA-256 of (label, value, counter).

        Enough digest blocks are concatenated to exceed the modulus by
        64 bits, so the reduction modulo ``p`` is statistically close to
        uniform.
        """
        needed_bits = self.group.p.bit_length() + 64
        blocks = []
        block_index = 0
        encoded = value_to_bytes(value)
        while sum(len(b) for b in blocks) * 8 < needed_bits:
            h = hashlib.sha256()
            h.update(self.label)
            h.update(counter.to_bytes(8, "big"))
            h.update(block_index.to_bytes(4, "big"))
            h.update(encoded)
            blocks.append(h.digest())
            block_index += 1
        return int.from_bytes(b"".join(blocks), "big")


class TryIncrementHash(DomainHash):
    """Try-and-increment hash: retry until the candidate is a residue."""

    def hash_value(self, value: Value) -> int:
        p = self.group.p
        counter = 0
        while True:
            candidate = self._digest_stream(value, counter) % p
            if candidate != 0 and is_quadratic_residue(candidate, p):
                return candidate
            counter += 1

    def hash_set(self, values: Iterable[Value]) -> list[int]:
        """:meth:`hash_value` of each value, a round of tries at a time.

        Each round is one batched Legendre test over the values still
        trying."""
        values, p = list(values), self.group.p
        hashes, trying, counter = [0] * len(values), range(len(values)), 0
        while trying:
            candidates = [self._digest_stream(values[i], counter) % p for i in trying]
            for i, candidate, symbol in zip(trying, candidates, kernel.jacobi_many(candidates, p)):
                if symbol == 1:  # a candidate 0 has symbol 0: never taken
                    hashes[i] = candidate
            trying, counter = [i for i in trying if not hashes[i]], counter + 1
        return hashes


class SquareHash(DomainHash):
    """Hash-and-square: one digest, squared into QR_p."""

    def hash_value(self, value: Value) -> int:
        p = self.group.p
        counter = 0
        while True:
            candidate = self._digest_stream(value, counter) % p
            if candidate != 0:
                return candidate * candidate % p
            counter += 1  # pragma: no cover - probability ~2**-bits


def collision_probability(n: int, domain_size: int) -> float:
    """The paper's birthday bound ``1 - exp(-n(n-1)/2N)``.

    For 1024-bit hash values (``N ~ 2**1024 / 2`` residues) and
    ``n = 10**6`` this evaluates to ~1e-295, the number quoted in
    Section 3.2.2.
    """
    if n < 2:
        return 0.0
    exponent = -(n * (n - 1)) / (2 * domain_size)
    return -math.expm1(exponent)


def log10_collision_probability(n: int, domain_size: int) -> float:
    """``log10`` of :func:`collision_probability`, finite at any key size.

    The float bound underflows to 0.0 once ``n(n-1)/2N`` drops below
    ~2**-1074 (a 2048-bit modulus at ``n = 10**6``). For
    ``x = n(n-1)/2N < 1e-9``, ``1 - exp(-x) = x`` to nine digits, so the
    logarithm is taken of the two integers instead; above that the
    float formula is exact enough and is used as is.
    """
    if n < 2:
        return -math.inf
    pairs, twice_domain = n * (n - 1), 2 * domain_size
    if pairs * 10**9 < twice_domain:
        return math.log10(pairs) - math.log10(twice_domain)
    return math.log10(collision_probability(n, domain_size))


def find_collisions(hashes: Sequence[int]) -> list[int]:
    """Hash values occurring more than once (sort-based server check)."""
    ordered = sorted(hashes)
    collisions = []
    for previous, current in zip(ordered, ordered[1:]):
        if previous == current and (not collisions or collisions[-1] != current):
            collisions.append(current)
    return collisions

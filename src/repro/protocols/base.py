"""Shared protocol machinery: parameter suites and result objects.

A :class:`ProtocolSuite` fixes everything both parties agree on before
a protocol starts - the group (safe prime), the hash ``h`` into the
group, the commutative cipher family, and *independent* randomness for
each party. Results carry the answer, the extra information ``I`` each
party legitimately learned (set sizes), and the full
:class:`~repro.net.runner.ProtocolRun` with byte counts and recorded
views for the security audit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable

from ..crypto.commutative import PowerCipher
from ..crypto.ext_cipher import BlockExtCipher, ExtCipher
from ..crypto.groups import QRGroup
from ..crypto.hashing import DomainHash, TryIncrementHash, find_collisions
from ..crypto.numtheory import _key_rng
from ..net.runner import ProtocolRun

__all__ = [
    "HashCollisionError",
    "ProtocolSuite",
    "IntersectionResult",
    "IntersectionSizeResult",
    "EquijoinResult",
    "EquijoinSizeResult",
    "DEFAULT_BITS",
]

#: Default modulus size for library users; tests use smaller groups.
DEFAULT_BITS = 1024


class HashCollisionError(Exception):
    """Raised when the pre-protocol sorted-hash check finds a collision.

    Section 3.2.2: "a collision within V_S or V_R can be detected by
    the server at the start of each protocol by sorting the hashes".
    With >= 512-bit moduli the probability is negligible; the error
    exists so the condition is loud rather than silently corrupting the
    answer.
    """


def _suite_rngs(seed: object) -> tuple[random.Random, random.Random]:
    """R's and S's randomness for a suite: two streams derived from
    ``seed``, or (``seed=None``) the operating system's CSPRNG."""
    if seed is None:
        return _key_rng(), _key_rng()
    return random.Random(f"{seed}/R"), random.Random(f"{seed}/S")


@dataclass
class ProtocolSuite:
    """Agreed public parameters plus per-party private randomness."""

    group: QRGroup
    hash: DomainHash
    cipher: PowerCipher
    ext_cipher: ExtCipher
    rng_r: random.Random
    rng_s: random.Random

    @classmethod
    def default(
        cls,
        bits: int = DEFAULT_BITS,
        seed: int | None = None,
        hash_cls: type[DomainHash] = TryIncrementHash,
    ) -> "ProtocolSuite":
        """A ready-to-use suite over an embedded safe prime.

        Args:
            bits: modulus size (embedded safe primes exist for
                64..512, 768, 1024, 1536, 2048).
            seed: derives *distinct* seeds for R's and S's randomness;
                None draws both from the OS CSPRNG.
            hash_cls: domain-hash construction (ablation point).
        """
        group = QRGroup.for_bits(bits)
        rng_r, rng_s = _suite_rngs(seed)
        return cls(
            group=group,
            hash=hash_cls(group),
            cipher=PowerCipher(group),
            ext_cipher=BlockExtCipher(group),
            rng_r=rng_r,
            rng_s=rng_s,
        )

    def hash_side(self, label: str, values: list[Hashable]) -> list[int]:
        """Hash one party's value list, running the collision check."""
        hashes = self.hash.hash_set(values)
        collisions = find_collisions(hashes)
        if collisions:
            raise HashCollisionError(
                f"hash collision within {label}'s set ({len(collisions)} colliding values)"
            )
        return hashes


@dataclass
class IntersectionResult:
    """Outcome of the Section 3 protocol.

    Attributes:
        intersection: ``V_S ∩ V_R`` - R's answer.
        size_v_s: ``|V_S|`` - extra information R learns.
        size_v_r: ``|V_R|`` - extra information S learns.
        run: wire bytes + views of this execution.
    """

    intersection: set[Hashable]
    size_v_s: int
    size_v_r: int
    run: ProtocolRun


@dataclass
class IntersectionSizeResult:
    """Outcome of the Section 5.1 protocol."""

    size: int
    size_v_s: int
    size_v_r: int
    run: ProtocolRun


@dataclass
class EquijoinResult:
    """Outcome of the Section 4 protocol.

    ``matches`` maps each ``v`` in the intersection to the decrypted
    ``ext(v)`` payload S attached to it.
    """

    intersection: set[Hashable]
    matches: dict[Hashable, bytes]
    size_v_s: int
    size_v_r: int
    run: ProtocolRun


@dataclass
class EquijoinSizeResult:
    """Outcome of the Section 5.2 protocol, with its characterized leak.

    Attributes:
        join_size: ``|T_S ⋈ T_R|``.
        r_learns_s_duplicates: S's duplicate distribution ``d -> |V_S(d)|``
            as observable by R from the multiset ``Y_S``.
        s_learns_r_duplicates: R's duplicate distribution, observable by S.
        partition_overlap: ``(d_R, d_S) -> overlap count`` - what R can
            deduce by matching duplicate classes (Section 5.2).
    """

    join_size: int
    size_v_s: int
    size_v_r: int
    r_learns_s_duplicates: dict[int, int]
    s_learns_r_duplicates: dict[int, int]
    partition_overlap: dict[tuple[int, int], int]
    run: ProtocolRun


def sorted_ciphertexts(values: list[int]) -> list[int]:
    """Lexicographic reordering before shipping a ciphertext set.

    Footnote 3 of the paper: sending ciphertexts in input order would
    reveal the correspondence with the (sorted or otherwise known)
    plaintext order.
    """
    return sorted(values)

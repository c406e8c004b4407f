"""Shared protocol machinery: the collision check and the reorder.

Both parties agree on the public parameters before a protocol starts
(:class:`~repro.protocols.parties.PublicParams`: the group's safe
prime and the hash ``h`` into it) and draw their keys from their own,
independent randomness. This module holds what every protocol of the
paper applies on top: the pre-protocol hash collision check and the
lexicographic reordering of a shipped ciphertext set.
"""

from __future__ import annotations

from typing import Hashable

from ..crypto.hashing import DomainHash, find_collisions

__all__ = ["HashCollisionError", "checked_hashes", "sorted_ciphertexts"]


class HashCollisionError(Exception):
    """Raised when the pre-protocol sorted-hash check finds a collision.

    Section 3.2.2: "a collision within V_S or V_R can be detected by
    the server at the start of each protocol by sorting the hashes".
    With >= 512-bit moduli the probability is negligible; the error
    exists so the condition is loud rather than silently corrupting the
    answer.
    """


def checked_hashes(
    hash_: DomainHash, label: str, values: list[Hashable]
) -> list[int]:
    """Hash one party's value list, running the collision check."""
    hashes = hash_.hash_set(values)
    collisions = find_collisions(hashes)
    if collisions:
        raise HashCollisionError(
            f"hash collision within {label}'s set ({len(collisions)} colliding values)"
        )
    return hashes


def sorted_ciphertexts(values: list[int]) -> list[int]:
    """Lexicographic reordering before shipping a ciphertext set.

    Footnote 3 of the paper: sending ciphertexts in input order would
    reveal the correspondence with the (sorted or otherwise known)
    plaintext order.
    """
    return sorted(values)

"""The simple-but-broken hash protocol (Section 3.1) and its attack.

The naive protocol - S ships ``h(V_S)`` and R intersects locally - does
compute the right answer, but a semi-honest R can evaluate ``h`` on any
candidate value and test membership in S's set. Over a small domain R
recovers ``V_S`` completely.

Both the protocol and the dictionary attack are kept as executable
artifacts: the attack *succeeds* against this protocol and *fails*
against the commutative-encryption protocol (the hash alone is useless
without S's key), which the test suite demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ..crypto.hashing import DomainHash
from ..net.runner import ProtocolRun
from .base import ProtocolSuite

__all__ = ["NaiveIntersectionResult", "run_naive_intersection", "dictionary_attack"]


@dataclass
class NaiveIntersectionResult:
    """Answer plus everything R retains from the broken protocol."""

    intersection: set[Hashable]
    observed_hashes: set[int]
    run: ProtocolRun


def run_naive_intersection(
    v_r: Sequence[Hashable],
    v_s: Sequence[Hashable],
    suite: ProtocolSuite | None = None,
) -> NaiveIntersectionResult:
    """Execute the Section 3.1 protocol (insecure; for study only)."""
    suite = suite or ProtocolSuite.default()
    run = ProtocolRun(protocol="naive_hash_intersection")

    # Step 1 - both parties hash their sets.
    x_s = {suite.hash.hash_value(v) for v in set(v_s)}

    # Step 2 - S sends its hashed set to R.
    x_s_received = run.to_r("2:X_S", sorted(x_s))

    # Step 3 - R keeps every v whose hash appears in X_S.
    observed = set(x_s_received)
    answer = {v for v in set(v_r) if suite.hash.hash_value(v) in observed}
    return NaiveIntersectionResult(
        intersection=answer, observed_hashes=observed, run=run
    )


def dictionary_attack(
    observed: Iterable[int],
    candidate_domain: Iterable[Hashable],
    hash_fn: DomainHash,
) -> set[Hashable]:
    """The honest-but-curious attack of Section 3.1.

    For every candidate value in the (small) domain, compute ``h(v)``
    and test membership in the observed hash set. Against the naive
    protocol this recovers ``V_S`` exactly; against the
    commutative-encryption protocols the observed values are
    ``f_e(h(v))`` for an unknown key ``e``, so the attack recovers
    nothing beyond chance.
    """
    observed_set = set(observed)
    return {
        v for v in candidate_domain if hash_fn.hash_value(v) in observed_set
    }

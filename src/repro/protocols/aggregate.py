"""Equijoin-sum: a minimal-sharing aggregate (the paper's future work).

The conclusions ask for "protocols for other database operations such
as aggregations". This module contributes one, in the paper's own
style: ``R`` learns ``SUM(val_S(v))`` over ``v ∈ V_R ∩ V_S`` - e.g.
"total exposure across our common customers" - with a precisely
characterized disclosure.

Construction. Run the intersection-size flow (so matches are
*unlinkable* for R), but S attaches to each of its codewords a Paillier
encryption of the value under **S's own key**. R finds which
ciphertexts matched (without learning which of its values they belong
to), homomorphically sums them, blinds the sum with a uniform random
mask ρ, and returns one rerandomized ciphertext. S decrypts the blinded
sum and sends it back; R removes ρ.

Disclosure (declared in :class:`~repro.db.query.EquijoinSumQuery`):

* R learns the sum, the match count ``|V_S ∩ V_R|`` and ``|V_S|``;
* S learns ``|V_R|`` and the blinded sum (uniform modulo ``n``, hence
  nothing).

R never holds a decryption key, so individual values stay hidden; the
mask keeps the true sum from S. Both parties stay semi-honest, as
everywhere in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from ..net.runner import ProtocolRun
from .base import ProtocolSuite
from .spec import run_recorded

__all__ = ["EquijoinSumResult", "run_equijoin_sum"]


@dataclass
class EquijoinSumResult:
    """Outcome of the equijoin-sum protocol."""

    total: int
    match_count: int
    size_v_s: int
    size_v_r: int
    run: ProtocolRun


def run_equijoin_sum(
    v_r,
    values_s: Mapping[Hashable, int],
    suite: ProtocolSuite | None = None,
    paillier_bits: int = 256,
) -> EquijoinSumResult:
    """R learns ``sum(values_s[v] for v in V_R ∩ V_S)`` and little else.

    Args:
        v_r: R's value set.
        values_s: S's side - a map from join value to the non-negative
            integer being aggregated (amount, count, exposure...).
        suite: agreed parameters.
        paillier_bits: S's Paillier modulus size (>= 2048 for real use).
    """
    total, r_state, s_state, run = run_recorded(
        "equijoin-sum", v_r, values_s, suite, paillier_bits=paillier_bits
    )
    return EquijoinSumResult(
        total=total,
        match_count=r_state.match_count,
        size_v_s=r_state.size_v_s,
        size_v_r=s_state.size_v_r,
        run=run,
    )

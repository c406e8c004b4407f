"""Application 2: medical research (Sections 1.1, 6.2.2, Figure 2).

A researcher ``T`` wants the 2x2 contingency table of the SQL query

    select pattern, reaction, count(*)
    from T_R, T_S
    where T_R.person_id = T_S.person_id and T_S.drug = true
    group by T_R.pattern, T_S.reaction

where ``T_R(person_id, pattern)`` and ``T_S(person_id, drug,
reaction)`` live in different enterprises. Figure 2's algorithm:

    V_R  = ids in T_R            V'_R = ids whose DNA matches
    V_S  = ids that took drug    V'_S = ids with adverse reaction
    T gets IntersectionSize(V'_R, V'_S)
    T gets IntersectionSize(V'_R, V_S - V'_S)
    T gets IntersectionSize(V_R - V'_R, V'_S)
    T gets IntersectionSize(V_R - V'_R, V_S - V'_S)

using the *modified* intersection-size protocol in which the doubly
encrypted sets ``Z_R`` and ``Z_S`` are sent to ``T`` instead of back to
R and S, so neither data holder learns even the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..db.engine import equijoin, group_by_count
from ..db.table import Table
from ..net.runner import ThreePartyRun
from ..protocols.base import ProtocolSuite, sorted_ciphertexts

__all__ = [
    "ContingencyTable",
    "intersection_size_to_third_party",
    "run_medical_research",
    "plaintext_contingency",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of the four (pattern, reaction) groups among drug takers."""

    pattern_reaction: int
    pattern_no_reaction: int
    no_pattern_reaction: int
    no_pattern_no_reaction: int

    @property
    def total(self) -> int:
        return (
            self.pattern_reaction
            + self.pattern_no_reaction
            + self.no_pattern_reaction
            + self.no_pattern_no_reaction
        )

    def as_dict(self) -> dict[tuple[bool, bool], int]:
        """Counts keyed by (pattern, reaction), for comparisons."""
        return {
            (True, True): self.pattern_reaction,
            (True, False): self.pattern_no_reaction,
            (False, True): self.no_pattern_reaction,
            (False, False): self.no_pattern_no_reaction,
        }


def intersection_size_to_third_party(
    v_r: Sequence[Hashable],
    v_s: Sequence[Hashable],
    suite: ProtocolSuite,
    run: ThreePartyRun,
    label: str,
) -> int:
    """One modified intersection-size execution; the count lands at T.

    Steps 1-4(b) are as in Section 5.1, except the final sets
    ``Z_S = f_eR(f_eS(h(V_S)))`` and ``Z_R = f_eS(f_eR(h(V_R)))`` are
    shipped to the researcher, who computes ``|Z_S ∩ Z_R|``.
    """
    r_values = sorted(set(v_r), key=repr)
    s_values = sorted(set(v_s), key=repr)

    # Step 1 - hash and key generation.
    x_r = suite.hash_side("R", r_values)
    x_s = suite.hash_side("S", s_values)
    e_r = suite.cipher.sample_key(suite.rng_r)
    e_s = suite.cipher.sample_key(suite.rng_s)

    # Step 2 - single encryptions.
    y_r = suite.cipher.encrypt_many(e_r, x_r)
    y_s = suite.cipher.encrypt_many(e_s, x_s)

    # Steps 3/4(a) - exchange of singly encrypted sets between R and S.
    y_r_at_s = run.to_s(f"{label}:3:Y_R", sorted_ciphertexts(y_r))
    y_s_at_r = run.to_r(f"{label}:4a:Y_S", sorted_ciphertexts(y_s))

    # Modified step 4(b) - double encryptions go to T, reordered
    # (Z_R from S, then Z_S from R).
    z_r_at_t = run.to_t(
        f"{label}:Z_R", sorted_ciphertexts(suite.cipher.encrypt_many(e_s, y_r_at_s))
    )
    z_s_at_t = run.to_t(
        f"{label}:Z_S", sorted_ciphertexts(suite.cipher.encrypt_many(e_r, y_s_at_r))
    )

    # T computes the intersection size.
    return len(set(z_s_at_t) & set(z_r_at_t))


@dataclass
class MedicalResult:
    """T's answer plus the recorded three-party run."""

    table: ContingencyTable
    run: ThreePartyRun


def run_medical_research(
    t_r: Table,
    t_s: Table,
    suite: ProtocolSuite | None = None,
    id_column: str = "person_id",
    pattern_column: str = "pattern",
    drug_column: str = "drug",
    reaction_column: str = "reaction",
) -> MedicalResult:
    """Execute Figure 2 end to end.

    Args:
        t_r: the DNA enterprise's table (person_id, pattern: bool).
        t_s: the medical-history enterprise's table
            (person_id, drug: bool, reaction: bool).
        suite: protocol parameters shared by the four runs.
    """
    suite = suite or ProtocolSuite.default()
    run = ThreePartyRun(protocol="medical_research")

    # Local set computations (Figure 2's preamble; the set differences
    # are computed locally and fed to the protocol).
    v_r = set(t_r.column_values(id_column))
    v_r_pattern = set(t_r.where(pattern_column, True).column_values(id_column))
    drug_takers = t_s.where(drug_column, True)
    v_s = set(drug_takers.column_values(id_column))
    v_s_reaction = set(
        drug_takers.where(reaction_column, True).column_values(id_column)
    )

    table = ContingencyTable(
        pattern_reaction=intersection_size_to_third_party(
            v_r_pattern, v_s_reaction, suite, run, "q1"
        ),
        pattern_no_reaction=intersection_size_to_third_party(
            v_r_pattern, v_s - v_s_reaction, suite, run, "q2"
        ),
        no_pattern_reaction=intersection_size_to_third_party(
            v_r - v_r_pattern, v_s_reaction, suite, run, "q3"
        ),
        no_pattern_no_reaction=intersection_size_to_third_party(
            v_r - v_r_pattern, v_s - v_s_reaction, suite, run, "q4"
        ),
    )
    return MedicalResult(table=table, run=run)


def plaintext_contingency(
    t_r: Table,
    t_s: Table,
    id_column: str = "person_id",
    pattern_column: str = "pattern",
    drug_column: str = "drug",
    reaction_column: str = "reaction",
) -> ContingencyTable:
    """Ground truth: run the SQL query on the co-located tables."""
    drug_takers = t_s.where(drug_column, True)
    joined = equijoin(drug_takers, t_r, id_column)
    counts = group_by_count(joined, [pattern_column, reaction_column])
    return ContingencyTable(
        pattern_reaction=counts.get((True, True), 0),
        pattern_no_reaction=counts.get((True, False), 0),
        no_pattern_reaction=counts.get((False, True), 0),
        no_pattern_no_reaction=counts.get((False, False), 0),
    )

"""Equijoin-size leakage analysis (Section 5.2's characterization).

The equijoin-size protocol reveals, beyond the answer:

* to each party, the other side's duplicate distribution;
* to R, the overlap count ``|V_R(d) ∩ V_S(d')|`` for every pair of
  duplicate classes, where ``V(d)`` is the set of values occurring
  exactly ``d`` times.

From the overlap matrix R can sometimes pin down individual values:
if *all* values in its class ``V_R(d)`` matched (or none did), R knows
each one's membership in ``V_S`` with certainty. The two extremes the
paper points out fall out of the same computation - with all duplicate
counts equal R learns only ``|V_R ∩ V_S|``; with all counts distinct
every class is a singleton and R recovers ``V_R ∩ V_S`` exactly.

:func:`leakage_profile` computes the matrix and the per-value
consequences on plaintext multisets (ground truth the protocol run is
validated against), plus a scalar "identified fraction" used by the
leakage ablation bench. :func:`equijoin_size_leak` reads the same
quantities off one run of the protocol.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable, NamedTuple

from ..db.multiset import ValueMultiset
from ..net.transcript import View

__all__ = [
    "EquijoinSizeLeak",
    "LeakageProfile",
    "duplicate_distribution",
    "equijoin_size_leak",
    "leakage_profile",
    "overlap_matrix",
]


def overlap_matrix(
    ms_r: ValueMultiset, ms_s: ValueMultiset
) -> dict[tuple[int, int], int]:
    """``(d_R, d_S) -> |V_R(d_R) ∩ V_S(d_S)|`` over duplicate classes.

    Only nonzero entries are materialized.
    """
    partition_s = ms_s.partition_by_count()
    matrix: dict[tuple[int, int], int] = {}
    for d_r, values_r in ms_r.partition_by_count().items():
        for d_s, values_s in partition_s.items():
            overlap = len(values_r & values_s)
            if overlap:
                matrix[(d_r, d_s)] = overlap
    return matrix


def duplicate_distribution(view: View, step: str) -> dict[int, int]:
    """``d -> number of distinct ciphertexts seen d times`` in the
    multiset a party received as ``step`` - the other side's duplicate
    distribution, since encryption keeps equal values equal."""
    histogram = Counter(Counter(next(view.payloads(step))).values())
    return dict(sorted(histogram.items()))


class EquijoinSizeLeak(NamedTuple):
    """What one equijoin-size run disclosed beyond ``|T_S ⋈ T_R|``.

    Attributes:
        r_learns_s_duplicates: S's duplicate distribution ``d ->
            |V_S(d)|``, as R observes it in the multiset ``Y_S``.
        s_learns_r_duplicates: R's duplicate distribution, observed by
            S in ``Y_R``.
        partition_overlap: ``(d_R, d_S) -> overlap count`` - what R
            deduces by matching duplicate classes (Section 5.2).
    """

    r_learns_s_duplicates: dict[int, int]
    s_learns_r_duplicates: dict[int, int]
    partition_overlap: dict[tuple[int, int], int]


def equijoin_size_leak(receiver: Any, sender: Any, transcript: Any) -> EquijoinSizeLeak:
    """Section 5.2's leak, read off one equijoin-size run: its two
    party machines and its recorded ``transcript``.

    R knows ``d_R`` for each of its values and sees ``d_S`` per matched
    codeword, so grouping the matched codewords by their ``(d_R, d_S)``
    classes gives it ``|V_R(d) ∩ V_S(d')|`` for all ``d, d'``. R cannot
    link a codeword to its value itself (it lacks ``e_S``); this uses
    S's key to mirror what R infers from multiplicities alone, which
    the tests check against :func:`overlap_matrix`. A diagnostic, not a
    protocol step: one ``cipher.encrypt`` at a time, outside the
    engine, which keeps it out of every modexp count.
    """
    r_state, s_state = receiver.state, sender.state
    value_of = {
        s_state.cipher.encrypt(s_state._key, y): v
        for v, y in r_state._y_by_value.items()
    }
    overlap: Counter = Counter(
        (r_state._counts[value_of[codeword]], s_count)
        for codeword, s_count in r_state._z_s.items()
        if codeword in r_state._z_r
    )
    return EquijoinSizeLeak(
        r_learns_s_duplicates=duplicate_distribution(transcript.r_view, "4a:Y_S"),
        s_learns_r_duplicates=duplicate_distribution(transcript.s_view, "3:Y_R"),
        partition_overlap=dict(overlap),
    )


@dataclass
class LeakageProfile:
    """What R can deduce from the equijoin-size run.

    Attributes:
        matrix: the class-overlap counts R learns.
        certain_members: R values R can *prove* are in ``V_S``.
        certain_nonmembers: R values R can prove are absent from ``V_S``.
        r_class_sizes: ``d -> |V_R(d)|`` (R knows its own classes).
    """

    matrix: dict[tuple[int, int], int]
    certain_members: set[Hashable]
    certain_nonmembers: set[Hashable]
    r_class_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def identified(self) -> set[Hashable]:
        """Values whose membership status R learned exactly."""
        return self.certain_members | self.certain_nonmembers

    def identified_fraction(self, total_r_values: int) -> float:
        """Fraction of R's values whose membership R pinned down."""
        if total_r_values == 0:
            return 0.0
        return len(self.identified) / total_r_values


def leakage_profile(ms_r: ValueMultiset, ms_s: ValueMultiset) -> LeakageProfile:
    """Compute the Section 5.2 leak on plaintext multisets.

    A value ``v ∈ V_R(d)`` is *certainly a member* when every value in
    its class matched some S class (``sum_d' overlap(d, d') == |V_R(d)|``),
    and certainly a non-member when none did.
    """
    matrix = overlap_matrix(ms_r, ms_s)
    partition_r = ms_r.partition_by_count()
    matched_per_class: dict[int, int] = {}
    for (d_r, _), count in matrix.items():
        matched_per_class[d_r] = matched_per_class.get(d_r, 0) + count

    certain_members: set[Hashable] = set()
    certain_nonmembers: set[Hashable] = set()
    for d_r, values in partition_r.items():
        matched = matched_per_class.get(d_r, 0)
        if matched == len(values):
            certain_members |= values
        elif matched == 0:
            certain_nonmembers |= values

    return LeakageProfile(
        matrix=matrix,
        certain_members=certain_members,
        certain_nonmembers=certain_nonmembers,
        r_class_sizes={d: len(vs) for d, vs in partition_r.items()},
    )

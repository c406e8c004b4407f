"""Query descriptions and the minimal-sharing problem statement.

Section 2.2 states the problem as: given a query ``Q`` over the two
databases and *categories of additional information* ``I``, compute the
answer, revealing to each party nothing beyond the answer and ``I``.

These classes make the statement machine-checkable: each query type
declares its :class:`DisclosureProfile` - what R and S are allowed to
learn - and the audit machinery (:mod:`repro.protocols.audit`) verifies
a protocol run's recorded views against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Disclosure",
    "DisclosureProfile",
    "IntersectionQuery",
    "IntersectionSizeQuery",
    "EquijoinQuery",
    "EquijoinSizeQuery",
    "EquijoinSumQuery",
    "SelectionQuery",
]


class Disclosure(Enum):
    """Categories of information a party may legitimately learn."""

    OTHER_SET_SIZE = "size of the other party's value set"
    INTERSECTION = "the intersection V_S ∩ V_R"
    INTERSECTION_SIZE = "the intersection size |V_S ∩ V_R|"
    JOIN_ROWS = "ext(v) for every v in the intersection"
    JOIN_SIZE = "the equijoin size |T_S ⋈ T_R|"
    DUPLICATE_DISTRIBUTION = "the other party's duplicate distribution"
    PARTITION_OVERLAPS = "|V_R(d) ∩ V_S(d')| for duplicate classes d, d'"
    JOIN_SUM = "the aggregate SUM over the intersection"
    SELECTED_RECORD = "the single record selected by index"
    RECORD_COUNT_AND_WIDTH = "the record count and maximum record size"


@dataclass(frozen=True)
class DisclosureProfile:
    """What each party is permitted to learn from one query."""

    r_learns: frozenset[Disclosure]
    s_learns: frozenset[Disclosure]

    @classmethod
    def of(cls, r: set[Disclosure], s: set[Disclosure]) -> "DisclosureProfile":
        """Build from plain sets."""
        return cls(frozenset(r), frozenset(s))

    def describe(self) -> str:
        """Human-readable summary (used by examples and docs)."""
        r = ", ".join(sorted(d.value for d in self.r_learns)) or "nothing"
        s = ", ".join(sorted(d.value for d in self.s_learns)) or "nothing"
        return f"R learns: {r}. S learns: {s}."


@dataclass(frozen=True)
class _QueryBase:
    """Common shape of a two-party query over a shared attribute."""

    attribute: str = "A"

    @property
    def profile(self) -> DisclosureProfile:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class IntersectionQuery(_QueryBase):
    """``V_S ∩ V_R`` (Section 3): the answer goes to R."""

    @property
    def profile(self) -> DisclosureProfile:
        return DisclosureProfile.of(
            r={Disclosure.INTERSECTION, Disclosure.OTHER_SET_SIZE},
            s={Disclosure.OTHER_SET_SIZE},
        )


@dataclass(frozen=True)
class IntersectionSizeQuery(_QueryBase):
    """``|V_S ∩ V_R|`` (Section 5.1)."""

    @property
    def profile(self) -> DisclosureProfile:
        return DisclosureProfile.of(
            r={Disclosure.INTERSECTION_SIZE, Disclosure.OTHER_SET_SIZE},
            s={Disclosure.OTHER_SET_SIZE},
        )


@dataclass(frozen=True)
class EquijoinQuery(_QueryBase):
    """``T_S ⋈ T_R`` (Section 4): R also gets ``ext(v)`` on matches."""

    @property
    def profile(self) -> DisclosureProfile:
        return DisclosureProfile.of(
            r={
                Disclosure.INTERSECTION,
                Disclosure.JOIN_ROWS,
                Disclosure.OTHER_SET_SIZE,
            },
            s={Disclosure.OTHER_SET_SIZE},
        )


@dataclass(frozen=True)
class EquijoinSizeQuery(_QueryBase):
    """``|T_S ⋈ T_R|`` (Section 5.2) - with the characterized extra leak."""

    @property
    def profile(self) -> DisclosureProfile:
        return DisclosureProfile.of(
            r={
                Disclosure.JOIN_SIZE,
                Disclosure.OTHER_SET_SIZE,
                Disclosure.DUPLICATE_DISTRIBUTION,
                Disclosure.PARTITION_OVERLAPS,
            },
            s={Disclosure.OTHER_SET_SIZE, Disclosure.DUPLICATE_DISTRIBUTION},
        )


@dataclass(frozen=True)
class EquijoinSumQuery(_QueryBase):
    """``SUM(val_S(v)) over v ∈ V_S ∩ V_R`` - the aggregate extension
    answering the paper's future-work question (see
    :class:`repro.protocols.parties.EquijoinSumReceiver`)."""

    @property
    def profile(self) -> DisclosureProfile:
        return DisclosureProfile.of(
            r={
                Disclosure.JOIN_SUM,
                Disclosure.INTERSECTION_SIZE,
                Disclosure.OTHER_SET_SIZE,
            },
            s={Disclosure.OTHER_SET_SIZE},
        )


@dataclass(frozen=True)
class SelectionQuery(_QueryBase):
    """Retrieve one record by index without revealing the index
    (symmetric-PIR-style; see :mod:`repro.protocols.selection`)."""

    @property
    def profile(self) -> DisclosureProfile:
        return DisclosureProfile.of(
            r={Disclosure.SELECTED_RECORD, Disclosure.RECORD_COUNT_AND_WIDTH},
            s=set(),
        )

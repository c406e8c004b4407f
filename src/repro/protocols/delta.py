"""Incremental (delta) sessions over committed full runs.

A full protocol run is linear in |V| per query: both parties hash and
encrypt their entire catalogs.  For *series* of queries over
slowly-changing tables each party instead keeps the per-value crypto
state a run produced - the declared fields of the
:mod:`repro.protocols.parties` classes - and subsequent queries
exchange only the *delta*: newly inserted values encrypted, removed
values tombstoned by their old ciphertexts.  Every step of a delta
query is O(|delta|) - modexps, hashing, the collision check (fresh
hashes against the held ``hash -> value`` map), R's answer (maintained,
moved by what the patch touched) and the staging itself (a fork reads
the committed party through views and copies nothing) - plus, for R,
the size of the answer it hands back.  The one exception is
equijoin-sum, whose R re-sums its matched Paillier ciphertexts on
every query.

There is no delta arithmetic here.  The party steps are written once
over ``(added, removed)`` - a full run is the delta that adds the whole
table to an empty state - so this module only *drives* them: a
:class:`DeltaExchange` names the committed party and the staged churn,
a :class:`DeltaParty` normalises the churn and runs the steps on a fork
of the party, and three round steps map the
``"<name>+delta"`` schedules (registered in
:mod:`repro.protocols.spec`, marked with ``delta_of``) onto them.  The
schedules are ordinary :class:`~repro.protocols.spec.ProtocolSpec`
entries interpreted by the same generic machines, so every transport
(in-memory, plain TCP, resumable sessions with journal recovery, the
chaos harness) runs them with zero transport changes.

The committed party is never touched while the session runs; only an
explicit :meth:`DeltaParty.commit` - issued by the catalog layer after
the session completed - folds the fork back.  That keeps the factories
idempotent, which the journal replay and chaos-recovery paths rely on:
rebuilding a machine from the same exchange reproduces byte-identical
rounds (for the deterministic protocols; ``equijoin-sum`` draws
Paillier/mask randomness per query and is therefore not
journal-replay-safe - see ``docs/PROTOCOLS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .messages import Message

__all__ = ["DeltaExchange", "DeltaParty"]


@dataclass
class DeltaExchange:
    """One party's input to a delta session.

    ``state`` is the committed base party state (one that completed a
    full run), or ``make_state`` a zero-argument factory rebuilding it
    deterministically — the factory form is what makes journal replay
    and chaos restarts work: each rebuilt machine resolves the same
    base.  The resolution is cached, so repeated machine factories
    within one process share one base object.

    ``inserts`` is a tuple of ``(value, payload)`` pairs (payload is
    ``None`` for membership-only protocols, the ext bytes for equijoin,
    the integer amount for equijoin-sum; multiset protocols repeat a
    value once per inserted occurrence).  ``deletes`` is a tuple of
    values (repeated per removed occurrence for multisets).
    """

    make_state: Callable[[], Any] | None = None
    state: Any = None
    inserts: tuple = ()
    deletes: tuple = ()

    def resolve(self) -> Any:
        """The base state (building and caching it on first use)."""
        if self.state is None:
            if self.make_state is None:
                raise ValueError("DeltaExchange needs a state or a make_state")
            self.state = self.make_state()
        return self.state


class DeltaParty:
    """Either party of a delta session: the exchange's churn,
    normalised against the committed party's table (``added`` /
    ``removed``), staged on a fork of that party (``party``).

    This is the ``make_receiver`` / ``make_sender`` of every delta
    schedule.  The committed party brings its own rng and cipher, so
    of the factory arguments only ``params`` matters - it must be what
    the party was built with.  Anything else asked of this object
    (``size_v_r``, ``round2``, ``finish``...) is the fork's.
    """

    def __init__(
        self,
        exchange: DeltaExchange,
        params: Any,
        rng: Any = None,
        engine: Any = None,
        crypto: Any = None,
    ):
        self.exchange = exchange
        self.base = base = exchange.resolve()
        if base.size_v_r is None and base.size_v_s is None:
            raise ValueError(
                "delta query requires a committed full run first "
                "(the base party has not completed a query)"
            )
        if params != base.params:
            raise ValueError(
                "delta query under other public params than the committed run"
            )
        self.added, self.removed = base.churn(exchange.inserts, exchange.deletes)
        self.party = base.fork()

    def __getattr__(self, name: str) -> Any:
        if name == "party":  # not staged yet: nothing to delegate to
            raise AttributeError(name)
        return getattr(self.party, name)

    def commit(self) -> None:
        """Fold the completed delta into the committed party."""
        self.base.adopt(self.party)


def announce(state: DeltaParty, inbox: Mapping[str, Message]) -> tuple:
    """Delta ``m1``: R's inserted and tombstoned ciphertexts."""
    return state.party.own(state.added, state.removed)


def patch(state: DeltaParty, inbox: Mapping[str, Message]) -> tuple:
    """Delta ``m2``: S's own churn plus its answer to R's."""
    theirs = inbox["m1"]
    return state.party.reply(
        theirs.added, theirs.removed, state.added, state.removed
    )


def absorb(state: DeltaParty, inbox: Mapping[str, Message]) -> Any:
    """R splices S's patch into what it holds: the answer of the
    two-round protocols, equijoin-sum's blinded ``m3``."""
    return state.party.absorb(*inbox["m2"].to_parts())

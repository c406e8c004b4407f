"""Declarative protocol specs: each paper protocol as a round schedule.

The paper's four operations (intersection, equijoin, intersection
size, equijoin size) - plus the equijoin-sum aggregate - are all
instances of one commutative-encryption round pattern.  This module
captures that pattern as *data*: a :class:`ProtocolSpec` names the
rounds, types each round's payload (a dataclass from
:mod:`repro.protocols.messages`), and binds per-role step functions
over the concrete party states in :mod:`repro.protocols.parties`.

A single pair of interpreters
(:class:`~repro.protocols.parties.SenderMachine` /
:class:`~repro.protocols.parties.ReceiverMachine`) executes any spec,
and every transport - :func:`run_pair` (:meth:`ProtocolSpec.exchange`)
for two parties in one process, plain TCP, resumable sessions, the
CLI - dispatches through the :data:`PROTOCOLS` registry.
Adding a protocol to the stack is now a registry entry, not five
layers of bespoke plumbing; ``equijoin-sum`` is registered here purely
that way and is reachable over TCP with no transport code of its own.

Round naming is load-bearing: the metrics recorder derives its phase
names from the round names (``s.wait_m1``, ``r.wait_m2``...), and the
per-part transcript labels (``"3:Y_R"``, ``"4a:Y_S"``...) are the
paper's step numbers, pinned by the golden-transcript fixture and the
simulator audit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..net.runner import ProtocolRun
from . import delta
from .base import sorted_ciphertexts
from .messages import (
    BlindedSum,
    CipherList,
    DeltaAnnounce,
    EquijoinDeltaPatch,
    EquijoinReply,
    IntersectionDeltaPatch,
    IntersectionReply,
    Message,
    RevealedSum,
    SizeDeltaPatch,
    SizeReply,
    SumDeltaPatch,
    SumReply,
)
from .parties import (
    EquijoinReceiver,
    EquijoinSender,
    EquijoinSizeReceiver,
    EquijoinSizeSender,
    EquijoinSumReceiver,
    EquijoinSumSender,
    IntersectionReceiver,
    IntersectionSender,
    IntersectionSizeReceiver,
    IntersectionSizeSender,
    PublicParams,
    ReceiverMachine,
    SenderMachine,
)

__all__ = [
    "RoundSpec",
    "ProtocolSpec",
    "PROTOCOLS",
    "register",
    "get_spec",
    "run_pair",
]


@dataclass(frozen=True)
class RoundSpec:
    """One named round of a protocol.

    Attributes:
        name: wire-level round name (``"m1"``...); also the inbox key
            and the stem of the recorder phase names.
        source: which role emits the round - ``"R"`` or ``"S"``.
        message: the typed payload class for this round.
        step: ``step(state, inbox) -> message`` computed by the
            emitting party; ``inbox`` maps prior round names to their
            typed messages.
        parts: per-part transcript labels (the paper's step numbers),
            one per message field, in wire order.
        chunkable: whether this round's payload may be streamed as
            fixed-size chunks. The logical payload is unchanged - a
            chunked transmission reassembles to byte-identical wire
            form - so only rounds whose payload scales with a set size
            opt in.
        chunk_step: optional streaming producer
            ``chunk_step(state, inbox, chunk_size) -> iterator of
            (part_index, kind, body)`` chunk payloads. When present,
            the interpreters drive it instead of ``step`` on chunked
            runs, so crypto for chunk *k+1* can overlap the transmission
            of chunk *k*. It must reproduce ``step``'s message and state
            side effects exactly (the golden-transcript suite pins
            this) and, because a session restarts the stream after a
            lost link - possibly after a producer running ahead of the
            wire was already exhausted - start from the empty state and
            leave the party untouched until it is exhausted; rounds
            without one fall back to computing the full message and
            splitting it.
        eager: optional ``(part_index, step)`` for the *receiving*
            party: ``step(state, segment)`` is run on every inbound
            ``"seg"`` chunk of that part as it lands, ahead of the step
            that consumes the assembled round. It must be rng-free and
            only fill a memo that step reads (see
            :meth:`~repro.protocols.parties._Party.absorb_ahead`): a
            session is free to skip it, and discards it if it raises.
    """

    name: str
    source: str
    message: type[Message]
    step: Callable[[Any, Mapping[str, Message]], Message]
    parts: tuple[str, ...]
    chunkable: bool = False
    chunk_step: Callable[[Any, Mapping[str, Message], int], Iterator[tuple]] | None = None
    eager: tuple[int, Callable[[Any, list], None]] | None = None


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol as data: round schedule plus party factories.

    Attributes:
        name: registry key and CLI name (``"intersection-size"``...).
        rounds: the ordered round schedule.
        make_receiver: ``(data, params, rng, *, engine=, crypto=, ...)``
            building party R's state.
        make_sender: same, for party S.
        finish: ``finish(receiver_state, inbox) -> answer``.
        sender_input: which CLI reader feeds S - ``"values"``,
            ``"ext"`` or ``"amounts"``.
        answer_kind: how the CLI prints R's answer - ``"set"``,
            ``"ext-map"`` or ``"number"``.
        doc: one-line description (paper section) for ``--help``.
        warm: optional ``warm(sender_state)``: S's own-set crypto,
            which needs nothing of R's, run while S waits for ``m1``.
            Rng-free and memo-only like :attr:`RoundSpec.eager`. The
            delta schedules declare none - their crypto is O(|delta|).
        delta_of: for incremental schedules, the base protocol's
            registry name. Delta specs take a
            :class:`~repro.protocols.delta.DeltaExchange` as ``data``
            rather than raw values, so surfaces that feed raw inputs
            (the CLI ``--protocol`` choices, the one-shot facade)
            filter on this field; ``None`` for the full protocols.
    """

    name: str
    rounds: tuple[RoundSpec, ...]
    make_receiver: Callable[..., Any]
    make_sender: Callable[..., Any]
    finish: Callable[[Any, Mapping[str, Message]], Any]
    sender_input: str = "values"
    answer_kind: str = "number"
    doc: str = ""
    warm: Callable[[Any], None] | None = None
    delta_of: str | None = None

    def exchange(
        self, receiver: Any, sender: Any, chunk_size: int | None = None
    ) -> list[tuple[str, Any]]:
        """Run the schedule between two in-process party machines.

        The payloads are exactly what a transport would put on a
        socket, so the logical transcript equals a networked run's.
        Returns one ``(source, wire)`` per round - the round's wire
        form, or its list of chunk payloads where ``chunk_size``
        streams it.
        """
        wires = []
        for rnd in self.rounds:
            producer, consumer = (
                (receiver, sender) if rnd.source == "R" else (sender, receiver)
            )
            if chunk_size is not None and rnd.chunkable:
                wire = list(producer.produce_chunks(rnd, chunk_size))
                consumer.consume_chunks(rnd, wire)
            else:
                wire = producer.produce(rnd).to_wire()
                consumer.consume(rnd, wire)
            wires.append((rnd.source, wire))
        return wires

    def transcript(
        self, wires: list[tuple[str, Any]], chunk_size: int | None = None
    ) -> ProtocolRun:
        """The run :meth:`exchange` returned ``wires`` for, recorded
        *part by part* under the paper's step labels: each party's
        :class:`~repro.net.transcript.View` (what the simulators and
        the disclosure audit read) and the wire bytes. ``chunk_size``
        is the one the exchange streamed at."""
        run = ProtocolRun(protocol=self.name.replace("-", "_"))
        for rnd, (source, wire) in zip(self.rounds, wires):
            if chunk_size is not None and rnd.chunkable:
                message = rnd.message.from_wire_chunks(wire)
            else:
                message = rnd.message.from_wire(wire)
            record = run.to_s if source == "R" else run.to_r
            for label, part in zip(rnd.parts, message.to_parts()):
                record(label, part)
        return run


#: Registered protocol specs, keyed by CLI/registry name.
PROTOCOLS: dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a spec to :data:`PROTOCOLS`; returns it for assignment."""
    PROTOCOLS[spec.name] = spec
    return spec


def get_spec(protocol: str | ProtocolSpec) -> ProtocolSpec:
    """Resolve a registry name (or pass a spec through).

    Raises:
        ValueError: for a name no spec is registered under - raised
            locally, before any network activity.
    """
    if isinstance(protocol, ProtocolSpec):
        return protocol
    try:
        return PROTOCOLS[protocol]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise ValueError(
            f"unknown protocol {protocol!r} (expected one of: {known})"
        ) from None


def run_pair(
    protocol: str | ProtocolSpec,
    r_data: Any,
    s_data: Any,
    params: PublicParams,
    rng_r: random.Random,
    rng_s: random.Random,
    *,
    chunk_size: int | None = None,
    **options: Any,
) -> tuple[ReceiverMachine, SenderMachine, list[tuple[str, Any]]]:
    """Both parties of ``protocol`` in one process: the one place two
    party machines are built and exchanged.

    R draws from ``rng_r`` and S from ``rng_s``; both machines are
    built with ``options`` - ``engine``, ``recorder``, ``crypto`` and
    equijoin-sum's ``paillier_bits``, which S draws its modulus at and
    R checks it against. R finishes the run; returns ``(receiver,
    sender, wires)``, the wires as :meth:`ProtocolSpec.exchange`
    returns them. R's answer is ``receiver.finish()`` (kept from the
    run), the recorded run ``spec.transcript(wires, chunk_size)``.
    """
    spec = get_spec(protocol)
    receiver = ReceiverMachine(spec, r_data, params, rng_r, **options)
    sender = SenderMachine(spec, s_data, params, rng_s, **options)
    wires = spec.exchange(receiver, sender, chunk_size)
    receiver.finish()
    return receiver, sender, wires


def _receiver_round1(state: Any, inbox: Mapping[str, Message]) -> Message:
    """R's opening round: its encrypted (reordered) set."""
    return state.round1()


def _sender_round1(state: Any, inbox: Mapping[str, Message]) -> Message:
    """S's reply to ``m1``."""
    return state.round1(inbox["m1"])


def _receiver_round2(state: Any, inbox: Mapping[str, Message]) -> Message:
    """R's second round (aggregates), computed from S's ``m2``."""
    return state.round2(inbox["m2"])


def _sender_round2(state: Any, inbox: Mapping[str, Message]) -> Message:
    """S's second round (aggregates), computed from R's ``m3``."""
    return state.round2(inbox["m3"])


def _finish_m2(state: Any, inbox: Mapping[str, Message]) -> Any:
    """Two-round protocols: the answer comes out of S's ``m2``."""
    return state.finish(inbox["m2"])


def _finish_m4(state: Any, inbox: Mapping[str, Message]) -> Any:
    """Four-round protocols: the answer comes out of S's ``m4``."""
    return state.finish(inbox["m4"])


# ----------------------------------------------------------------------
# Streaming chunk producers
#
# Each is its round's ``step`` run per segment: the same party steps
# (``own`` for S's whole table, ``answer`` per slice of ``Y_R``) on the
# same inputs - the ciphers are deterministic, so the chunks reassemble
# to the step's message byte-for-byte - yielded as chunk payloads so
# the transport can ship chunk k while the CryptoEngine is still
# exponentiating chunk k+1. Sorted parts (``sorted_ciphertexts``)
# cannot *emit* before all their crypto is done - a privacy
# requirement, the reorder is what unlinks ciphertexts from the inbound
# order - so their modexp is instead interleaved with the emission of
# earlier parts.
# ----------------------------------------------------------------------
def _segments(items: list, chunk_size: int) -> Iterator[list]:
    """Slices of at most ``chunk_size``; an empty list yields one empty
    segment (every part contributes at least one chunk)."""
    if not items:
        yield []
        return
    for start in range(0, len(items), chunk_size):
        yield items[start : start + chunk_size]


def _restartable(producer: Callable[..., Iterator[tuple]]) -> Callable[..., Iterator[tuple]]:
    """Run a chunk producer on a fork of the party, emptied like any
    full query's state and folded back once the stream is exhausted.

    A session that loses its link mid-round restarts the stream, and
    the party steps are not repeatable on a state that has already
    taken them.  The fork keeps an abandoned attempt (its producer
    thread may still be exponentiating) off the party; the reset covers
    the attempt that was already folded back - the shells produce ahead
    of the wire, so the stream is exhausted while its last chunks are
    still unshipped."""

    def chunk_step(
        state: Any, inbox: Mapping[str, Message], chunk_size: int
    ) -> Iterator[tuple]:
        staged = state.fork()
        staged.reset()
        yield from producer(staged, inbox, chunk_size)
        state.adopt(staged)

    return chunk_step


def _heard(state: Any, inbox: Mapping[str, Message]) -> list:
    """``Y_R`` as S received it in ``m1`` (its size noted by S)."""
    y_r = list(CipherList.coerce(inbox["m1"]))
    state.hear(y_r)
    return y_r


@_restartable
def _intersection_m2_chunks(
    state: Any, inbox: Mapping[str, Message], chunk_size: int
) -> Iterator[tuple]:
    """Stream S's :class:`IntersectionReply`: the sorted ``Y_S`` part,
    then the ``⟨y, f_eS(y)⟩`` pairs answered chunk-by-chunk in ``Y_R``
    order - each pairs chunk's modexp overlaps its predecessor's
    transmission."""
    y_r = _heard(state, inbox)
    y_s, _ = state.own(state.opening, ())
    for segment in _segments(y_s, chunk_size):
        yield (0, "seg", segment)
    for segment in _segments(y_r, chunk_size):
        yield (1, "seg", state.answer(segment))


@_restartable
def _size_m2_chunks(
    state: Any, inbox: Mapping[str, Message], chunk_size: int
) -> Iterator[tuple]:
    """Stream S's :class:`SizeReply`: ``Y_S`` segments first, with one
    segment of ``Z_R`` answered between each emission so the expensive
    modexp overlaps the wire instead of following it."""
    pending = list(_segments(_heard(state, inbox), chunk_size))
    z_r: list = []
    y_s, _ = state.own(state.opening, ())
    for segment in _segments(y_s, chunk_size):
        yield (0, "seg", segment)
        if pending:
            z_r.extend(state.answer(pending.pop(0)))
    for segment in pending:
        z_r.extend(state.answer(segment))
    for segment in _segments(sorted_ciphertexts(z_r), chunk_size):
        yield (1, "seg", segment)


@_restartable
def _equijoin_m2_chunks(
    state: Any, inbox: Mapping[str, Message], chunk_size: int
) -> Iterator[tuple]:
    """Stream S's :class:`EquijoinReply`: triples answered
    chunk-by-chunk over ``Y_R`` (two modexp batches per chunk,
    overlapping the wire), then the sorted codeword pairs."""
    for segment in _segments(_heard(state, inbox), chunk_size):
        yield (0, "seg", state.answer(segment))
    pairs, _ = state.pairs(state.opening, ())
    for segment in _segments(pairs, chunk_size):
        yield (1, "seg", segment)


def _warm_own_set(state: Any) -> None:
    """S's warm step: ``f_eS(h(V_S))`` (under every key S draws)."""
    state.warm()


def _absorb_y_s_ahead(state: Any, segment: list) -> None:
    """R's eager step on a ``Y_S`` segment: ``f_eR`` over it."""
    state.absorb_ahead(segment)


INTERSECTION = register(
    ProtocolSpec(
        name="intersection",
        rounds=(
            RoundSpec(
                "m1", "R", CipherList, _receiver_round1, ("3:Y_R",),
                chunkable=True,
            ),
            RoundSpec(
                "m2", "S", IntersectionReply, _sender_round1,
                ("4a:Y_S", "4b:pairs"),
                chunkable=True, chunk_step=_intersection_m2_chunks,
                eager=(0, _absorb_y_s_ahead),
            ),
        ),
        make_receiver=IntersectionReceiver,
        make_sender=IntersectionSender,
        finish=_finish_m2,
        sender_input="values",
        answer_kind="set",
        doc="set intersection (Section 3.3)",
        warm=_warm_own_set,
    )
)

INTERSECTION_SIZE = register(
    ProtocolSpec(
        name="intersection-size",
        rounds=(
            RoundSpec(
                "m1", "R", CipherList, _receiver_round1, ("3:Y_R",),
                chunkable=True,
            ),
            RoundSpec(
                "m2", "S", SizeReply, _sender_round1, ("4a:Y_S", "4b:Z_R"),
                chunkable=True, chunk_step=_size_m2_chunks,
                eager=(0, _absorb_y_s_ahead),
            ),
        ),
        make_receiver=IntersectionSizeReceiver,
        make_sender=IntersectionSizeSender,
        finish=_finish_m2,
        sender_input="values",
        answer_kind="number",
        doc="intersection size only (Section 5.1)",
        warm=_warm_own_set,
    )
)

EQUIJOIN = register(
    ProtocolSpec(
        name="equijoin",
        rounds=(
            RoundSpec(
                "m1", "R", CipherList, _receiver_round1, ("3:Y_R",),
                chunkable=True,
            ),
            RoundSpec(
                "m2", "S", EquijoinReply, _sender_round1,
                ("4:triples", "5:pairs"),
                chunkable=True, chunk_step=_equijoin_m2_chunks,
            ),
        ),
        make_receiver=EquijoinReceiver,
        make_sender=EquijoinSender,
        finish=_finish_m2,
        sender_input="ext",
        answer_kind="ext-map",
        doc="equijoin with encrypted ext payloads (Section 4.3)",
        warm=_warm_own_set,
    )
)

EQUIJOIN_SIZE = register(
    ProtocolSpec(
        name="equijoin-size",
        rounds=(
            RoundSpec(
                "m1", "R", CipherList, _receiver_round1, ("3:Y_R",),
                chunkable=True,
            ),
            RoundSpec(
                "m2", "S", SizeReply, _sender_round1, ("4a:Y_S", "4b:Z_R"),
                chunkable=True, chunk_step=_size_m2_chunks,
                eager=(0, _absorb_y_s_ahead),
            ),
        ),
        make_receiver=EquijoinSizeReceiver,
        make_sender=EquijoinSizeSender,
        finish=_finish_m2,
        sender_input="values",
        answer_kind="number",
        doc="equijoin size over multisets (Section 5.2)",
        warm=_warm_own_set,
    )
)

EQUIJOIN_SUM = register(
    ProtocolSpec(
        name="equijoin-sum",
        rounds=(
            RoundSpec(
                "m1", "R", CipherList, _receiver_round1, ("1:Y_R",),
                chunkable=True,
            ),
            # m2 draws Paillier randomness in step order, so it has no
            # incremental chunk_step: the full reply is computed (rng
            # draw order preserved) and then split for the wire.
            RoundSpec(
                "m2", "S", SumReply, _sender_round1, ("2:Z_R+pk", "3:pairs"),
                chunkable=True,
            ),
            RoundSpec("m3", "R", BlindedSum, _receiver_round2, ("4:blinded",)),
            RoundSpec(
                "m4", "S", RevealedSum, _sender_round2, ("5:blinded_sum",),
            ),
        ),
        make_receiver=EquijoinSumReceiver,
        make_sender=EquijoinSumSender,
        finish=_finish_m4,
        sender_input="amounts",
        answer_kind="number",
        doc="sum over the intersection (aggregate; paper future work)",
        warm=_warm_own_set,
    )
)


# ----------------------------------------------------------------------
# Incremental (delta) schedules
#
# One per protocol above, derived from it: ``m1`` announces R's churn,
# ``m2`` carries S's patch, and both are the base rounds' party steps
# run over the staged ``(added, removed)`` by :mod:`.delta`.  Round
# names reuse "m1".."m4" so the recorder phase names and the
# session/journal machinery apply unchanged; the part labels carry a
# "d" prefix so transcripts are unambiguous. Delta payloads are
# O(|delta|), so no round opts into chunking.
# ----------------------------------------------------------------------
def _register_delta(
    base: ProtocolSpec,
    patch: type[Message],
    labels: tuple[str, ...],
    doc: str,
    tail: tuple[RoundSpec, ...] = (),
) -> ProtocolSpec:
    """Register ``base``'s ``"<name>+delta"`` schedule: ``patch`` (with
    its part ``labels``) is S's ``m2``; ``tail`` the rounds after it."""
    return register(
        ProtocolSpec(
            name=base.name + "+delta",
            rounds=(
                RoundSpec(
                    "m1", "R", DeltaAnnounce, delta.announce,
                    ("d1a:added", "d1b:removed"),
                ),
                RoundSpec("m2", "S", patch, delta.patch, labels),
                *tail,
            ),
            make_receiver=delta.DeltaParty,
            make_sender=delta.DeltaParty,
            # With no later round, R's absorbing the patch is the answer.
            finish=base.finish if tail else delta.absorb,
            sender_input=base.sender_input,
            answer_kind=base.answer_kind,
            doc=doc,
            delta_of=base.name,
        )
    )


_register_delta(
    INTERSECTION, IntersectionDeltaPatch,
    ("d2a:Y_S+", "d2b:Y_S-", "d2c:pairs+"),
    "incremental intersection over staged inserts/deletes",
)
_register_delta(
    INTERSECTION_SIZE, SizeDeltaPatch,
    ("d2a:Y_S+", "d2b:Y_S-", "d2c:Z_R+", "d2d:Z_R-"),
    "incremental intersection size over staged inserts/deletes",
)
_register_delta(
    EQUIJOIN, EquijoinDeltaPatch,
    ("d2a:triples+", "d2b:pairs+", "d2c:pairs-"),
    "incremental equijoin over staged inserts/deletes",
)
_register_delta(
    EQUIJOIN_SIZE, SizeDeltaPatch,
    ("d2a:Y_S+", "d2b:Y_S-", "d2c:Z_R+", "d2d:Z_R-"),
    "incremental equijoin size over staged occurrence churn",
)
_register_delta(
    EQUIJOIN_SUM, SumDeltaPatch,
    ("d2a:Z_R+", "d2b:Z_R-", "d2c:pairs+", "d2d:pairs-"),
    "incremental sum over the intersection (fresh blind per query)",
    tail=(
        RoundSpec("m3", "R", BlindedSum, delta.absorb, ("d3:blinded",)),
        RoundSpec("m4", "S", RevealedSum, _sender_round2, ("d4:blinded_sum",)),
    ),
)

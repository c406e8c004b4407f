"""Typed wire messages for the declarative protocol specs.

Each round of a protocol ships exactly one :class:`Message`.  A message
is a frozen dataclass whose fields are the round's wire *parts* in
transmission order; every transport ships the assembled
:meth:`Message.to_wire` payload as a single frame, and the result
drivers record each part of it separately (preserving the historical
per-part transcript labels).

The wire encoding is pinned for backward compatibility with the
pre-spec per-protocol helpers: a single-part message is encoded as the
bare part payload, a multi-part message as the tuple of parts.  The
serialization layer distinguishes lists from tuples, so these
container choices are load-bearing — the golden-transcript fixture
(``tests/protocols/golden_transcripts.json``) asserts the exact bytes.

Messages iterate over their parts, so legacy tuple unpacking such as
``y_s, pairs = sender.round1(m1)`` keeps working on typed replies.

Streaming: every message can also be split into an ordered sequence of
*chunk payloads* (:meth:`Message.to_wire_chunks`) and reassembled from
them (:meth:`Message.from_wire_chunks` / :class:`ChunkAssembler`).  A
chunk payload is ``(part_index, kind, body)``: list-typed parts ship as
``"seg"`` slices of at most ``chunk_size`` elements, scalar parts as a
single ``"one"`` chunk, and messages with composite parts (e.g.
:class:`SumReply`) define their own kinds.  Reassembly is exact: the
message rebuilt from chunks has byte-identical :meth:`Message.to_wire`
output, which the golden-transcript suite pins.

Validation: every message declares its :attr:`Message.shape` - the
nesting of each part down to its ``int`` leaves, and which leaves are
group elements. A party checks what it receives against it
(:meth:`Message.check`) before any step reads it, so a malformed or
out-of-range payload is one typed :class:`ProtocolViolation`, never a
bare ``TypeError`` from deep inside a step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Any, Iterable, Iterator

__all__ = [
    "ProtocolViolation",
    "Message",
    "ChunkAssembler",
    "CipherList",
    "IntersectionReply",
    "SizeReply",
    "EquijoinReply",
    "SumReply",
    "BlindedSum",
    "RevealedSum",
    "DeltaAnnounce",
    "IntersectionDeltaPatch",
    "SizeDeltaPatch",
    "EquijoinDeltaPatch",
    "SumDeltaPatch",
]


class ProtocolViolation(ValueError):
    """A received message that is not what its protocol declares.

    The wrong nesting, a leaf that is not an ``int``, a group element
    outside ``[1, p)``, a malformed chunk stream, or a reply whose
    counts R checks before absorbing it: one answer per ciphertext R
    sent, and no codeword repeated where a set's cannot be.
    """


#: The leaves of a :attr:`Message.shape`: a group element (an ``int``
#: in ``[1, p)``), any ``int``, and an ext ciphertext - an element, or a
#: list of them (:mod:`repro.crypto.ext_cipher`).
ELEMENT, INT, EXT = "element", "int", "ext"


def _check(items: Any, shape: Any, p: int, where: str) -> None:
    """Raise :class:`ProtocolViolation` unless every item has ``shape``:
    ``[inner]`` a list, a tuple one entry per position, else a leaf.

    Each level is checked for the whole list at once (the set of its
    item types, then ``min`` / ``max``), so the cost is a few C-level
    passes per received list, not Python work per element.
    """
    if not items:
        return
    kinds = set(map(type, items))
    if shape == EXT:
        _check([x for x in items if type(x) is not list], ELEMENT, p, where)
        _check([x for x in items if type(x) is list], [ELEMENT], p, where)
    elif type(shape) is list:
        if kinds != {list}:
            raise ProtocolViolation(f"{where}: expected lists")
        _check(list(chain.from_iterable(items)), shape[0], p, where)
    elif type(shape) is tuple:
        if kinds != {tuple} or set(map(len, items)) != {len(shape)}:
            raise ProtocolViolation(f"{where}: expected {len(shape)}-tuples")
        for column, inner in zip(zip(*items), shape):
            _check(column, inner, p, where)
    elif kinds != {int}:
        raise ProtocolViolation(f"{where}: a leaf that is not an int")
    elif shape == ELEMENT and (min(items) < 1 or max(items) >= p):
        raise ProtocolViolation(f"{where}: a group element outside [1, p)")


class Message:
    """Base class for round payloads.

    Subclasses are frozen dataclasses whose fields are the wire parts
    of one round, in order.  The base class derives part/wire
    conversion from the dataclass fields; :attr:`shape` declares each
    part's nesting.
    """

    #: One entry per part (see :func:`_check`); a message that
    #: declares none is a list of group elements in every part.
    shape: tuple = ()

    def check(self, p: int) -> "Message":
        """This message, checked against its :attr:`shape` mod ``p``.

        :class:`ProtocolViolation` unless every part has its declared
        nesting and every group element lies in ``[1, p)``.
        """
        parts = fields(self)  # type: ignore[arg-type]
        shapes = self.shape or ([ELEMENT],) * len(parts)
        for spec, shape in zip(parts, shapes):
            _check([getattr(self, spec.name)], shape, p, f"{type(self).__name__}.{spec.name}")
        return self

    def to_parts(self) -> tuple[Any, ...]:
        """The message as its ordered wire parts."""
        return tuple(getattr(self, f.name) for f in fields(self))  # type: ignore[arg-type]

    @classmethod
    def from_parts(cls, parts: tuple[Any, ...]) -> "Message":
        """Rebuild a message from its ordered wire parts."""
        return cls(*parts)

    def to_wire(self) -> Any:
        """The single-frame wire payload.

        A one-part message ships its bare part; a multi-part message
        ships the tuple of parts.  This reproduces the exact bytes the
        pre-spec helpers put on the wire.
        """
        parts = self.to_parts()
        return parts[0] if len(parts) == 1 else parts

    @classmethod
    def from_wire(cls, wire: Any) -> "Message":
        """Decode :meth:`to_wire` output back into a typed message."""
        n_parts = len(fields(cls))  # type: ignore[arg-type]
        if n_parts == 1:
            return cls.from_parts((wire,))
        if type(wire) is not tuple or len(wire) != n_parts:
            raise ProtocolViolation(f"{cls.__name__}: expected {n_parts} parts")
        return cls.from_parts(wire)

    @classmethod
    def coerce(cls, payload: Any) -> "Message":
        """Accept either an instance of this class or its raw wire form."""
        if isinstance(payload, cls):
            return payload
        return cls.from_wire(payload)

    def __iter__(self) -> Iterator[Any]:
        """Iterate over wire parts (legacy tuple-unpacking support)."""
        return iter(self.to_parts())

    # ------------------------------------------------------------------
    # Chunked (streamed) wire form
    # ------------------------------------------------------------------
    def to_part_chunks(
        self, index: int, value: Any, chunk_size: int
    ) -> Iterator[tuple[str, Any]]:
        """Split one part into ``(kind, body)`` chunks.

        List parts yield ``"seg"`` slices of at most ``chunk_size``
        elements (an empty list yields one empty segment, so every part
        contributes at least one chunk); any other part ships whole as
        a single ``"one"`` chunk. Messages with composite parts
        override this per part.
        """
        if isinstance(value, list):
            if not value:
                yield ("seg", [])
                return
            for start in range(0, len(value), chunk_size):
                yield ("seg", value[start : start + chunk_size])
            return
        yield ("one", value)

    @classmethod
    def from_part_chunks(cls, index: int, chunks: list[tuple[str, Any]]) -> Any:
        """Rebuild one part value from its ``(kind, body)`` chunks."""
        if not chunks:
            raise ProtocolViolation(f"no chunks received for part {index}")
        if chunks[0][0] == "one":
            if len(chunks) != 1:
                raise ProtocolViolation(f"part {index}: extra chunks after 'one'")
            return chunks[0][1]
        part: list = []
        for kind, body in chunks:
            if kind != "seg" or not isinstance(body, list):
                raise ProtocolViolation(f"part {index}: unknown chunk kind {kind!r}")
            part.extend(body)
        return part

    def to_wire_chunks(self, chunk_size: int) -> Iterator[tuple[int, str, Any]]:
        """The message as an ordered stream of chunk payloads.

        Parts are emitted in wire order; each chunk payload is
        ``(part_index, kind, body)``. Reassembling the stream with
        :meth:`from_wire_chunks` reproduces this message exactly.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for index, value in enumerate(self.to_parts()):
            for kind, body in self.to_part_chunks(index, value, chunk_size):
                yield (index, kind, body)

    @classmethod
    def from_wire_chunks(cls, payloads: Iterable[tuple]) -> "Message":
        """Reassemble a message from :meth:`to_wire_chunks` output."""
        assembler = ChunkAssembler(cls)
        for payload in payloads:
            assembler.add(payload)
        return assembler.message()


class ChunkAssembler:
    """Incremental consumer of one round's chunk payload stream.

    Feed chunk payloads in arrival order with :meth:`add`; call
    :meth:`message` once the round's terminal frame has been seen.
    Validates part ordering (chunks of part ``k`` may not arrive after
    part ``k+1`` opened) but leaves chunk *sequencing* to the transport
    - frames arrive in order under both the plain TCP driver and the
    session layer's seq-ack machinery.
    """

    def __init__(self, message_cls: type[Message]):
        self.message_cls = message_cls
        self._n_parts = len(fields(message_cls))  # type: ignore[arg-type]
        self._chunks: list[list[tuple[str, Any]]] = [
            [] for _ in range(self._n_parts)
        ]
        self._open_part = 0

    def add(self, payload: Any) -> None:
        """Accept one ``(part_index, kind, body)`` chunk payload."""
        if not isinstance(payload, tuple) or len(payload) != 3:
            raise ProtocolViolation(f"malformed chunk payload: {payload!r}")
        index, kind, body = payload
        if not isinstance(index, int) or not 0 <= index < self._n_parts:
            raise ProtocolViolation(
                f"chunk part index {index!r} outside "
                f"{self.message_cls.__name__}'s {self._n_parts} parts"
            )
        if index < self._open_part:
            raise ProtocolViolation(
                f"chunk for part {index} after part {self._open_part} opened"
            )
        self._open_part = index
        self._chunks[index].append((kind, body))

    def message(self) -> Message:
        """Assemble the completed message (all parts present)."""
        parts = tuple(
            self.message_cls.from_part_chunks(index, chunks)
            for index, chunks in enumerate(self._chunks)
        )
        return self.message_cls.from_parts(parts)


@dataclass(frozen=True)
class CipherList(Message):
    """A lexicographically reordered list of ciphertexts (e.g. ``Y_R``)."""

    values: list

    def __iter__(self) -> Iterator[int]:
        """Iterate over the ciphertexts themselves.

        Pre-spec code treated the first round payload as a plain list,
        so this message iterates its elements (not its single part).
        """
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CipherList):
            return self.values == other.values
        return self.values == other

    def to_wire(self) -> list:
        """Ship the bare list, exactly as the legacy helpers did."""
        return self.values


@dataclass(frozen=True)
class IntersectionReply(Message):
    """Intersection round 2: sender's own set and the doubly-encrypted pairs.

    ``y_s`` carries ``f_S(h(V_S))`` in lexicographic order;  ``pairs``
    maps each received ``y in Y_R`` to ``f_S(y)``.
    """

    y_s: list
    pairs: list
    shape = ([ELEMENT], [(ELEMENT, ELEMENT)])


@dataclass(frozen=True)
class SizeReply(Message):
    """Intersection-size / equijoin-size round 2.

    ``y_s`` is the sender's (multiset-expanded) encrypted set and
    ``z_r`` the receiver's set doubly encrypted and reordered, so the
    receiver learns only the overlap cardinality.
    """

    y_s: list
    z_r: list


@dataclass(frozen=True)
class EquijoinReply(Message):
    """Equijoin round 2: codeword triples plus encrypted ext payloads.

    ``triples`` holds ``(y, f_S(y), f'_S(y))`` for every received
    ``y in Y_R``; ``pairs`` holds ``(f_S(h(v)), K(kappa(v), ext(v)))``
    for the sender's own values, sorted for order independence.
    """

    triples: list
    pairs: list
    shape = ([(ELEMENT, ELEMENT, ELEMENT)], [(ELEMENT, EXT)])


@dataclass(frozen=True)
class SumReply(Message):
    """Equijoin-sum round 2: ``(Z_R, paillier modulus)`` plus codeword pairs.

    The first part bundles the doubly-encrypted receiver set with the
    sender's Paillier public modulus (one frame part, as the legacy
    driver shipped it); ``pairs`` maps commutative codewords to
    Paillier-encrypted amounts.
    """

    z_r_pk: tuple
    pairs: list
    shape = (([ELEMENT], INT), [(ELEMENT, INT)])

    @property
    def z_r(self) -> list:
        """The doubly-encrypted, reordered receiver set ``Z_R``."""
        return self.z_r_pk[0]

    @property
    def n(self) -> int:
        """The sender's Paillier public modulus."""
        return self.z_r_pk[1]

    def to_part_chunks(
        self, index: int, value: Any, chunk_size: int
    ) -> Iterator[tuple[str, Any]]:
        """Stream the composite first part: ``Z_R`` as segments, then
        the Paillier modulus as its own ``"pk"`` chunk - keeping every
        frame O(chunk_size) even though the part is a tuple."""
        if index != 0:
            yield from super().to_part_chunks(index, value, chunk_size)
            return
        z_r, n = value
        yield from super().to_part_chunks(index, z_r, chunk_size)
        yield ("pk", n)

    @classmethod
    def from_part_chunks(cls, index: int, chunks: list[tuple[str, Any]]) -> Any:
        if index != 0:
            return super().from_part_chunks(index, chunks)
        if not chunks or chunks[-1][0] != "pk":
            raise ProtocolViolation("part 0: missing 'pk' chunk")
        return (super().from_part_chunks(index, chunks[:-1]), chunks[-1][1])


@dataclass(frozen=True)
class DeltaAnnounce(Message):
    """Delta round 1: the receiver's inserted and tombstoned ciphertexts.

    ``added`` carries ``f_eR(h(v))`` for every value R inserted since
    the last completed query, ``removed`` the same for deletions — both
    lexicographically reordered so individual ciphertexts stay
    unlinkable to insertion order (though not to the *fact* of churn;
    see ``docs/PROTOCOLS.md`` on tombstone linkability).  Multiset
    protocols repeat a ciphertext once per inserted/removed occurrence.
    """

    added: list
    removed: list


@dataclass(frozen=True)
class IntersectionDeltaPatch(Message):
    """Intersection delta round 2: S's own churn plus the new pairs.

    ``y_s_added``/``y_s_removed`` extend and tombstone ``Y_S``;
    ``pairs_added`` maps each ciphertext R announced as inserted to its
    double encryption ``f_eS(y)``, keyed by ``y`` exactly like the full
    run's pairs part.
    """

    y_s_added: list
    y_s_removed: list
    pairs_added: list
    shape = ([ELEMENT], [ELEMENT], [(ELEMENT, ELEMENT)])


@dataclass(frozen=True)
class SizeDeltaPatch(Message):
    """Intersection-size / equijoin-size delta round 2.

    ``y_s_added``/``y_s_removed`` patch S's encrypted (multiset) set;
    ``z_added``/``z_removed`` are the double encryptions of the
    ciphertexts R announced, reordered so R learns the membership
    effect but not the pairing (beyond what the delta size leaks).
    """

    y_s_added: list
    y_s_removed: list
    z_added: list
    z_removed: list


@dataclass(frozen=True)
class EquijoinDeltaPatch(Message):
    """Equijoin delta round 2: triples for R's inserts, pair churn for S's.

    ``triples_added`` holds ``(y, f_eS(y), f'_eS(y))`` for each
    announced insert; ``pairs_added`` new ``(codeword, K(kappa, ext))``
    entries; ``pairs_removed`` the codewords S tombstoned.
    """

    triples_added: list
    pairs_added: list
    pairs_removed: list
    shape = ([(ELEMENT, ELEMENT, ELEMENT)], [(ELEMENT, EXT)], [ELEMENT])


@dataclass(frozen=True)
class SumDeltaPatch(Message):
    """Equijoin-sum delta round 2: ``Z_R`` churn plus Paillier pair churn."""

    z_added: list
    z_removed: list
    pairs_added: list
    pairs_removed: list
    shape = ([ELEMENT], [ELEMENT], [(ELEMENT, INT)], [ELEMENT])


@dataclass(frozen=True)
class BlindedSum(Message):
    """Equijoin-sum round 3: the receiver's masked Paillier accumulator."""

    ciphertext: int
    shape = (INT,)


@dataclass(frozen=True)
class RevealedSum(Message):
    """Equijoin-sum round 4: the decrypted (still masked) total."""

    value: int
    shape = (INT,)

"""Deterministic wire format for protocol messages.

Every message the protocols exchange is built from big integers, byte
strings, strings, booleans, ``None`` and (possibly nested) sequences.
The encoding is a compact, length-prefixed tagged format; its only
purpose is byte-exact communication accounting (Section 6's analysis is
in bits on the wire), so there is no versioning or compression.

Big integers are encoded with a 4-byte length prefix followed by
big-endian magnitude - i.e. a ``k``-bit group element costs
``ceil(k/8) + 5`` bytes. The cost-model benchmarks use the *paper's*
accounting (exactly ``k`` bits per codeword); a
:class:`~repro.net.runner.ProtocolRun` counts the encoded bytes.

Chunked rounds: a streamed round is shipped as a sequence of
``("chunk", index, payload)`` frames closed by a ``("chunk-end",
count)`` frame, built and recognized by the helpers below. No protocol
round payload is a tuple whose first element is one of those tag
strings, so receivers can tell a chunked round from a whole-round
frame by inspection - the legacy single-frame wire format needs no
version bump.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

__all__ = [
    "encode",
    "decode",
    "encoded_size",
    "seal",
    "scan_sealed",
    "CHUNK_TAG",
    "CHUNK_END_TAG",
    "chunk_frame",
    "chunk_end_frame",
    "is_chunk_frame",
    "is_chunk_end",
    "fold_chunk_frames",
]

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_NEG_INT = b"J"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_TUPLE = b"U"

_U32 = struct.Struct(">I")
_pack = _U32.pack
_unpack_from = _U32.unpack_from
#: A tag and a u32 length or count: the head of every value but
#: ``None``, ``True`` and ``False``.
_head = struct.Struct(">cI").pack
#: What a malformed buffer raises inside the decoder, besides ValueError.
_MALFORMED = (struct.error, IndexError, RecursionError)


def encode(obj: Any) -> bytes:
    """Serialize a message object to bytes."""
    if type(obj) is str:  # a lone table value, as TableDigest hashes one
        body = obj.encode("utf-8")
        return _head(_TAG_STR, len(body)) + body
    out: list[bytes] = []
    _encode_into((obj,), out)
    return b"".join(out)


def _encode_into(items: Any, out: list[bytes]) -> None:
    """Append the encodings of ``items`` to ``out``: a leaf of an exact
    type inline, a call only for a nested container or anything else."""
    append = out.append
    for item in items:
        kind = type(item)
        if kind is int and item >= 0:
            body = item.to_bytes((item.bit_length() + 7) // 8 or 1, "big")
            append(_head(_TAG_INT, len(body)))
            append(body)
        elif kind is str:
            body = item.encode("utf-8")
            append(_head(_TAG_STR, len(body)))
            append(body)
        elif kind is bytes:
            append(_head(_TAG_BYTES, len(item)))
            append(item)
        elif kind is tuple or kind is list:
            append(_head(_TAG_TUPLE if kind is tuple else _TAG_LIST, len(item)))
            _encode_into(item, out)
        else:
            _encode_other(item, out)


def _encode_other(obj: Any, out: list[bytes]) -> None:
    """``None``, ``bool``, negative ints and the subclasses (an
    ``IntEnum``, a ``NamedTuple``), by ``isinstance`` - as every value
    once was."""
    if obj is None:
        out.append(_TAG_NONE)
    elif obj is True or obj is False:
        out.append(_TAG_TRUE if obj else _TAG_FALSE)
    elif isinstance(obj, int):
        magnitude = abs(obj)
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out.append(_head(_TAG_INT if obj >= 0 else _TAG_NEG_INT, len(body)) + body)
    elif isinstance(obj, bytes):
        out.append(_head(_TAG_BYTES, len(obj)) + obj)
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out.append(_head(_TAG_STR, len(body)) + body)
    elif isinstance(obj, (list, tuple)):
        out.append(_head(_TAG_LIST if isinstance(obj, list) else _TAG_TUPLE, len(obj)))
        _encode_into(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def encoded_size(obj: Any) -> int:
    """Number of bytes :func:`encode` would produce."""
    return len(encode(obj))


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`.

    Raises:
        ValueError: on any malformed input (unknown tag, truncated
            frame, bad UTF-8, trailing bytes) - a hostile or corrupted
            wire never raises anything else.
    """
    try:
        (obj,), offset = _decode_items(data, 0, 1)
    except _MALFORMED as exc:
        raise ValueError(f"malformed wire data: {exc}") from exc
    if offset > len(data):
        raise ValueError("truncated wire data")
    if offset != len(data):
        raise ValueError(f"trailing bytes after message ({len(data) - offset})")
    return obj


def _decode_items(data: bytes, offset: int, count: int) -> tuple[list, int]:
    """Decode ``count`` consecutive values at ``offset``; returns them
    and the offset past the last.  Tags compare as ints, leaves decode
    inline, a nested container is the one recursive call.  A length
    running past the buffer leaves the offset past its end too."""
    items: list[Any] = []
    append = items.append
    for _ in range(count):
        tag = data[offset]
        if tag == 73 or tag == 74 or tag == 83 or tag == 66:  # I J S B
            (length,) = _unpack_from(data, offset + 1)
            start = offset + 5
            offset = start + length
            if tag == 73:
                append(int.from_bytes(data[start:offset], "big"))
            elif tag == 83:
                append(data[start:offset].decode("utf-8"))
            elif tag == 66:
                append(data[start:offset])
            else:
                append(-int.from_bytes(data[start:offset], "big"))
        elif tag == 85 or tag == 76:  # U L
            (length,) = _unpack_from(data, offset + 1)
            children, offset = _decode_items(data, offset + 5, length)
            append(tuple(children) if tag == 85 else children)
        elif tag == 78 or tag == 84 or tag == 70:  # N T F
            append(None if tag == 78 else tag == 84)
            offset += 1
        else:
            raise ValueError(f"unknown wire tag {bytes((tag,))!r} at offset {offset}")
    return items, offset


# ----------------------------------------------------------------------
# Sealed records: the journal's and the catalog cache's file framing
# ----------------------------------------------------------------------
def seal(record: Any) -> bytes:
    """One CRC-sealed record: ``u32 len || encode(record) || u32 crc32``."""
    raw = encode(record)
    return _pack(len(raw)) + raw + _pack(zlib.crc32(raw))


def scan_sealed(data: bytes, offset: int) -> tuple[list[tuple], list[int]]:
    """The sealed records of ``data`` from ``offset`` on, each decoded
    in place, and the offset just past each one.

    The scan stops at the first record cut short or failing its CRC: a
    torn tail, which the file's owner truncates.  A zero length stops
    it too - no record encodes to nothing, and a zero-filled tail left
    by a crash passes the CRC.  Any other record that passes its CRC
    was written whole, so one that does not decode to exactly its
    declared length, or to a tuple tagged by a ``str``, is not a
    crash's leftover but corruption.

    Raises:
        ValueError: a CRC-valid record that is not a record.
    """
    records: list[tuple] = []
    ends: list[int] = []
    while offset + 4 <= len(data):
        (length,) = _unpack_from(data, offset)
        start = offset + 4
        stop = start + length
        if not length or stop + 4 > len(data) or (
            zlib.crc32(data[start:stop]) != _unpack_from(data, stop)[0]
        ):
            break
        try:
            if data[start] != 85:  # U: a record is a tuple
                raise ValueError("not a tuple")
            items, end = _decode_items(data, start + 5, _unpack_from(data, start + 1)[0])
            if end != stop or not items or type(items[0]) is not str:
                raise ValueError("not a str-tagged tuple of its declared length")
        except (ValueError, *_MALFORMED) as exc:
            raise ValueError(f"record at offset {offset}: {exc}") from exc
        records.append(tuple(items))
        offset = stop + 4
        ends.append(offset)
    return records, ends


# ----------------------------------------------------------------------
# Chunked round framing
# ----------------------------------------------------------------------
#: Frame tag of one chunk of a streamed round.
CHUNK_TAG = "chunk"
#: Frame tag closing a streamed round (carries the chunk count).
CHUNK_END_TAG = "chunk-end"


def chunk_frame(index: int, payload: Any) -> tuple:
    """Wrap one chunk payload as the ``index``-th frame of its round."""
    return (CHUNK_TAG, index, payload)


def chunk_end_frame(count: int) -> tuple:
    """The terminal frame of a chunked round (total chunk count)."""
    return (CHUNK_END_TAG, count)


def is_chunk_frame(obj: Any) -> bool:
    """Whether a decoded frame is a ``("chunk", index, payload)`` triple."""
    return (
        isinstance(obj, tuple)
        and len(obj) == 3
        and obj[0] == CHUNK_TAG
        and isinstance(obj[1], int)
    )


def is_chunk_end(obj: Any) -> bool:
    """Whether a decoded frame is a ``("chunk-end", count)`` pair."""
    return (
        isinstance(obj, tuple)
        and len(obj) == 2
        and obj[0] == CHUNK_END_TAG
        and isinstance(obj[1], int)
    )


def fold_chunk_frames(frames: list) -> tuple[str, Any, int]:
    """Classify a round's frame prefix.

    ``frames`` is the (possibly still growing) list of data frames
    belonging to one round, in arrival order. Returns
    ``(status, payload, used)``:

    * ``("single", wire, 1)`` - a legacy whole-round frame;
    * ``("chunked", payloads, n)`` - a complete chunk sequence whose
      ``chunk-end`` closed after ``n`` frames; ``payloads`` are the
      chunk payloads in order;
    * ``("partial", None, 0)`` - a chunk sequence still missing its
      ``chunk-end`` (or no frames yet): keep receiving.

    Raises:
        ValueError: out-of-order chunk indices, a count mismatch in the
            ``chunk-end``, or a whole-round frame mixed into a chunk
            sequence - framing violations no retransmit can repair.
    """
    if not frames:
        return ("partial", None, 0)
    first = frames[0]
    if not is_chunk_frame(first) and not is_chunk_end(first):
        return ("single", first, 1)
    payloads = []
    for position, frame in enumerate(frames):
        if is_chunk_end(frame):
            if frame[1] != len(payloads):
                raise ValueError(
                    f"chunk-end declares {frame[1]} chunks, got {len(payloads)}"
                )
            return ("chunked", payloads, position + 1)
        if not is_chunk_frame(frame):
            raise ValueError(
                "whole-round frame interleaved with a chunk sequence"
            )
        if frame[1] != len(payloads):
            raise ValueError(
                f"chunk index {frame[1]} out of order (expected {len(payloads)})"
            )
        payloads.append(frame[2])
    return ("partial", None, 0)

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
from typing import Any

__all__ = [
    "encode",
    "decode",
    "encoded_size",
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


def encode(obj: Any) -> bytes:
    """Serialize a message object to bytes."""
    if obj is None:
        return _TAG_NONE
    if obj is True:
        return _TAG_TRUE
    if obj is False:
        return _TAG_FALSE
    if isinstance(obj, int):
        tag = _TAG_INT if obj >= 0 else _TAG_NEG_INT
        magnitude = abs(obj)
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        return tag + struct.pack(">I", len(body)) + body
    if isinstance(obj, bytes):
        return _TAG_BYTES + struct.pack(">I", len(obj)) + obj
    if isinstance(obj, str):
        body = obj.encode("utf-8")
        return _TAG_STR + struct.pack(">I", len(body)) + body
    if isinstance(obj, (list, tuple)):
        tag = _TAG_LIST if isinstance(obj, list) else _TAG_TUPLE
        parts = [encode(item) for item in obj]
        payload = b"".join(parts)
        return tag + struct.pack(">I", len(obj)) + payload
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
        obj, offset = _decode_at(data, 0)
    except ValueError:
        raise
    except (struct.error, UnicodeDecodeError, IndexError, RecursionError) as exc:
        raise ValueError(f"malformed wire data: {exc}") from exc
    if offset > len(data):
        raise ValueError("truncated wire data")
    if offset != len(data):
        raise ValueError(f"trailing bytes after message ({len(data) - offset})")
    return obj


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag in (_TAG_INT, _TAG_NEG_INT):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        value = int.from_bytes(data[offset : offset + length], "big")
        offset += length
        return (value if tag == _TAG_INT else -value), offset
    if tag == _TAG_BYTES:
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        return data[offset : offset + length], offset + length
    if tag == _TAG_STR:
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag in (_TAG_LIST, _TAG_TUPLE):
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    raise ValueError(f"unknown wire tag {tag!r} at offset {offset - 1}")


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

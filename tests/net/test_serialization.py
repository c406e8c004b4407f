"""Tests for the wire format."""

from __future__ import annotations

import enum
import struct
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.serialization import decode, encode, encoded_size

# Recursive strategy over everything the wire format supports.
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**2048), max_value=2**2048),
    st.binary(max_size=64),
    st.text(max_size=64),
)
messages = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=6), st.tuples(children, children)
    ),
    max_leaves=25,
)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            -1,
            12345,
            -(2**512),
            2**1024 + 7,
            b"",
            b"\x00\xff",
            "",
            "héllo",
            [],
            [1, 2, 3],
            (1, "two", b"three"),
            [[1], [2, [3, None]]],
            [(True, b""), (False, b"\x00")],
        ],
    )
    def test_examples(self, obj):
        assert decode(encode(obj)) == obj

    @given(messages)
    @settings(max_examples=300)
    def test_property(self, obj):
        assert decode(encode(obj)) == obj

    def test_list_tuple_distinction_preserved(self):
        assert decode(encode([1, 2])) == [1, 2]
        assert isinstance(decode(encode((1, 2))), tuple)
        assert isinstance(decode(encode([1, 2])), list)

    def test_bool_not_confused_with_int(self):
        assert decode(encode(True)) is True
        assert decode(encode(1)) == 1
        assert decode(encode(1)) is not True


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode(3.14)
        with pytest.raises(TypeError):
            encode({"a": 1})

    def test_trailing_bytes(self):
        with pytest.raises(ValueError):
            decode(encode(1) + b"extra")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            decode(b"Z")


class TestSizes:
    def test_encoded_size_matches(self):
        for obj in (None, 42, b"xyz", ["a", 1]):
            assert encoded_size(obj) == len(encode(obj))

    def test_group_element_cost(self):
        """A k-bit integer costs ceil(k/8) + 5 bytes on the wire."""
        k = 1024
        x = (1 << (k - 1)) + 12345
        assert encoded_size(x) == k // 8 + 5

    def test_list_overhead_is_five_bytes(self):
        elements = [2**127 + i for i in range(10)]
        assert encoded_size(elements) == 5 + sum(encoded_size(e) for e in elements)


class TestMalformedInput:
    """A hostile or corrupted wire must raise ValueError, nothing else."""

    def test_truncated_length_header(self):
        with pytest.raises(ValueError):
            decode(b"I\x00\x00")

    def test_declared_length_beyond_data(self):
        with pytest.raises(ValueError):
            decode(b"B\x00\x00\x00\xff12")

    def test_truncated_list(self):
        with pytest.raises(ValueError):
            decode(b"L\x00\x00\x00\x05" + encode(1))

    def test_invalid_utf8_string(self):
        with pytest.raises(ValueError):
            decode(b"S\x00\x00\x00\x02\xff\xfe")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            decode(b"")

    def test_deep_nesting_bounded(self):
        """Absurdly nested input must not crash the interpreter."""
        data = b"L\x00\x00\x00\x01" * 5000 + encode(None)
        with pytest.raises(ValueError):
            decode(data)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=500)
    def test_fuzz_random_bytes(self, blob):
        """Random bytes either decode to something re-encodable or
        raise ValueError - never any other exception."""
        try:
            obj = decode(blob)
        except ValueError:
            return
        assert decode(encode(obj)) == obj

    @given(messages, st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=255))
    @settings(max_examples=300)
    def test_fuzz_bit_flips(self, obj, position, new_byte):
        """Corrupting one byte of a valid encoding either still decodes
        (to possibly different content) or raises ValueError."""
        wire = bytearray(encode(obj))
        wire[position % len(wire)] = new_byte
        try:
            decode(bytes(wire))
        except ValueError:
            pass


# ----------------------------------------------------------------------
# Parity with the reference codec
# ----------------------------------------------------------------------
# The codec as it was before it dispatched on exact types (one
# recursive call per value, ``isinstance`` for every type), kept
# verbatim.  The fast codec must produce its bytes, and accept and
# reject what it does.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_NEG_INT = b"J"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_TUPLE = b"U"


def reference_encode(obj: Any) -> bytes:
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
        parts = [reference_encode(item) for item in obj]
        payload = b"".join(parts)
        return tag + struct.pack(">I", len(obj)) + payload
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_decode(data: bytes) -> Any:
    try:
        obj, offset = _reference_decode_at(data, 0)
    except ValueError:
        raise
    except (struct.error, UnicodeDecodeError, IndexError, RecursionError) as exc:
        raise ValueError(f"malformed wire data: {exc}") from exc
    if offset > len(data):
        raise ValueError("truncated wire data")
    if offset != len(data):
        raise ValueError(f"trailing bytes after message ({len(data) - offset})")
    return obj


def _reference_decode_at(data: bytes, offset: int) -> tuple[Any, int]:
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
            item, offset = _reference_decode_at(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    raise ValueError(f"unknown wire tag {tag!r} at offset {offset - 1}")


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -300


class Label(str):
    pass


class Pair(NamedTuple):
    left: Any
    right: Any


parity_atoms = st.one_of(
    atoms,
    st.integers(min_value=-(2**2048), max_value=-1),
    st.integers(min_value=2**2047, max_value=2**2048),
    st.sampled_from(list(Colour)),
    st.text(max_size=16).map(Label),
    st.just([]),
    st.just(()),
)
parity_messages = st.recursive(
    parity_atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.builds(Pair, children, children),
        # A deep chain of one-item containers.
        st.tuples(children, st.integers(1, 40), st.booleans()).map(
            lambda t: _nest(*t)
        ),
    ),
    max_leaves=25,
)


def _nest(inner: Any, depth: int, as_list: bool) -> Any:
    for _ in range(depth):
        inner = [inner] if as_list else (inner,)
    return inner


def _decoded_or_error(decoder, data: bytes) -> Any:
    """What ``decoder`` makes of ``data``, told apart by type: the
    value's reference encoding (``True`` is not ``1``), or the error."""
    try:
        return ("value", reference_encode(decoder(data)))
    except ValueError:
        return ("ValueError",)


class TestReferenceParity:
    @given(parity_messages)
    @settings(max_examples=500)
    def test_encode_matches_reference(self, obj):
        assert encode(obj) == reference_encode(obj)

    @pytest.mark.parametrize("obj", [
        True, False, -1, -(2**2048), 2**2048, Colour.RED, Colour.BLUE,
        Label("tag"), Pair(1, Label("x")), [Pair(True, [Colour.BLUE])],
        [], (), [[]], ((),), _nest(None, 300, True), _nest(b"x", 300, False),
    ])
    def test_subclasses_and_edges_match_reference(self, obj):
        wire = encode(obj)
        assert wire == reference_encode(obj)
        assert _decoded_or_error(decode, wire) == _decoded_or_error(
            reference_decode, wire
        )

    @given(st.binary(max_size=200))
    @settings(max_examples=1000)
    def test_decode_agrees_on_random_bytes(self, blob):
        assert _decoded_or_error(decode, blob) == _decoded_or_error(
            reference_decode, blob
        )

    @given(parity_messages, st.integers(min_value=0), st.integers(0, 255))
    @settings(max_examples=1000)
    def test_decode_agrees_on_one_byte_flips(self, obj, position, new_byte):
        wire = bytearray(encode(obj))
        wire[position % len(wire)] = new_byte
        assert _decoded_or_error(decode, bytes(wire)) == _decoded_or_error(
            reference_decode, bytes(wire)
        )

    def test_deep_nesting_still_a_value_error(self):
        data = b"L\x00\x00\x00\x01" * 5000 + encode(None)
        with pytest.raises(ValueError):
            decode(data)
        with pytest.raises(ValueError):
            reference_decode(data)

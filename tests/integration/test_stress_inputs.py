"""Adversarial and unusual inputs through the full protocol stack.

The protocols must behave identically for *any* hashable value the
library supports - exotic unicode, huge integers, long byte strings,
values that collide textually across types - because the first thing
a real deployment feeds them is messy identifiers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

WEIRD_VALUES = [
    "",                         # empty string
    " ",                        # whitespace only
    "naïve-ünïcode-🎲",          # multibyte unicode
    "line\nbreak\tand\ttabs",
    "a" * 5000,                 # long string
    0,
    -1,
    2**256,                     # bignum value
    -(2**256),
    b"",
    b"\x00" * 64,               # null bytes
    bytes(range(256)),
    True,
    False,
]


class TestWeirdValues:
    def test_intersection_with_weird_values(self, run128):
        v_r = WEIRD_VALUES[::2] + ["common-1", "common-2"]
        v_s = WEIRD_VALUES[1::2] + ["common-1", "common-2"]
        result = run128("intersection", v_r, v_s)
        assert result.answer == {"common-1", "common-2"}

    def test_all_weird_values_shared(self, run128):
        result = run128("intersection", WEIRD_VALUES, WEIRD_VALUES)
        assert result.answer == set(WEIRD_VALUES)

    def test_bool_int_distinguished_unlike_python_sets(self, run128):
        """Deliberate deviation from Python set semantics: the value
        encoding type-tags bool separately from int, so False does NOT
        match 0 across parties (matching on type-punned values would be
        a correctness hazard in a cross-organization protocol)."""
        v_r = [0, 1, "0", "1", b"0", b"1"]
        v_s = [False, True]
        result = run128("intersection", v_r, v_s)
        assert result.answer == set()
        result = run128("intersection", [False, True, 2], [True, 2])
        assert result.answer == {True, 2}

    def test_textually_colliding_types_distinct(self, run128):
        """'1', b'1' and 1 are different values and must not match."""
        result = run128("intersection", ["1"], [1])
        assert result.answer == set()
        result = run128("intersection", [b"1"], ["1"])
        assert result.answer == set()

    def test_equijoin_weird_payloads(self, run128):
        ext = {
            "k1": b"\x00" * 100,
            "k2": bytes(range(256)) * 2,
            "k3": b"",
        }
        result = run128("equijoin", ["k1", "k2", "k3"], ext)
        assert result.answer == ext

    def test_huge_sets_of_tiny_values(self):
        """A few hundred single-character-ish values at 64-bit: the
        smallest group still separates them (hash has 63 bits)."""
        v_r = [f"{i}" for i in range(300)]
        v_s = [f"{i}" for i in range(150, 450)]
        result = repro.run("intersection-size", v_r, v_s, bits=64, seed=1)
        assert result.answer == 150


class TestUnhashableValuesRejected:
    def test_list_value_raises(self, run128):
        with pytest.raises(TypeError):
            run128("intersection", [["not", "hashable-by-design"]], ["x"])

    def test_float_value_raises(self, run128):
        with pytest.raises(TypeError):
            run128("intersection", [3.14], ["x"])


class TestPropertyMixedTypes:
    # Booleans excluded: the protocol's type tagging deliberately
    # distinguishes False from 0 (see the test above), so Python set
    # intersection is not the reference semantics for bool/int mixes.
    mixed = st.one_of(
        st.integers(min_value=-(2**64), max_value=2**64),
        st.text(max_size=12),
        st.binary(max_size=12),
    )

    @given(st.sets(mixed, max_size=10), st.sets(mixed, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_mixed_type_sets(self, v_r, v_s):
        result = repro.run("intersection", list(v_r), list(v_s), bits=64, seed=9)
        assert result.answer == (v_r & v_s)

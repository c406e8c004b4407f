"""Tests for the private selection protocol (symmetric-PIR-style)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.parties import PublicParams
from repro.protocols.selection import run_selection


@pytest.fixture()
def rngs():
    return random.Random("42/R"), random.Random("42/S")


@pytest.fixture()
def records():
    return [b"alpha", b"bravo-long-record", b"", b"charlie", b"\x00\x01\x02"]


class TestCorrectness:
    def test_every_index(self, params128, rngs, records):
        for i, expected in enumerate(records):
            result = run_selection(i, records, params128, rngs)
            assert result.record == expected
            assert result.n_records == len(records)

    def test_single_record(self, params128, rngs):
        assert run_selection(0, [b"only"], params128, rngs).record == b"only"

    def test_variable_lengths_padded(self, params128, rngs):
        """Records of different sizes round-trip exactly (padding is
        stripped via the length prefix)."""
        records = [b"x" * n for n in (0, 1, 30, 7)]
        for i, expected in enumerate(records):
            assert run_selection(i, records, params128, rngs).record == expected

    @given(
        st.lists(st.binary(max_size=20), min_size=1, max_size=9),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_property(self, records, seed):
        params = PublicParams.for_bits(64)
        rngs = random.Random(f"{seed}/R"), random.Random(f"{seed}/S")
        index = seed % len(records)
        assert run_selection(index, records, params, rngs).record == records[index]


class TestValidation:
    def test_empty_records_rejected(self, params128, rngs):
        with pytest.raises(ValueError):
            run_selection(0, [], params128, rngs)

    def test_index_out_of_range(self, params128, rngs, records):
        with pytest.raises(ValueError):
            run_selection(len(records), records, params128, rngs)
        with pytest.raises(ValueError):
            run_selection(-1, records, params128, rngs)

    def test_record_longer_than_length_prefix_rejected(self, params128, rngs):
        """A record the 2-byte length prefix cannot describe is refused
        by name, before either party draws a key."""
        states = [rng.getstate() for rng in rngs]
        with pytest.raises(ValueError, match="65535-byte limit"):
            run_selection(0, [b"a" * 70000, b"b"], params128, rngs)
        assert [rng.getstate() for rng in rngs] == states


class TestDisclosureShape:
    def test_s_sees_only_uniform_elements(self, params128, group128, records):
        """Everything S receives is log2(n) group elements - identical
        in shape for every index, so the index is hidden."""
        signatures = set()
        for index in range(len(records)):
            fresh = random.Random(f"{index}/R"), random.Random(f"{index}/S")
            result = run_selection(index, records, params128, fresh)
            assert [m.step for m in result.run.s_view.received] == ["2:PK0"]
            pk0s = next(result.run.s_view.payloads("2:PK0"))
            assert all(x in group128 for x in pk0s)
            signatures.add(result.run.s_view.signature())
        assert len(signatures) == 1  # index-independent

    def test_r_receives_all_n_ciphertexts(self, params128, rngs, records):
        result = run_selection(1, records, params128, rngs)
        transfer = next(result.run.r_view.payloads("3:transfer"))
        assert len(transfer[1]) == len(records)

    def test_sealed_records_not_in_plaintext(self, params128, rngs):
        """Non-selected record contents never appear in R's view."""
        records = [b"public-choice", b"SEALED-SECRET-A", b"SEALED-SECRET-B"]
        result = run_selection(0, records, params128, rngs)
        blob = repr([m.payload for m in result.run.r_view.received]).encode()
        assert b"SEALED-SECRET-A" not in blob
        assert b"SEALED-SECRET-B" not in blob

    def test_traffic_linear_in_n(self, params128, rngs):
        small = run_selection(0, [b"r" * 10] * 4, params128, rngs)
        large = run_selection(0, [b"r" * 10] * 16, params128, rngs)
        assert large.run.total_bytes > small.run.total_bytes

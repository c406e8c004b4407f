"""Tests for the private selection protocol (symmetric-PIR-style)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.base import ProtocolSuite
from repro.protocols.selection import run_selection


@pytest.fixture()
def records():
    return [b"alpha", b"bravo-long-record", b"", b"charlie", b"\x00\x01\x02"]


class TestCorrectness:
    def test_every_index(self, suite, records):
        for i, expected in enumerate(records):
            result = run_selection(i, records, suite)
            assert result.record == expected
            assert result.n_records == len(records)

    def test_single_record(self, suite):
        assert run_selection(0, [b"only"], suite).record == b"only"

    def test_variable_lengths_padded(self, suite):
        """Records of different sizes round-trip exactly (padding is
        stripped via the length prefix)."""
        records = [b"x" * n for n in (0, 1, 30, 7)]
        for i, expected in enumerate(records):
            assert run_selection(i, records, suite).record == expected

    @given(
        st.lists(st.binary(max_size=20), min_size=1, max_size=9),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_property(self, records, seed):
        suite = ProtocolSuite.default(bits=64, seed=seed)
        index = seed % len(records)
        assert run_selection(index, records, suite).record == records[index]


class TestValidation:
    def test_empty_records_rejected(self, suite):
        with pytest.raises(ValueError):
            run_selection(0, [], suite)

    def test_index_out_of_range(self, suite, records):
        with pytest.raises(ValueError):
            run_selection(len(records), records, suite)
        with pytest.raises(ValueError):
            run_selection(-1, records, suite)

    def test_record_longer_than_length_prefix_rejected(self, suite):
        """A record the 2-byte length prefix cannot describe is refused
        by name, before either party draws a key."""
        states = suite.rng_r.getstate(), suite.rng_s.getstate()
        with pytest.raises(ValueError, match="65535-byte limit"):
            run_selection(0, [b"a" * 70000, b"b"], suite)
        assert (suite.rng_r.getstate(), suite.rng_s.getstate()) == states


class TestDisclosureShape:
    def test_s_sees_only_uniform_elements(self, suite, records):
        """Everything S receives is log2(n) group elements - identical
        in shape for every index, so the index is hidden."""
        signatures = set()
        for index in range(len(records)):
            fresh = ProtocolSuite.default(bits=128, seed=index)
            result = run_selection(index, records, fresh)
            assert [m.step for m in result.run.s_view.received] == ["2:PK0"]
            pk0s = next(result.run.s_view.payloads("2:PK0"))
            assert all(x in fresh.group for x in pk0s)
            signatures.add(result.run.s_view.signature())
        assert len(signatures) == 1  # index-independent

    def test_r_receives_all_n_ciphertexts(self, suite, records):
        result = run_selection(1, records, suite)
        transfer = next(result.run.r_view.payloads("3:transfer"))
        assert len(transfer[1]) == len(records)

    def test_sealed_records_not_in_plaintext(self, suite):
        """Non-selected record contents never appear in R's view."""
        records = [b"public-choice", b"SEALED-SECRET-A", b"SEALED-SECRET-B"]
        result = run_selection(0, records, suite)
        blob = repr([m.payload for m in result.run.r_view.received]).encode()
        assert b"SEALED-SECRET-A" not in blob
        assert b"SEALED-SECRET-B" not in blob

    def test_traffic_linear_in_n(self, suite):
        small = run_selection(0, [b"r" * 10] * 4, suite)
        large = run_selection(0, [b"r" * 10] * 16, suite)
        assert large.run.total_bytes > small.run.total_bytes

"""Tests for the Section 4.3 equijoin protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.engine import equijoin as plain_equijoin
from repro.db.table import Table
from repro.protocols.equijoin import join_tables

value_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=10)


class TestCorrectness:
    def test_basic(self, run128):
        ext = {"x": b"ext-x", "y": b"ext-y", "z": b"ext-z"}
        result = run128("equijoin", ["w", "x", "y"], ext)
        assert set(result.answer) == {"x", "y"}
        assert result.answer == {"x": b"ext-x", "y": b"ext-y"}

    def test_empty_sides(self, run128):
        assert run128("equijoin", [], {"a": b"1"}).answer == {}
        assert run128("equijoin", ["a"], {}).answer == {}

    def test_disjoint(self, run128):
        result = run128("equijoin", ["a"], {"b": b"x"})
        assert set(result.answer) == set()

    def test_sizes_learned(self, run128):
        result = run128("equijoin", ["a", "b"], {"b": b"1", "c": b"2", "d": b"3"})
        assert result.size_v_s == 3
        assert result.size_v_r == 2

    def test_long_ext_payloads_multiblock(self, run128):
        payload = bytes(range(256)) * 4  # forces BlockExtCipher chunking
        result = run128("equijoin", ["k"], {"k": payload})
        assert result.answer["k"] == payload

    def test_empty_ext_payload(self, run128):
        result = run128("equijoin", ["k"], {"k": b""})
        assert result.answer["k"] == b""

    @given(
        value_sets,
        st.dictionaries(
            st.integers(min_value=0, max_value=30), st.binary(max_size=8), max_size=10
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_plaintext_property(self, v_r, ext):
        result = repro.run("equijoin", list(v_r), ext, bits=64, seed=1)
        expected = {v: ext[v] for v in v_r if v in ext}
        assert result.answer == expected


class TestDisclosureBoundary:
    def test_non_intersection_ext_not_revealed(self, run128):
        """R decrypts ext only for the intersection; other payloads stay
        sealed (their keys never leave S)."""
        ext = {"in": b"revealed", "out": b"sealed"}
        result = run128("equijoin", ["in", "other"], ext)
        assert set(result.answer) == {"in"}
        # The sealed payload's plaintext must not appear in R's view.
        blob = repr([m.payload for m in result.transcript.r_view.received]).encode()
        assert b"sealed" not in blob

    def test_wire_steps(self, run128):
        result = run128("equijoin", ["a"], {"a": b"x"})
        assert [m.step for m in result.transcript.s_view.received] == ["3:Y_R"]
        assert [m.step for m in result.transcript.r_view.received] == ["4:triples", "5:pairs"]

    def test_pairs_sorted_by_codeword(self, run128):
        ext = {f"v{i}": bytes([i]) for i in range(8)}
        result = run128("equijoin", ["v0"], ext)
        pairs = next(result.transcript.r_view.payloads("5:pairs"))
        codewords = [p[0] for p in pairs]
        assert codewords == sorted(codewords)

    def test_triples_keyed_by_received_y(self, run128):
        result = run128("equijoin", ["a", "b"], {"a": b"x"})
        y_r = next(result.transcript.s_view.payloads("3:Y_R"))
        triples = next(result.transcript.r_view.payloads("4:triples"))
        assert [t[0] for t in triples] == y_r


class TestTableJoin:
    @pytest.fixture()
    def tables(self):
        t_r = Table(
            ("id", "flag"), [(1, True), (2, False), (3, True), (2, True)], name="R"
        )
        t_s = Table(
            ("id", "payload"), [(2, "a"), (3, "b"), (3, "c"), (9, "z")], name="S"
        )
        return t_r, t_s

    def test_matches_plaintext_join(self, tables, params128):
        t_r, t_s = tables
        joined, _ = join_tables(t_r, t_s, "id", params=params128)
        expected = plain_equijoin(t_s, t_r, "id")
        assert sorted(joined.rows) == sorted(expected.rows)
        assert joined.columns == expected.columns

    def test_s_rows_grouped_as_ext(self, tables, params128):
        t_r, t_s = tables
        _, matches = join_tables(t_r, t_s, "id", params=params128)
        # intersection on distinct ids {2, 3}
        assert set(matches) == {2, 3}

    def test_different_column_names(self, params128):
        t_r = Table(("rid",), [(7,)])
        t_s = Table(("sid", "v"), [(7, "hit")])
        joined, _ = join_tables(t_r, t_s, "rid", s_attr="sid", params=params128)
        assert joined.rows == [(7, 7, "hit")]

    def test_empty_result(self, params128):
        t_r = Table(("id",), [(1,)])
        t_s = Table(("id",), [(2,)])
        joined, matches = join_tables(t_r, t_s, "id", params=params128)
        assert len(joined) == 0
        assert set(matches) == set()

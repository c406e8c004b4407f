"""Tests for the Section 5.1 intersection-size protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.base import ProtocolSuite
from repro.protocols.intersection_size import run_intersection_size
from repro.workloads.generator import overlapping_sets

value_sets = st.sets(st.integers(min_value=0, max_value=40), max_size=15)


class TestCorrectness:
    @pytest.mark.parametrize(
        "v_r, v_s, expected",
        [
            (["a", "b", "c"], ["b", "c", "d"], 2),
            ([], ["a"], 0),
            (["a"], [], 0),
            ([], [], 0),
            (["a", "b"], ["a", "b"], 2),
            (["a", "b"], ["x", "y"], 0),
        ],
    )
    def test_examples(self, suite, v_r, v_s, expected):
        result = run_intersection_size(v_r, v_s, suite)
        assert result.size == expected

    def test_sizes_learned(self, suite):
        result = run_intersection_size(["a"], ["b", "c"], suite)
        assert result.size_v_s == 2
        assert result.size_v_r == 1

    def test_input_duplicates_collapse(self, suite):
        result = run_intersection_size(["a", "a"], ["a", "a", "b"], suite)
        assert result.size == 1
        assert result.size_v_s == 2

    @given(value_sets, value_sets)
    @settings(max_examples=25, deadline=None)
    def test_matches_plaintext_property(self, v_r, v_s):
        suite = ProtocolSuite.default(bits=64, seed=1)
        result = run_intersection_size(list(v_r), list(v_s), suite)
        assert result.size == len(v_r & v_s)

    def test_workload_agreement(self, suite, rng):
        v_r, v_s, expected = overlapping_sets(25, 30, 9, rng)
        assert run_intersection_size(v_r, v_s, suite).size == len(expected)


class TestUnlinkability:
    """The defining difference from Section 3: Z_R comes back unpaired."""

    def test_message_steps(self, suite):
        result = run_intersection_size(["a", "b"], ["c"], suite)
        r_steps = [m.step for m in result.run.r_view.received]
        assert r_steps == ["4a:Y_S", "4b:Z_R"]

    def test_z_r_is_flat_sorted_list(self, suite):
        result = run_intersection_size(list("abcd"), list("cdef"), suite)
        z_r = next(result.run.r_view.payloads("4b:Z_R"))
        assert all(isinstance(x, int) for x in z_r)  # no pairs
        assert z_r == sorted(z_r)

    def test_no_pairs_anywhere_in_r_view(self, suite):
        result = run_intersection_size(list("abcd"), list("cdef"), suite)
        for message in result.run.r_view.received:
            assert all(not isinstance(x, (tuple, list)) for x in message.payload)

    def test_same_traffic_shape_as_intersection_for_s(self, suite):
        """S's view is identical in shape to the intersection protocol's."""
        result = run_intersection_size(["a", "b", "c"], ["d"], suite)
        s_steps = [m.step for m in result.run.s_view.received]
        assert s_steps == ["3:Y_R"]

    def test_z_r_cardinality(self, suite):
        result = run_intersection_size(list("abc"), list("xy"), suite)
        z_r = next(result.run.r_view.payloads("4b:Z_R"))
        assert len(z_r) == 3  # |V_R| double encryptions
        # ... so a run is n_S + 2 n_R codewords of ceil(k/8) + 5 bytes.
        n = 32
        run = run_intersection_size(
            [f"r{i}" for i in range(n)], [f"s{i}" for i in range(n)], suite
        ).run
        assert run.total_bytes == pytest.approx(3 * n * (128 // 8 + 5), rel=0.02)

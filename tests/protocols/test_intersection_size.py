"""Tests for the Section 5.1 intersection-size protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
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
    def test_examples(self, run128, v_r, v_s, expected):
        result = run128("intersection-size", v_r, v_s)
        assert result.answer == expected

    def test_sizes_learned(self, run128):
        result = run128("intersection-size", ["a"], ["b", "c"])
        assert result.size_v_s == 2
        assert result.size_v_r == 1

    def test_input_duplicates_collapse(self, run128):
        result = run128("intersection-size", ["a", "a"], ["a", "a", "b"])
        assert result.answer == 1
        assert result.size_v_s == 2

    @given(value_sets, value_sets)
    @settings(max_examples=25, deadline=None)
    def test_matches_plaintext_property(self, v_r, v_s):
        result = repro.run("intersection-size", list(v_r), list(v_s), bits=64, seed=1)
        assert result.answer == len(v_r & v_s)

    def test_workload_agreement(self, run128, rng):
        v_r, v_s, expected = overlapping_sets(25, 30, 9, rng)
        assert run128("intersection-size", v_r, v_s).answer == len(expected)


class TestUnlinkability:
    """The defining difference from Section 3: Z_R comes back unpaired."""

    def test_message_steps(self, run128):
        result = run128("intersection-size", ["a", "b"], ["c"])
        r_steps = [m.step for m in result.transcript.r_view.received]
        assert r_steps == ["4a:Y_S", "4b:Z_R"]

    def test_z_r_is_flat_sorted_list(self, run128):
        result = run128("intersection-size", list("abcd"), list("cdef"))
        z_r = next(result.transcript.r_view.payloads("4b:Z_R"))
        assert all(isinstance(x, int) for x in z_r)  # no pairs
        assert z_r == sorted(z_r)

    def test_no_pairs_anywhere_in_r_view(self, run128):
        result = run128("intersection-size", list("abcd"), list("cdef"))
        for message in result.transcript.r_view.received:
            assert all(not isinstance(x, (tuple, list)) for x in message.payload)

    def test_same_traffic_shape_as_intersection_for_s(self, run128):
        """S's view is identical in shape to the intersection protocol's."""
        result = run128("intersection-size", ["a", "b", "c"], ["d"])
        s_steps = [m.step for m in result.transcript.s_view.received]
        assert s_steps == ["3:Y_R"]

    def test_z_r_cardinality(self, run128):
        result = run128("intersection-size", list("abc"), list("xy"))
        z_r = next(result.transcript.r_view.payloads("4b:Z_R"))
        assert len(z_r) == 3  # |V_R| double encryptions
        # ... so a run is n_S + 2 n_R codewords of ceil(k/8) + 5 bytes.
        n = 32
        run = run128(
            "intersection-size", [f"r{i}" for i in range(n)], [f"s{i}" for i in range(n)],
        ).transcript
        assert run.total_bytes == pytest.approx(3 * n * (128 // 8 + 5), rel=0.02)

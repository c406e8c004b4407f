"""Tests for the Section 3.3 intersection protocol."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.commutative import PowerCipher
from repro.crypto.oracle import RandomOracle
from repro.db.engine import intersection as plain_intersection
from repro.protocols.base import HashCollisionError
from repro.protocols.parties import CryptoContext, PublicParams
from repro.protocols.spec import run_pair
from repro.workloads.generator import overlapping_sets

value_sets = st.sets(st.integers(min_value=0, max_value=40), max_size=15)


class TestCorrectness:
    @pytest.mark.parametrize(
        "v_r, v_s",
        [
            (["a", "b", "c"], ["b", "c", "d"]),
            ([], ["a"]),
            (["a"], []),
            ([], []),
            (["a", "b"], ["a", "b"]),          # identical sets
            (["a", "b", "c", "d"], ["x"]),     # disjoint
            (["a"], ["a", "b", "c", "d"]),     # subset
            ([1, 2, 3], [3, 4]),               # ints
            ([b"one", b"two"], [b"two"]),      # bytes
        ],
    )
    def test_examples(self, run128, v_r, v_s):
        result = run128("intersection", v_r, v_s)
        assert result.answer == plain_intersection(v_s, v_r)

    def test_sizes_learned(self, run128):
        result = run128("intersection", ["a", "b"], ["b", "c", "d"])
        assert result.size_v_s == 3
        assert result.size_v_r == 2

    def test_duplicates_in_input_collapse(self, run128):
        result = run128("intersection", ["a", "a", "b"], ["b", "b"])
        assert result.answer == {"b"}
        assert result.size_v_r == 2  # distinct count

    def test_mixed_type_values(self, run128):
        result = run128("intersection", [1, "1", b"1"], ["1"])
        assert result.answer == {"1"}

    @given(value_sets, value_sets)
    @settings(max_examples=25, deadline=None)
    def test_matches_plaintext_property(self, v_r, v_s):
        result = repro.run("intersection", list(v_r), list(v_s), bits=64, seed=1)
        assert result.answer == (v_r & v_s)

    def test_workload_generator_agreement(self, run128, rng):
        v_r, v_s, expected = overlapping_sets(30, 40, 12, rng)
        result = run128("intersection", v_r, v_s)
        assert result.answer == expected

    def test_square_hash_variant(self):
        params = PublicParams(p=PublicParams.for_bits(128).p, hash_name="square")
        result = repro.run(
            "intersection", ["a", "b"], ["b", "c"], params=params, seed=2
        )
        assert result.answer == {"b"}

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_across_modulus_sizes(self, bits):
        result = repro.run(
            "intersection", ["x", "y", "z"], ["y", "q"], bits=bits, seed=3
        )
        assert result.answer == {"y"}


class TestWireBehaviour:
    def test_three_messages(self, run128):
        result = run128("intersection", ["a", "b"], ["c", "d", "e"])
        r_steps = [m.step for m in result.transcript.r_view.received]
        s_steps = [m.step for m in result.transcript.s_view.received]
        assert s_steps == ["3:Y_R"]
        assert r_steps == ["4a:Y_S", "4b:pairs"]

    def test_codeword_counts_match_section6(self, run128):
        """(n_S + 2 n_R) codewords cross the wire: n_R up, n_S + n_R down
        (the pairs reuse R's y values, counted once more coming back)."""
        n_r, n_s = 4, 6
        result = run128(
            "intersection", [f"r{i}" for i in range(n_r)],
            [f"s{i}" for i in range(n_s)],
        )
        y_r = next(result.transcript.s_view.payloads("3:Y_R"))
        y_s = next(result.transcript.r_view.payloads("4a:Y_S"))
        pairs = next(result.transcript.r_view.payloads("4b:pairs"))
        total_codewords = len(y_r) + len(y_s) + 2 * len(pairs)
        # Paper counts (n_S + 2 n_R): it does not re-count the echoed
        # y in step 4(b) ("S does not retransmit the y's back").
        assert len(y_r) == n_r
        assert len(y_s) == n_s
        assert len(pairs) == n_r
        assert total_codewords - n_r == n_s + 2 * n_r  # optimized accounting

    def test_shipped_sets_sorted(self, run128):
        result = run128("intersection", list("abcdef"), list("defghi"))
        y_r = next(result.transcript.s_view.payloads("3:Y_R"))
        y_s = next(result.transcript.r_view.payloads("4a:Y_S"))
        assert y_r == sorted(y_r)
        assert y_s == sorted(y_s)

    def test_all_wire_integers_in_group(self, run128, group128):
        result = run128("intersection", ["a", "b"], ["b", "c"])
        for view in (result.transcript.r_view, result.transcript.s_view):
            for x in view.flat_integers():
                assert x in group128

    def test_no_raw_hashes_on_wire(self, run128, hash128):
        v_r, v_s = ["a", "b"], ["b", "c"]
        result = run128("intersection", v_r, v_s)
        wire = set(result.transcript.r_view.flat_integers()) | set(
            result.transcript.s_view.flat_integers()
        )
        for v in v_r + v_s:
            assert hash128.hash_value(v) not in wire


class TestCollisionDetection:
    def test_programmed_collision_raises(self, group128, params128, rng):
        oracle = RandomOracle(group128, seed=1)
        shared = group128.random_element(rng)
        oracle.program("a", shared)
        oracle.program("b", shared)
        crypto = CryptoContext(
            group=group128, hash=oracle, cipher=PowerCipher(group128)
        )
        with pytest.raises(HashCollisionError):
            run_pair(
                "intersection", ["a", "b"], ["x"], params128,
                random.Random(1), random.Random(2), crypto=crypto,
            )


class TestDeterminism:
    def test_same_seed_same_transcript_bytes(self):
        def run():
            return repro.run("intersection", ["a", "b"], ["b", "c"], bits=128, seed=99)

        assert run().transcript.total_bytes == run().transcript.total_bytes

    def test_different_keys_per_run(self):
        """Fresh seeds draw fresh keys: wire bytes differ across seeds."""
        r1 = repro.run("intersection", ["a"], ["a"], bits=128, seed=1)
        r2 = repro.run("intersection", ["a"], ["a"], bits=128, seed=2)
        y1 = next(r1.transcript.s_view.payloads("3:Y_R"))
        y2 = next(r2.transcript.s_view.payloads("3:Y_R"))
        assert y1 != y2

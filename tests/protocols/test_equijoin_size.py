"""Tests for the Section 5.2 equijoin-size protocol and its leak."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.leakage import equijoin_size_leak, overlap_matrix
from repro.crypto.numtheory import _party_rngs
from repro.db.multiset import ValueMultiset
from repro.protocols.spec import PROTOCOLS, run_pair
from repro.workloads.generator import multiset_pair

occurrences = st.lists(st.integers(min_value=0, max_value=12), max_size=30)


def _leak(v_r, v_s, params):
    """The join size and what the run disclosed, R and S keyed by seed 42."""
    spec = PROTOCOLS["equijoin-size"]
    receiver, sender, wires = run_pair(spec, v_r, v_s, params, *_party_rngs(42))
    return receiver.finish(), equijoin_size_leak(
        receiver, sender, spec.transcript(wires)
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "v_r, v_s, expected",
        [
            (["a", "a", "b", "c"], ["a", "b", "b", "b", "d"], 2 * 1 + 1 * 3),
            ([], ["a"], 0),
            (["a"], [], 0),
            (["a"], ["a"], 1),
            (["a", "a"], ["a", "a", "a"], 6),
            (["x", "y"], ["z"], 0),
        ],
    )
    def test_examples(self, run128, v_r, v_s, expected):
        assert run128("equijoin-size", v_r, v_s).answer == expected

    def test_accepts_multisets(self, run128):
        ms_r = ValueMultiset.from_values(["a", "a", "b"])
        ms_s = ValueMultiset.from_values(["a", "b", "b"])
        assert run128("equijoin-size", ms_r, ms_s).answer == 2 + 2

    def test_sizes_are_occurrence_counts(self, run128):
        result = run128("equijoin-size", ["a", "a", "b"], ["c", "c", "c", "c"])
        assert result.size_v_r == 3  # occurrences, not distinct
        assert result.size_v_s == 4

    @given(occurrences, occurrences)
    @settings(max_examples=20, deadline=None)
    def test_matches_nested_loop_property(self, v_r, v_s):
        brute = sum(1 for x in v_r for y in v_s if x == y)
        assert repro.run("equijoin-size", v_r, v_s, bits=64, seed=1).answer == brute

    def test_workload_agreement(self, run128, rng):
        ms_r, ms_s = multiset_pair(12, 15, 6, rng)
        result = run128("equijoin-size", ms_r, ms_s)
        assert result.answer == ms_r.join_size(ms_s)


class TestCharacterizedLeak:
    def test_duplicate_distributions_reported(self, params128):
        _, leak = _leak(["a", "a", "b"], ["x", "x", "x", "y"], params128)
        assert leak.s_learns_r_duplicates == {1: 1, 2: 1}
        assert leak.r_learns_s_duplicates == {1: 1, 3: 1}

    def test_partition_overlap_matches_plaintext(self, params128, rng):
        ms_r, ms_s = multiset_pair(10, 12, 5, rng)
        join_size, leak = _leak(ms_r, ms_s, params128)
        expected = overlap_matrix(ms_r, ms_s)
        assert leak.partition_overlap == expected

    def test_uniform_duplicates_leak_only_size(self, params128, rng):
        """All values with equal counts: one (d, d) overlap cell, i.e.
        R learns nothing beyond |V_R ∩ V_S| (the paper's benign extreme)."""
        ms_r, ms_s = multiset_pair(8, 9, 4, rng, uniform_count=3)
        join_size, leak = _leak(ms_r, ms_s, params128)
        assert set(leak.partition_overlap) == {(3, 3)}
        assert leak.partition_overlap[(3, 3)] == 4

    def test_distinct_duplicates_fully_identify(self, params128):
        """All counts distinct: every overlap cell has count 1, pinning
        individual values (the paper's worst-case extreme)."""
        v_r = ["a"] * 1 + ["b"] * 2 + ["c"] * 3
        v_s = ["a"] * 4 + ["b"] * 5 + ["z"] * 6
        join_size, leak = _leak(v_r, v_s, params128)
        assert all(count == 1 for count in leak.partition_overlap.values())
        assert len(leak.partition_overlap) == 2  # a and b matched

    def test_join_size_consistent_with_overlap_matrix(self, params128, rng):
        ms_r, ms_s = multiset_pair(10, 10, 6, rng)
        join_size, leak = _leak(ms_r, ms_s, params128)
        from_matrix = sum(
            d_r * d_s * count
            for (d_r, d_s), count in leak.partition_overlap.items()
        )
        assert from_matrix == join_size


class TestWireBehaviour:
    def test_multiset_ships_duplicates(self, run128):
        result = run128("equijoin-size", ["a", "a", "a"], ["b"])
        y_r = next(result.transcript.s_view.payloads("3:Y_R"))
        assert len(y_r) == 3
        assert len(set(y_r)) == 1  # deterministic encryption: 3 copies

    def test_z_r_sorted_and_unpaired(self, run128):
        result = run128("equijoin-size", ["a", "b", "b"], ["b"])
        z_r = next(result.transcript.r_view.payloads("4b:Z_R"))
        assert z_r == sorted(z_r)
        assert all(isinstance(x, int) for x in z_r)


class TestTableConvenience:
    def test_join_size_tables_matches_engine(self, params128):
        from repro.db.engine import equijoin_size as plain_join_size
        from repro.db.table import Table
        from repro.protocols.equijoin import join_size_tables

        t_r = Table(("k", "x"), [(1, "a"), (1, "b"), (2, "c"), (3, "d")])
        t_s = Table(("k", "y"), [(1, "p"), (2, "q"), (2, "r"), (9, "s")])
        join_size = join_size_tables(t_r, t_s, "k", params=params128)
        assert join_size == plain_join_size(t_s, t_r, "k")

    def test_different_attribute_names(self, params128):
        from repro.db.table import Table
        from repro.protocols.equijoin import join_size_tables

        t_r = Table(("rid",), [(1,), (1,), (2,)])
        t_s = Table(("sid",), [(1,), (2,), (2,)])
        join_size = join_size_tables(t_r, t_s, "rid", s_attr="sid", params=params128)
        assert join_size == 2 * 1 + 1 * 2

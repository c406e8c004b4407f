"""Tests for the multi-query composition analyzer (Section 2.3)."""

from __future__ import annotations

import pytest

import repro
from repro.analysis.composition import CompositionAnalyzer
from repro.apps.restriction import QueryAuditor, QueryRefused


class TestIntersectionObservations:
    def test_single_query_determines_queried_values(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection(["a", "b", "c"], ["b"])
        assert analyzer.knowledge.status("b") is True
        assert analyzer.knowledge.status("a") is False
        assert analyzer.knowledge.status("zzz") is None

    def test_answer_must_be_subset(self):
        with pytest.raises(ValueError):
            CompositionAnalyzer().observe_intersection(["a"], ["b"])

    def test_accumulates_across_queries(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection(["a", "b"], ["a"])
        analyzer.observe_intersection(["c", "d"], ["d"])
        assert analyzer.knowledge.members == {"a", "d"}
        assert analyzer.knowledge.non_members == {"b", "c"}


class TestSizeConstraintInference:
    def test_zero_size_collapses_to_nonmembers(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection_size(["a", "b", "c"], 0)
        assert analyzer.knowledge.non_members == {"a", "b", "c"}

    def test_full_size_collapses_to_members(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection_size(["a", "b"], 2)
        assert analyzer.knowledge.members == {"a", "b"}

    def test_partial_size_alone_determines_nothing(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection_size(["a", "b", "c"], 1)
        assert analyzer.knowledge.determined == set()

    def test_impossible_size_rejected(self):
        with pytest.raises(ValueError):
            CompositionAnalyzer().observe_intersection_size(["a"], 2)

    def test_tracker_attack_two_queries(self):
        """The classic tracker: |Q ∩ V_S| and |Q−{v} ∩ V_S| differ by
        one -> v's membership is revealed despite both answers being
        'just sizes'."""
        analyzer = CompositionAnalyzer()
        q = ["a", "b", "c", "d"]
        analyzer.observe_intersection_size(q, 2)       # say V_S ∩ Q = {a, c}
        analyzer.observe_intersection_size(["b", "c", "d"], 1)
        analyzer.observe_intersection_size(["c", "d"], 1)
        analyzer.observe_intersection_size(["d"], 0)
        # Backward collapse: d out; then c in; then b out; then a in.
        assert analyzer.knowledge.status("d") is False
        assert analyzer.knowledge.status("c") is True
        assert analyzer.knowledge.status("b") is False
        assert analyzer.knowledge.status("a") is True

    def test_constraints_interact_with_direct_knowledge(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection_size(["a", "b"], 1)
        analyzer.observe_intersection(["a"], ["a"])  # a is a member
        assert analyzer.knowledge.status("b") is False  # size forces it


class TestLiveProtocolComposition:
    def test_tracker_against_real_protocol_runs(self):
        """Mount the tracker with actual intersection-size executions."""
        v_s = ["s1", "s2", "s3", "shared"]
        probe = ["shared", "x1", "x2"]
        analyzer = CompositionAnalyzer()

        full = repro.run("intersection-size", probe, v_s, bits=128, seed=17)
        analyzer.observe_intersection_size(probe, full.answer)
        reduced = repro.run("intersection-size", ["x1", "x2"], v_s, bits=128, seed=17)
        analyzer.observe_intersection_size(["x1", "x2"], reduced.answer)

        # Sizes were 1 and 0: composition pins 'shared' as a member.
        assert analyzer.knowledge.status("shared") is True

    def test_auditor_blocks_the_same_tracker(self):
        """The Section 2.3 defense: the overlap rule refuses the
        second, almost-identical probe."""
        auditor = QueryAuditor(max_overlap_fraction=0.6, min_result_size=0)
        probe = ["shared", "x1", "x2"]
        auditor.review("q1", probe)
        with pytest.raises(QueryRefused):
            auditor.review("q2", ["x1", "x2"])


class TestReporting:
    def test_determined_fraction(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection(["a", "b"], ["a"])
        assert analyzer.determined_fraction(["a", "b", "c", "d"]) == 0.5
        assert analyzer.determined_fraction([]) == 0.0

    def test_excess_over_single_query(self):
        analyzer = CompositionAnalyzer()
        analyzer.observe_intersection_size(["a", "b"], 2)
        excess = analyzer.excess_over_single_query(single_query_determined=[])
        assert excess == {"a", "b"}

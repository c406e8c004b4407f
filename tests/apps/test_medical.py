"""Tests for Application 2: medical research (Figure 2)."""

from __future__ import annotations

import random

import pytest

from repro.apps.medical import (
    ContingencyTable,
    plaintext_contingency,
    run_medical_research,
)
from repro.db.table import Table
from repro.workloads.generator import medical_workload


class TestContingencyTable:
    def test_total(self):
        t = ContingencyTable(1, 2, 3, 4)
        assert t.total == 10

    def test_as_dict(self):
        t = ContingencyTable(1, 2, 3, 4)
        assert t.as_dict()[(True, True)] == 1
        assert t.as_dict()[(False, False)] == 4


class TestPlaintextGroundTruth:
    def test_hand_example(self):
        t_r = Table(("person_id", "pattern"), [(1, True), (2, False), (3, True)])
        t_s = Table(
            ("person_id", "drug", "reaction"),
            [(1, True, True), (2, True, False), (3, False, True)],
        )
        table = plaintext_contingency(t_r, t_s)
        # Person 3 did not take the drug: excluded.
        assert table.pattern_reaction == 1      # person 1
        assert table.no_pattern_no_reaction == 1  # person 2
        assert table.pattern_no_reaction == 0
        assert table.no_pattern_reaction == 0

    def test_matches_generator_expectation(self, rng):
        wl = medical_workload(80, rng)
        assert plaintext_contingency(wl.t_r, wl.t_s).as_dict() == wl.expected


class TestProtocolRun:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_plaintext(self, suite, seed):
        wl = medical_workload(50, random.Random(seed))
        result = run_medical_research(wl.t_r, wl.t_s, suite)
        assert result.table.as_dict() == wl.expected

    def test_total_bounded_by_drug_takers(self, suite, rng):
        wl = medical_workload(40, rng)
        result = run_medical_research(wl.t_r, wl.t_s, suite)
        drug_takers = len(wl.t_s.where("drug", True))
        assert result.table.total <= drug_takers

    def test_empty_tables(self, suite):
        t_r = Table(("person_id", "pattern"), [])
        t_s = Table(("person_id", "drug", "reaction"), [])
        result = run_medical_research(t_r, t_s, suite)
        assert result.table.total == 0

    def test_nobody_took_drug(self, suite):
        t_r = Table(("person_id", "pattern"), [(1, True)])
        t_s = Table(("person_id", "drug", "reaction"), [(1, False, False)])
        result = run_medical_research(t_r, t_s, suite)
        assert result.table.total == 0

    def test_custom_column_names(self, suite):
        t_r = Table(("pid", "dna"), [(1, True), (2, False)])
        t_s = Table(("pid", "med", "adverse"), [(1, True, True), (2, True, False)])
        result = run_medical_research(
            t_r, t_s, suite,
            id_column="pid", pattern_column="dna",
            drug_column="med", reaction_column="adverse",
        )
        assert result.table.pattern_reaction == 1
        assert result.table.no_pattern_no_reaction == 1


class TestThirdPartyRouting:
    def test_t_receives_eight_sets(self, suite, rng):
        """Four queries x (Z_R + Z_S) each."""
        wl = medical_workload(30, rng)
        result = run_medical_research(wl.t_r, wl.t_s, suite)
        assert len(result.run.t_view.received) == 8

    def test_rs_channel_carries_singly_encrypted_sets(self, suite, rng):
        wl = medical_workload(30, rng)
        result = run_medical_research(wl.t_r, wl.t_s, suite)
        r_steps = [m.step for m in result.run.r_view.received]
        s_steps = [m.step for m in result.run.s_view.received]
        assert len(s_steps) == 4  # one Y_R per query
        assert len(r_steps) == 4  # one Y_S per query

    def test_all_t_traffic_sorted_and_in_group(self, suite, rng):
        """T sees only lexicographically reordered group elements."""
        wl = medical_workload(25, rng)
        result = run_medical_research(wl.t_r, wl.t_s, suite)
        for message in result.run.t_view.received:
            assert message.payload == sorted(message.payload)
            assert all(x in suite.group for x in message.payload)

    def test_total_bytes_accumulates(self, suite, rng):
        wl = medical_workload(25, rng)
        result = run_medical_research(wl.t_r, wl.t_s, suite)
        assert result.run.total_bytes > 0

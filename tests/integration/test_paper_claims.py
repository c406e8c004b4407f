"""Every quantitative claim in the paper, asserted in one place.

This file is the test-suite mirror of EXPERIMENTS.md: each test quotes
the claim and checks our reproduction of it. Tolerances reflect the
paper's own rounding.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.costmodel import PAPER_CONSTANTS, ProtocolCostModel
from repro.analysis.estimates import (
    document_sharing_estimate,
    medical_research_estimate,
)
from repro.circuits.costmodel import CircuitCostModel
from repro.crypto.hashing import collision_probability
from repro.crypto.ot import NaorPinkasCostModel


class TestSection3Claims:
    def test_collision_probability_1e295(self):
        """S3.2.2: 'With 1024-bit hash values ... for n = 1 million,
        Pr[collision] ~ 1e-295.'"""
        p = collision_probability(10**6, 2**1024 // 2)
        assert p < 1e-290
        assert -298 < math.log10(p) < -294


class TestSection6Claims:
    def test_intersection_cost_formula(self):
        """S6.1: intersection ~ 2 Ce (|V_S| + |V_R|)."""
        model = ProtocolCostModel(PAPER_CONSTANTS)
        assert model.intersection_seconds(10**6, 10**6) == pytest.approx(
            2 * 0.02 * 2 * 10**6
        )

    def test_join_cost_formula(self):
        """S6.1: join ~ 2 Ce |V_S| + 5 Ce |V_R|."""
        model = ProtocolCostModel(PAPER_CONSTANTS)
        assert model.join_seconds(10**6, 10**6, exact=False) == pytest.approx(
            0.02 * 7 * 10**6
        )

    def test_intersection_communication(self):
        """S6.1: (|V_S| + 2 |V_R|) k bits."""
        model = ProtocolCostModel(PAPER_CONSTANTS)
        assert model.intersection_bits(10**6, 10**6) == 3 * 10**6 * 1024

    def test_document_sharing_estimates(self):
        """S6.2.1: 4e6 Ce/P ~ 2h; 3e6 k ~ 3 Gbits ~ 35 minutes."""
        est = document_sharing_estimate()
        assert est.encryptions_ce == pytest.approx(4e6)
        assert 2.0 <= est.computation_hours <= 2.5
        assert est.communication_bits == pytest.approx(3.07e9, rel=0.01)
        assert 30 <= est.communication_minutes <= 36

    def test_medical_estimates(self):
        """S6.2.2: 8e6 Ce/P ~ 4 hours; 8 Gbits ~ 1.5 hours."""
        est = medical_research_estimate()
        assert est.encryptions_ce == pytest.approx(8e6)
        assert 4.0 <= est.computation_hours <= 4.7
        assert est.communication_bits == pytest.approx(8.19e9, rel=0.01)
        assert 1.3 <= est.communication_hours <= 1.6


class TestAppendixAClaims:
    @pytest.fixture(scope="class")
    def model(self):
        return CircuitCostModel()

    def test_ot_amortization(self):
        """A.1.1: 'the best choice ... is l = 8, and the costs become
        C_ot = 0.157 Ce, C'_ot >= 32 k1.'"""
        ot = NaorPinkasCostModel(ce_over_cx=1000.0, k1_bits=100)
        assert ot.optimal_l() == 8
        assert ot.computation_cost(8) == pytest.approx(0.157, abs=1e-3)
        assert ot.communication_bits(8) == 3200

    def test_input_coding_totals(self, model):
        """A.1.1: 32 n x 0.157 Ce ~ 5 n Ce; 32 n x 32 k1 ~ 1e5 n."""
        assert model.input_coding_ce(1) == pytest.approx(5.0, abs=0.03)
        assert model.input_coding_bits(1) == pytest.approx(1.02e5, rel=0.01)

    def test_partitioning_table(self, model):
        """A.2 table: (1e4, 11, 2.3e8), (1e6, 19, 7.3e10), (1e8, 32, 1.9e13)."""
        expected = {10**4: (11, 2.3e8), 10**6: (19, 7.3e10), 10**8: (32, 1.9e13)}
        for row in model.circuit_size_table():
            m, f = expected[row.n]
            assert row.m == m
            assert row.gates == pytest.approx(f, rel=0.05)

    def test_brute_force_row(self, model):
        """'The brute force circuit does much worse, with 6.3e9, 6.3e13,
        and 6.3e17 respectively.'"""
        for n, expected in [(10**4, 6.3e9), (10**6, 6.3e13), (10**8, 6.3e17)]:
            assert model.brute_force_gates(n, n) == pytest.approx(expected, rel=0.01)

    def test_computation_comparison(self, model):
        """A.2: circuit input 5e4..5e8 Ce, evaluation 4.7e8..3.8e13 Cr,
        ours 4e4..4e8 Ce."""
        rows = {r.n: r for r in model.comparison_table()}
        for n, (inp, ev, ours) in {
            10**4: (5e4, 4.7e8, 4e4),
            10**6: (5e6, 1.5e11, 4e6),
            10**8: (5e8, 3.8e13, 4e8),
        }.items():
            assert rows[n].circuit_input_ce == pytest.approx(inp, rel=0.02)
            assert rows[n].circuit_eval_cr == pytest.approx(ev, rel=0.05)
            assert rows[n].ours_ce == pytest.approx(ours)

    def test_communication_comparison(self, model):
        """A.2: circuit 1e9..1e13 (OT) + 6.0e10..4.9e15 (tables) bits,
        ours 3e7..3e11 bits."""
        rows = {r.n: r for r in model.comparison_table()}
        for n, (inp, tables, ours) in {
            10**4: (1e9, 6.0e10, 3e7),
            10**6: (1e11, 1.8e13, 3e9),
            10**8: (1e13, 4.9e15, 3e11),
        }.items():
            assert rows[n].circuit_input_bits == pytest.approx(inp, rel=0.03)
            assert rows[n].circuit_tables_bits == pytest.approx(tables, rel=0.05)
            assert rows[n].ours_bits == pytest.approx(ours, rel=0.03)

    def test_headline(self, model):
        """'144 days (using a T1 line), versus 0.5 hours'."""
        row = {r.n: r for r in model.comparison_table()}[10**6]
        assert model.t1_transfer_days(row.circuit_tables_bits) == pytest.approx(
            144, rel=0.05
        )
        ours_hours = model.t1_transfer_days(row.ours_bits) * 24
        assert ours_hours == pytest.approx(0.5, rel=0.15)
        # "1,000-10,000x the communication" of our protocol.
        circuit_bits = row.circuit_input_bits + row.circuit_tables_bits
        assert circuit_bits / row.ours_bits > 1000

    def test_cr_call_ratio(self, model):
        """'there are 1e4 to 1e5 as many calls to Cr as there are to Ce'."""
        for row in model.comparison_table():
            ratio = row.circuit_eval_cr / row.circuit_input_ce
            assert 5e3 <= ratio <= 2e5
            # "substantially faster if C_r > C_e / 10000": already at
            # that C_r the circuit costs over twice our 4n C_e, and
            # its input coding alone (5n C_e) means ours never loses.
            at_threshold = row.circuit_input_ce + row.circuit_eval_cr / 10000
            assert at_threshold / row.ours_ce > 2
            assert row.circuit_input_ce > row.ours_ce

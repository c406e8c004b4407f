"""Tests that the Section 6.2 estimates reproduce the paper's numbers."""

from __future__ import annotations

import pytest

from repro.analysis.costmodel import CostConstants
from repro.analysis.estimates import (
    document_sharing_estimate,
    medical_research_estimate,
)

#: A measured-today C_e (~1 ms at 1024 bits) at the paper's P = 10.
_THIS_CENTURY = CostConstants(ce_seconds=0.001).with_processors(10)


class TestDocumentSharing:
    """Section 6.2.1: |D_R|=10, |D_S|=100, 1000 words/doc."""

    def test_total_encryptions(self):
        est = document_sharing_estimate()
        assert est.encryptions_ce == pytest.approx(4e6)
        # Extrapolating with another machine's C_e moves the hours,
        # never the operation count.
        faster = document_sharing_estimate(constants=_THIS_CENTURY)
        assert faster.encryptions_ce == est.encryptions_ce
        assert faster.computation_hours < est.computation_hours

    def test_computation_about_two_hours(self):
        """'4e6 C_e / P ~ 2 hour' (exactly 2.22 h at P=10)."""
        est = document_sharing_estimate()
        assert est.computation_hours == pytest.approx(2.22, abs=0.05)

    def test_communication_bits(self):
        """'3e6 k ~ 3 Gbits'."""
        est = document_sharing_estimate()
        assert est.communication_bits == pytest.approx(3e6 * 1024)

    def test_transfer_about_35_minutes(self):
        est = document_sharing_estimate()
        assert est.communication_minutes == pytest.approx(33, abs=3)

    def test_scales_linearly_in_pairs(self):
        double = document_sharing_estimate(n_docs_r=20)
        single = document_sharing_estimate(n_docs_r=10)
        assert double.encryptions_ce == pytest.approx(2 * single.encryptions_ce)
        assert double.communication_bits == pytest.approx(
            2 * single.communication_bits
        )

    def test_summary_mentions_name(self):
        assert "document sharing" in document_sharing_estimate().round_trip_summary()


class TestMedicalResearch:
    """Section 6.2.2: |V_R| = |V_S| = 1 million."""

    def test_total_encryptions(self):
        est = medical_research_estimate()
        assert est.encryptions_ce == pytest.approx(8e6)
        faster = medical_research_estimate(constants=_THIS_CENTURY)
        assert faster.encryptions_ce == est.encryptions_ce
        assert faster.computation_hours < est.computation_hours

    def test_computation_about_four_hours(self):
        """'8e6 C_e / P ~ 4 hours' (exactly 4.44 h at P=10)."""
        est = medical_research_estimate()
        assert est.computation_hours == pytest.approx(4.44, abs=0.1)

    def test_communication_bits(self):
        """'8e6 k ~ 8 Gbits'."""
        est = medical_research_estimate()
        assert est.communication_bits == pytest.approx(8e6 * 1024)

    def test_transfer_about_90_minutes(self):
        """'~1.5 hours'."""
        est = medical_research_estimate()
        assert est.communication_hours == pytest.approx(1.47, abs=0.1)

    def test_asymmetric_sizes(self):
        est = medical_research_estimate(n_r=10**6, n_s=2 * 10**6)
        assert est.encryptions_ce == pytest.approx(2 * (3 * 10**6) * 2)

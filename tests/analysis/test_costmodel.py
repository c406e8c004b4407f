"""Tests for the Section 6.1 protocol cost model."""

from __future__ import annotations

import math

import pytest

from repro.analysis.costmodel import (
    CostConstants,
    LinkModel,
    PAPER_CONSTANTS,
    ProtocolCostModel,
    T1_LINE,
)


@pytest.fixture()
def model():
    return ProtocolCostModel()


class TestPaperConstants:
    def test_ce_is_2001_pentium(self):
        assert PAPER_CONSTANTS.ce_seconds == 0.02

    def test_two_e5_exponentiations_per_hour(self):
        """'This corresponds to around 2e5 exponentiations per hour.'"""
        per_hour = 3600 / PAPER_CONSTANTS.ce_seconds
        assert per_hour == pytest.approx(1.8e5, rel=0.1)

    def test_t1_link(self):
        assert PAPER_CONSTANTS.link.bandwidth_bps == pytest.approx(1.544e6)

    def test_default_parallelism(self):
        assert PAPER_CONSTANTS.processors == 10


class TestComputationFormulas:
    def test_intersection_approx(self, model):
        """~2 C_e (n_S + n_R)."""
        assert model.intersection_seconds(100, 50, exact=False) == pytest.approx(
            2 * 0.02 * 150
        )

    def test_intersection_exact_reduces_to_approx_with_zero_minors(self, model):
        """With C_h = C_s = 0 (paper defaults) exact == approximate."""
        assert model.intersection_seconds(100, 50, exact=True) == pytest.approx(
            model.intersection_seconds(100, 50, exact=False)
        )

    def test_intersection_exact_with_minors(self):
        constants = CostConstants(
            ce_seconds=1.0, ch_seconds=0.5, cs_seconds=0.01
        )
        model = ProtocolCostModel(constants)
        n_s, n_r = 16, 8
        expected = (
            (0.5 + 2 * 1.0) * (n_s + n_r)
            + 2 * 0.01 * n_s * math.log2(n_s)
            + 3 * 0.01 * n_r * math.log2(n_r)
        )
        assert model.intersection_seconds(n_s, n_r) == pytest.approx(expected)

    def test_join_approx(self, model):
        """~2 C_e n_S + 5 C_e n_R."""
        assert model.join_seconds(100, 50, exact=False) == pytest.approx(
            0.02 * (2 * 100 + 5 * 50)
        )

    def test_join_exact_with_k_encryptions(self):
        constants = CostConstants(ce_seconds=1.0, ck_seconds=0.25)
        model = ProtocolCostModel(constants)
        seconds = model.join_seconds(10, 6, n_common=4)
        expected = (2 * 10 + 5 * 6) * 1.0 + (10 + 4) * 0.25
        assert seconds == pytest.approx(expected)

    def test_join_costlier_per_r_element(self, model):
        """5 C_e per R element vs 2 C_e in the intersection protocol."""
        assert model.join_seconds(0, 100, exact=False) > model.intersection_seconds(
            0, 100, exact=False
        )

    def test_operation_counts(self, model):
        ops = model.intersection_ops(7, 5)
        assert ops.encryptions == 24
        assert ops.hashes == 12
        ops = model.join_ops(7, 5)
        assert ops.encryptions == 2 * 7 + 5 * 5
        assert ops.k_encryptions == 7 + 5

    def test_parallel_seconds(self, model):
        assert model.parallel_seconds(100.0) == pytest.approx(10.0)

    def test_edge_zero_sizes(self, model):
        assert model.intersection_seconds(0, 0) == 0.0
        assert model.join_seconds(0, 0) == 0.0


class TestCommunicationFormulas:
    def test_intersection_bits(self, model):
        assert model.intersection_bits(100, 50) == (100 + 2 * 50) * 1024

    def test_join_bits(self, model):
        assert model.join_bits(100, 50) == (100 + 3 * 50) * 1024 + 100 * 1024

    def test_transfer_seconds(self, model):
        assert model.transfer_seconds(1.544e6) == pytest.approx(1.0)

    def test_custom_k_bits(self):
        model = ProtocolCostModel(CostConstants(k_bits=512, k_prime_bits=256))
        assert model.intersection_bits(10, 10) == 30 * 512
        assert model.join_bits(10, 10) == 40 * 512 + 10 * 256


class TestLinkModel:
    def test_t1_constant(self):
        assert T1_LINE.bandwidth_bps == pytest.approx(1.544e6)
        assert T1_LINE.latency_s == 0.0

    def test_transfer_time_bandwidth_only(self):
        link = LinkModel(bandwidth_bps=1e6)
        assert link.transfer_time(5e6) == pytest.approx(5.0)

    def test_transfer_time_with_latency(self):
        link = LinkModel(bandwidth_bps=1e6, latency_s=0.1)
        assert link.transfer_time(1e6, messages=3) == pytest.approx(1.3)

    def test_paper_t1_throughput_per_hour(self):
        """Section 6: T1 ~ 5 Gbits/hour."""
        bits_per_hour = T1_LINE.bandwidth_bps * 3600
        assert bits_per_hour == pytest.approx(5.56e9, rel=0.01)

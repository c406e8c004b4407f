"""Tests for the disclosure audit machinery."""

from __future__ import annotations

import random

import pytest

from repro.net.transcript import View
from repro.protocols.audit import audit_view
from repro.protocols.naive_hash import run_naive_intersection
from repro.protocols.simulators import simulate_s_view_intersection


@pytest.fixture()
def domain():
    return [f"id-{i}" for i in range(40)]


class TestProtocolsPassAudit:
    def test_intersection_both_views(self, run128, group128, hash128, domain):
        v_r, v_s = domain[:15], domain[10:30]
        result = run128("intersection", v_r, v_s)
        r_report = audit_view(
            result.transcript.r_view,
            group128,
            hash128,
            counterpart_values=v_s,
            allowed_plain_values=result.answer,
            value_domain=domain,
        )
        assert r_report.passed, r_report.failures()
        s_report = audit_view(
            result.transcript.s_view,
            group128,
            hash128,
            counterpart_values=v_r,
            value_domain=domain,
        )
        assert s_report.passed, s_report.failures()

    def test_intersection_size_r_view(self, run128, group128, hash128, domain):
        result = run128("intersection-size", domain[:10], domain[5:20])
        report = audit_view(
            result.transcript.r_view,
            group128,
            hash128,
            counterpart_values=domain[5:20],
            value_domain=domain,
        )
        assert report.passed, report.failures()

    def test_equijoin_s_view(self, run128, group128, hash128, domain):
        ext = {v: v.encode() for v in domain[5:20]}
        result = run128("equijoin", domain[:10], ext)
        report = audit_view(
            result.transcript.s_view,
            group128,
            hash128,
            counterpart_values=domain[:10],
            value_domain=domain,
        )
        assert report.passed, report.failures()

    def test_signature_check_against_simulator(self, run128, group128, hash128, domain):
        result = run128("intersection", domain[:5], domain[3:9])
        simulated = simulate_s_view_intersection(
            group128, 5, random.Random(1)
        )
        report = audit_view(
            result.transcript.s_view,
            group128,
            hash128,
            counterpart_values=domain[:5],
            expected_signature=simulated.signature(),
            value_domain=domain,
        )
        assert report.passed, report.failures()


class TestAuditCatchesViolations:
    def test_naive_protocol_fails_dictionary_check(
        self, params128, group128, hash128, domain
    ):
        """The Section 3.1 protocol's R view flunks the audit."""
        v_r, v_s = domain[:5], domain[3:20]
        result = run_naive_intersection(v_r, v_s, params128)
        report = audit_view(
            result.run.r_view,
            group128,
            hash128,
            counterpart_values=v_s,
            allowed_plain_values=result.intersection,
            value_domain=domain,
        )
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert "no_plaintext_hash_leak" in names
        assert "dictionary_attack_resisted" in names

    def test_unsorted_ciphertexts_detected(self, group128, hash128, domain):
        """Footnote 3's requirement: shipping in input order is flagged."""
        view = View(party="S", protocol="broken")
        gen = random.Random(4)
        elements = [group128.random_element(gen) for _ in range(6)]
        if elements == sorted(elements):  # pragma: no cover
            elements.reverse()
        view.record("3:Y_R", elements)
        report = audit_view(
            view, group128, hash128, counterpart_values=domain[:5]
        )
        assert not report.passed
        assert any(c.name.startswith("sorted:") for c in report.failures())

    def test_non_group_element_detected(self, group128, hash128, domain):
        view = View(party="S", protocol="broken")
        non_member = next(x for x in range(2, 100) if x not in group128)
        view.record("3:Y_R", [non_member])
        report = audit_view(
            view, group128, hash128, counterpart_values=domain[:3]
        )
        assert not report.passed
        assert "codewords_in_group" in {c.name for c in report.failures()}

    def test_signature_mismatch_detected(self, run128, group128, hash128, domain):
        result = run128("intersection", domain[:5], domain[3:9])
        wrong = simulate_s_view_intersection(group128, 7, random.Random(1))
        report = audit_view(
            result.transcript.s_view,
            group128,
            hash128,
            counterpart_values=domain[:5],
            expected_signature=wrong.signature(),
        )
        assert not report.passed


class TestReportShape:
    def test_report_metadata(self, run128, group128, hash128, domain):
        result = run128("intersection", domain[:3], domain[2:5])
        report = audit_view(
            result.transcript.s_view, group128, hash128, counterpart_values=domain[:3]
        )
        assert report.party == "S"
        assert report.protocol == "intersection"
        assert len(report.checks) >= 3

    def test_failures_empty_on_pass(self, run128, group128, hash128, domain):
        result = run128("intersection", domain[:3], domain[2:5])
        report = audit_view(
            result.transcript.s_view, group128, hash128, counterpart_values=domain[:3]
        )
        assert report.passed
        assert report.failures() == []

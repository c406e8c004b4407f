"""Integration tests: protocols composed with every substrate at once."""

from __future__ import annotations

import random

import pytest

import repro
from repro.crypto.numtheory import _party_rngs
from repro.db import engine
from repro.db.multiset import ValueMultiset
from repro.db.table import Table
from repro.net.serialization import encoded_size
from repro.protocols import PublicParams, audit_view, join_tables
from repro.workloads.generator import medical_workload, overlapping_sets


class TestCrossProtocolConsistency:
    """The four protocols must agree with each other on shared inputs."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = random.Random(123)
        v_r, v_s, expected = overlapping_sets(25, 35, 11, rng)
        return v_r, v_s, expected

    def test_intersection_vs_size(self, workload):
        v_r, v_s, expected = workload
        inter = repro.run("intersection", v_r, v_s, bits=128, seed=8)
        size = repro.run("intersection-size", v_r, v_s, bits=128, seed=8)
        assert len(inter.answer) == size.answer == len(expected)

    def test_sets_vs_multisets_degenerate(self, workload):
        """Equijoin size over duplicate-free multisets equals the
        intersection size."""
        v_r, v_s, expected = workload
        join_size = repro.run("equijoin-size", v_r, v_s, bits=128, seed=9)
        assert join_size.answer == len(expected)

    def test_table_join_vs_value_protocols(self, workload):
        v_r, v_s, expected = workload
        t_r = Table(("id",), [(v,) for v in v_r])
        t_s = Table(("id", "extra"), [(v, f"row-{v}") for v in v_s])
        joined, matches = join_tables(
            t_r, t_s, "id", params=PublicParams.for_bits(128), rngs=_party_rngs(10)
        )
        assert set(matches) == expected
        assert len(joined) == len(expected)


class TestRealisticPipeline:
    def test_512bit_full_stack(self):
        """A run at a realistic-ish modulus exercising hash, cipher,
        channel, table and engine layers together."""
        rng = random.Random(5)
        v_r, v_s, expected = overlapping_sets(12, 15, 6, rng)
        result = repro.run("intersection", v_r, v_s, bits=512, seed=5)
        assert result.answer == expected
        # Wire codewords are 512-bit numbers -> 69 bytes each encoded.
        y_r = next(result.transcript.s_view.payloads("3:Y_R"))
        assert encoded_size(y_r[0]) == 512 // 8 + 5

    def test_medical_pipeline_with_audits(self, params128, group128, hash128):
        wl = medical_workload(60, random.Random(6))
        from repro.apps.medical import plaintext_contingency, run_medical_research

        result = run_medical_research(wl.t_r, wl.t_s, params128, _party_rngs(6))
        assert result.table.as_dict() == plaintext_contingency(wl.t_r, wl.t_s).as_dict()
        # T's view passes the structural audit: only sorted codewords.
        ids = [row[0] for row in wl.t_r.rows]
        report = audit_view(
            result.run.t_view, group128, hash128, counterpart_values=ids,
            value_domain=ids,
        )
        assert report.passed, report.failures()


class TestSection6WireAccounting:
    """Measured wire traffic vs the Section 6.1 communication model."""

    def test_intersection_codeword_totals(self):
        n_r, n_s = 10, 14
        v_r = [f"r{i}" for i in range(n_r)]
        v_s = [f"s{i}" for i in range(n_s)]
        result = repro.run("intersection", v_r, v_s, bits=128, seed=11)
        # Paper accounting: (n_S + 2 n_R) codewords of k bits. Our wire
        # resends the y's in step 4(b) (pairs), so measured payload =
        # model + n_R extra codewords; both are checked.
        k_bytes = 128 // 8 + 5
        modelled_payload = (n_s + 2 * n_r) * k_bytes
        measured = result.transcript.total_bytes
        overhead = measured - modelled_payload - n_r * k_bytes
        # Remaining overhead is exactly the framing: a 5-byte list
        # header per message (3 messages) plus a 5-byte tuple header per
        # step-4(b) pair (n_R pairs).
        assert overhead == 3 * 5 + n_r * 5

    def test_intersection_size_matches_model_exactly_in_codewords(self):
        n_r, n_s = 9, 13
        result = repro.run(
            "intersection-size", [f"r{i}" for i in range(n_r)],
            [f"s{i}" for i in range(n_s)], bits=128, seed=12,
        )
        codewords = 0
        for view in (result.transcript.r_view, result.transcript.s_view):
            codewords += len(view.flat_integers())
        assert codewords == n_s + 2 * n_r  # the paper's count, exactly

    def test_traffic_scales_linearly(self):
        sizes = []
        for n in (5, 10, 20):
            result = repro.run(
                "intersection-size", [f"r{i}" for i in range(n)],
                [f"s{i}" for i in range(n)], bits=128, seed=13,
            )
            sizes.append(result.transcript.total_bytes)
        # Doubling n roughly doubles traffic (within framing slack).
        assert sizes[1] / sizes[0] == pytest.approx(2.0, rel=0.1)
        assert sizes[2] / sizes[1] == pytest.approx(2.0, rel=0.1)


class TestMultisetIntegration:
    def test_equijoin_size_with_table_multisets(self):
        t_r = Table(("a",), [(v,) for v in "aabbbc"])
        t_s = Table(("a",), [(v,) for v in "abbccc"])
        ms_r = ValueMultiset.from_table(t_r, "a")
        ms_s = ValueMultiset.from_table(t_s, "a")
        result = repro.run("equijoin-size", ms_r, ms_s, bits=128, seed=14)
        assert result.answer == engine.equijoin_size(t_s, t_r, "a")

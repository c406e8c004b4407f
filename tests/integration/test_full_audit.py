"""The full audit matrix: every protocol, both views, all checks.

For each protocol this runs a realistic workload and audits each
recorded view with the strongest applicable configuration - structural
signature from the proof's simulator (where one exists), group-domain
checks, reorder checks, plaintext-leak scan, and the dictionary attack
over the full value domain. This is the "audits on everything" promise
of DESIGN.md in one place.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.ext_cipher import BlockExtCipher
from repro.crypto.numtheory import _party_rngs
from repro.protocols.audit import audit_view
from repro.protocols.spec import PROTOCOLS, run_pair
from repro.protocols.simulators import (
    simulate_r_view_equijoin,
    simulate_r_view_intersection,
    simulate_r_view_intersection_size,
    simulate_s_view_intersection,
)

DOMAIN = [f"id-{i:03d}" for i in range(60)]
V_R = DOMAIN[:25]
V_S = DOMAIN[15:45]
INTERSECTION = set(V_R) & set(V_S)


@pytest.fixture()
def sim_rng():
    return random.Random(2024)


def _audit_s(run, group, hash_, **kwargs):
    return audit_view(
        run.s_view, group, hash_,
        counterpart_values=V_R, value_domain=DOMAIN, **kwargs,
    )


def _audit_r(run, group, hash_, allowed=(), **kwargs):
    return audit_view(
        run.r_view, group, hash_,
        counterpart_values=V_S, allowed_plain_values=allowed,
        value_domain=DOMAIN, **kwargs,
    )


class TestIntersectionFullAudit:
    def test_both_views_with_simulators(
        self, run128, group128, hash128, cipher128, sim_rng
    ):
        result = run128("intersection", V_R, V_S)
        assert result.answer == INTERSECTION

        s_sim = simulate_s_view_intersection(group128, len(V_R), sim_rng)
        s_report = _audit_s(
            result.transcript, group128, hash128,
            expected_signature=s_sim.signature(),
        )
        assert s_report.passed, s_report.failures()

        r_sim = simulate_r_view_intersection(
            group128, hash128, cipher128.sample_key(sim_rng),
            V_R, result.answer, result.size_v_s, sim_rng,
        )
        r_report = _audit_r(
            result.transcript, group128, hash128, allowed=result.answer,
            expected_signature=r_sim.signature(),
        )
        assert r_report.passed, r_report.failures()


class TestIntersectionSizeFullAudit:
    def test_both_views_with_simulators(
        self, run128, group128, hash128, cipher128, sim_rng
    ):
        result = run128("intersection-size", V_R, V_S)
        assert result.answer == len(INTERSECTION)

        s_sim = simulate_s_view_intersection(
            group128, len(V_R), sim_rng, protocol="intersection_size"
        )
        s_report = _audit_s(
            result.transcript, group128, hash128,
            expected_signature=s_sim.signature(),
        )
        assert s_report.passed, s_report.failures()

        r_sim = simulate_r_view_intersection_size(
            group128, result.size_v_s, result.size_v_r, result.answer,
            cipher128.sample_key(sim_rng), sim_rng,
        )
        r_report = _audit_r(
            result.transcript, group128, hash128,
            expected_signature=r_sim.signature(),
        )
        assert r_report.passed, r_report.failures()


class TestEquijoinFullAudit:
    def test_both_views_with_simulators(
        self, run128, group128, hash128, cipher128, sim_rng
    ):
        ext = {v: v.encode() for v in V_S}  # fixed-length payloads
        result = run128("equijoin", V_R, ext)
        assert set(result.answer) == INTERSECTION

        s_report = _audit_s(result.transcript, group128, hash128)
        assert s_report.passed, s_report.failures()

        r_sim = simulate_r_view_equijoin(
            group128, hash128, cipher128.sample_key(sim_rng),
            V_R, result.answer, result.size_v_s, sim_rng,
            BlockExtCipher(group128),
        )
        r_report = _audit_r(
            result.transcript, group128, hash128, allowed=set(result.answer),
            expected_signature=r_sim.signature(),
        )
        assert r_report.passed, r_report.failures()


class TestEquijoinSizeFullAudit:
    def test_both_views(self, run128, group128, hash128):
        result = run128("equijoin-size", V_R, V_S)
        assert result.answer == len(INTERSECTION)
        assert _audit_s(result.transcript, group128, hash128).passed
        assert _audit_r(result.transcript, group128, hash128).passed


class TestEquijoinSumFullAudit:
    def test_both_views(self, params128, hash128):
        values_s = {v: 10 for v in V_S}
        spec = PROTOCOLS["equijoin-sum"]
        receiver, _, wires = run_pair(
            spec, V_R, values_s, params128, *_party_rngs(42), paillier_bits=128
        )
        run = spec.transcript(wires)
        assert receiver.finish() == 10 * len(INTERSECTION)
        # The Paillier ciphertexts are not QR_p elements, so the
        # group-domain check does not apply to R's view; audit S's
        # (which carries only Y_R plus one Paillier ciphertext - also
        # outside the group, so restrict to the leak/attack checks).
        s_view_ints = set(run.s_view.flat_integers())
        from repro.protocols.naive_hash import dictionary_attack

        recovered = dictionary_attack(s_view_ints, DOMAIN, hash128)
        assert recovered == set()
        r_view_ints = set(run.r_view.flat_integers())
        recovered = dictionary_attack(r_view_ints, DOMAIN, hash128)
        assert recovered == set()

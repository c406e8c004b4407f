"""Tests for the broken Section 3.1 protocol and the dictionary attack."""

from __future__ import annotations

from repro.protocols.naive_hash import dictionary_attack, run_naive_intersection


class TestNaiveProtocolComputesAnswer:
    def test_intersection_correct(self, params128):
        result = run_naive_intersection(["a", "b", "c"], ["b", "c", "d"], params128)
        assert result.intersection == {"b", "c"}

    def test_empty(self, params128):
        assert run_naive_intersection([], [], params128).intersection == set()

    def test_single_message_protocol(self, params128):
        result = run_naive_intersection(["a"], ["b"], params128)
        assert [m.step for m in result.run.r_view.received] == ["2:X_S"]
        assert result.run.s_view.received == []


class TestAttackSucceedsAgainstNaive:
    def test_full_recovery_over_small_domain(self, params128, hash128):
        """Section 3.1: 'if the domain V is small, R can exhaustively go
        over all possible values and completely learn V_S'."""
        domain = [f"person-{i}" for i in range(50)]
        v_s = domain[10:25]
        v_r = domain[:5]  # R's own values barely overlap
        result = run_naive_intersection(v_r, v_s, params128)
        recovered = dictionary_attack(result.observed_hashes, domain, hash128)
        assert recovered == set(v_s)

    def test_recovery_beyond_intersection(self, params128, hash128):
        """R learns values it does NOT share - the privacy failure."""
        v_s = ["x", "y", "z"]
        result = run_naive_intersection(["x"], v_s, params128)
        recovered = dictionary_attack(
            result.observed_hashes, ["x", "y", "z", "w"], hash128
        )
        assert {"y", "z"} <= recovered  # non-shared values exposed

    def test_partial_domain_partial_recovery(self, params128, hash128):
        v_s = ["a", "b", "c"]
        result = run_naive_intersection([], v_s, params128)
        recovered = dictionary_attack(result.observed_hashes, ["a", "q"], hash128)
        assert recovered == {"a"}


class TestAttackFailsAgainstCommutativeProtocol:
    def test_r_view_resists_dictionary_attack(self, run128, hash128):
        """The same attack mounted on the real protocol's R view finds
        nothing: everything on the wire is encrypted under S's key."""
        domain = [f"person-{i}" for i in range(50)]
        v_s = domain[10:25]
        v_r = domain[:12]
        result = run128("intersection", v_r, v_s)
        observed = set(result.transcript.r_view.flat_integers())
        recovered = dictionary_attack(observed, domain, hash128)
        assert recovered == set()

    def test_s_view_resists_dictionary_attack(self, run128, hash128):
        domain = [f"person-{i}" for i in range(30)]
        result = run128("intersection", domain[:10], domain[5:20])
        observed = set(result.transcript.s_view.flat_integers())
        recovered = dictionary_attack(observed, domain, hash128)
        assert recovered == set()

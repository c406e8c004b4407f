"""Tests for the equijoin-sum aggregate protocol (future-work extension)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numtheory import _party_rngs
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS, run_pair

SPEC = PROTOCOLS["equijoin-sum"]


def run_sum(v_r, values_s, bits=128, seed=42):
    """One run over a 128-bit Paillier modulus: R's and S's machines
    (R's answer, match count and ``|V_S|``; S's ``|V_R|``) and the
    recorded transcript."""
    receiver, sender, wires = run_pair(
        SPEC, v_r, values_s, PublicParams.for_bits(bits), *_party_rngs(seed),
        paillier_bits=128,
    )
    return receiver, sender, SPEC.transcript(wires)


class TestCorrectness:
    @pytest.mark.parametrize(
        "v_r, values_s, expected_sum, expected_matches",
        [
            (["a", "b", "c"], {"b": 10, "c": 32, "z": 999}, 42, 2),
            (["a"], {"a": 7}, 7, 1),
            (["a"], {"b": 5}, 0, 0),
            ([], {"a": 5}, 0, 0),
            (["a", "b"], {}, 0, 0),
            (["x", "y"], {"x": 0, "y": 0}, 0, 2),  # zero values still match
        ],
    )
    def test_examples(self, v_r, values_s, expected_sum, expected_matches):
        receiver, _, _ = run_sum(v_r, values_s)
        assert receiver.finish() == expected_sum
        assert receiver.state.match_count == expected_matches

    def test_sizes_learned(self):
        receiver, sender, _ = run_sum(["a", "b"], {"b": 1, "c": 2, "d": 3})
        assert receiver.state.size_v_s == 3
        assert sender.state.size_v_r == 2

    def test_large_values(self):
        receiver, _, _ = run_sum(["k"], {"k": 10**12})
        assert receiver.finish() == 10**12

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            run_sum(["a"], {"a": -1})

    @given(
        st.sets(st.integers(min_value=0, max_value=25), max_size=8),
        st.dictionaries(
            st.integers(min_value=0, max_value=25),
            st.integers(min_value=0, max_value=10**6),
            max_size=8,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_plaintext_property(self, v_r, values_s):
        receiver, _, _ = run_sum(list(v_r), values_s, bits=64, seed=5)
        expected = sum(values_s[v] for v in v_r if v in values_s)
        assert receiver.finish() == expected
        assert receiver.state.match_count == len(v_r & set(values_s))


class TestDisclosureShape:
    def test_wire_steps(self):
        _, _, run = run_sum(["a", "b"], {"b": 4, "q": 9})
        r_steps = [m.step for m in run.r_view.received]
        s_steps = [m.step for m in run.s_view.received]
        assert r_steps == ["2:Z_R+pk", "3:pairs", "5:blinded_sum"]
        assert s_steps == ["1:Y_R", "4:blinded"]

    def test_z_r_unpaired_and_sorted(self):
        _, _, run = run_sum(["a", "b", "c"], {"b": 4})
        z_r, _n = next(run.r_view.payloads("2:Z_R+pk"))
        assert z_r == sorted(z_r)
        assert all(isinstance(x, int) for x in z_r)

    def test_s_sees_blinded_sum_not_true_sum(self):
        """The single ciphertext S decrypts carries sum + uniform mask;
        the true sum must not be recoverable from S's view alone (we
        check it is not literally present)."""
        values = {"b": 1111, "c": 2222}
        receiver, _, run = run_sum(["b", "c"], values)
        assert receiver.finish() == 3333
        # S's view holds Y_R (group elements) and one Paillier
        # ciphertext; neither equals the plaintext sum.
        s_ints = set(run.s_view.flat_integers())
        assert 3333 not in s_ints

    def test_blinded_sum_varies_across_runs(self):
        """The mask is fresh per run: what S decrypts differs even on
        identical inputs."""
        revealed = set()
        for seed in (1, 2, 3):
            receiver, _, run = run_sum(["a"], {"a": 5}, seed=seed)
            revealed.add(next(run.r_view.payloads("5:blinded_sum")))
            assert receiver.finish() == 5
        assert len(revealed) == 3

    def test_individual_values_not_in_r_view(self):
        """R's view carries only Paillier ciphertexts of S's values -
        the plaintext amounts never appear."""
        values = {"b": 123456789, "q": 987654321}
        _, _, run = run_sum(["b"], values)
        r_ints = set(run.r_view.flat_integers())
        assert 123456789 not in r_ints
        assert 987654321 not in r_ints

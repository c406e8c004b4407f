"""Metamorphic tests: protocol answers under input transformations.

Each test states an invariance the protocols must satisfy (the
plaintext semantics satisfy it, so the private computation must too)
and checks it on live runs. These catch bugs that example-based tests
miss - e.g. order dependence, value-encoding confusion, or state
leaking between runs that share their parameters.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.numtheory import _party_rngs
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS, run_pair

value_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=10)


class TestPermutationInvariance:
    @given(value_sets, value_sets, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_input_order_irrelevant(self, v_r, v_s, seed):
        rng = random.Random(seed)
        a_r, a_s = sorted(v_r), sorted(v_s)
        b_r, b_s = list(v_r), list(v_s)
        rng.shuffle(b_r)
        rng.shuffle(b_s)
        result_a = repro.run("intersection", a_r, a_s, bits=64, seed=1)
        result_b = repro.run("intersection", b_r, b_s, bits=64, seed=2)
        assert result_a.answer == result_b.answer

    def test_multiset_order_irrelevant_for_join_size(self):
        values_r = ["a", "b", "a", "c", "b", "a"]
        values_s = ["b", "a", "b"]
        forward = repro.run("equijoin-size", values_r, values_s, bits=64, seed=3)
        backward = repro.run(
            "equijoin-size", list(reversed(values_r)), list(reversed(values_s)),
            bits=64, seed=4,
        )
        assert forward.answer == backward.answer


class TestRelabelingInvariance:
    @given(value_sets, value_sets)
    @settings(max_examples=15, deadline=None)
    def test_bijective_renaming_preserves_sizes(self, v_r, v_s):
        """Applying an injective rename to both inputs must preserve
        the intersection size (the protocol sees only hashes)."""
        rename = lambda v: f"renamed::{v * 7 + 1}"
        original = repro.run("intersection-size", list(v_r), list(v_s), bits=64, seed=5)
        renamed = repro.run(
            "intersection-size",
            [rename(v) for v in v_r],
            [rename(v) for v in v_s],
            bits=64, seed=6,
        )
        assert original.answer == renamed.answer

    def test_swap_of_parties_transposes_sizes(self):
        v_r, v_s = ["a", "b", "c"], ["b", "x"]
        forward = repro.run("intersection", v_r, v_s, bits=64, seed=7)
        swapped = repro.run("intersection", v_s, v_r, bits=64, seed=8)
        assert forward.answer == swapped.answer
        assert forward.size_v_s == swapped.size_v_r
        assert forward.size_v_r == swapped.size_v_s


class TestMonotonicity:
    @given(value_sets, value_sets, st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_adding_shared_value_grows_intersection(self, v_r, v_s, extra):
        base = repro.run(
            "intersection", list(v_r), list(v_s), bits=64, seed=9
        )
        grown = repro.run(
            "intersection", list(v_r | {extra}), list(v_s | {extra}),
            bits=64, seed=10,
        )
        assert grown.answer == base.answer | {extra}

    def test_superset_of_s_never_shrinks_answer(self):
        v_r = ["a", "b", "c"]
        small = repro.run("intersection", v_r, ["b"], bits=64, seed=11)
        large = repro.run(
            "intersection", v_r, ["b", "c", "z"], bits=64, seed=12
        )
        assert small.answer <= large.answer


def _answer(protocol, v_r, v_s, params, rngs):
    """R's answer of one run on the shared ``params`` and ``rngs``."""
    receiver, _, _ = run_pair(protocol, v_r, v_s, params, *rngs)
    return receiver.finish()


class TestSuiteReuse:
    def test_sequential_runs_on_one_suite_stay_correct(self):
        """Runs sharing params and one pair of party rngs (fresh keys
        per run, shared hash/group) must not leak state between runs."""
        params, rngs = PublicParams.for_bits(64), _party_rngs(13)
        for i in range(5):
            v_r = [f"v{i}-{j}" for j in range(4)] + ["common"]
            v_s = ["common", f"s{i}"]
            assert _answer("intersection", v_r, v_s, params, rngs) == {"common"}

    def test_interleaved_protocol_types_on_one_suite(self):
        params, rngs = PublicParams.for_bits(64), _party_rngs(14)
        assert _answer("intersection", ["a", "b"], ["b"], params, rngs) == {"b"}
        assert _answer("intersection-size", ["a", "b"], ["b"], params, rngs) == 1
        assert _answer("equijoin-size", ["a", "a"], ["a"], params, rngs) == 2
        assert _answer("intersection", ["a", "b"], ["b"], params, rngs) == {"b"}


class TestCrossProtocolAgreement:
    @given(value_sets, value_sets)
    @settings(max_examples=10, deadline=None)
    def test_intersection_and_size_agree(self, v_r, v_s):
        inter = repro.run(
            "intersection", list(v_r), list(v_s), bits=64, seed=15
        )
        size = repro.run(
            "intersection-size", list(v_r), list(v_s), bits=64, seed=16
        )
        assert len(inter.answer) == size.answer

    @given(value_sets, value_sets)
    @settings(max_examples=10, deadline=None)
    def test_join_size_on_sets_equals_intersection_size(self, v_r, v_s):
        join = repro.run(
            "equijoin-size", list(v_r), list(v_s), bits=64, seed=17
        )
        assert join.answer == len(v_r & v_s)


def _held(party):
    """Everything a party holds across queries (containers, counters)."""
    return {
        name: value.copy() if hasattr(value, "copy") else value
        for name, value in vars(party).items()
        if isinstance(value, (dict, set, list, int, type(None)))
    }


class TestRepeatedDrivers:
    """A full query is the whole table added to an *empty* state, so a
    full driver called again answers the same and leaves the party in
    the same state - nothing accumulates."""

    CASES = {
        "intersection": (["a", "b", "c"], ["b", "c", "d"]),
        "intersection-size": (["a", "b", "c", "d"], ["c", "d", "e"]),
        "equijoin": (["a", "b", "c"], {"b": b"rec-b", "c": b"rec-c", "z": b"-"}),
        "equijoin-size": (["a", "a", "b", "c"], ["a", "b", "b", "e"]),
    }

    @pytest.mark.parametrize("protocol", sorted(CASES))
    def test_two_round_drivers_are_repeatable(self, protocol):
        spec, (v_r, v_s) = PROTOCOLS[protocol], self.CASES[protocol]
        params = PublicParams.for_bits(64)
        receiver = spec.make_receiver(v_r, params, random.Random(1))
        sender = spec.make_sender(v_s, params, random.Random(2))

        m1, after_m1 = receiver.round1(), _held(receiver)
        assert receiver.round1() == m1 and _held(receiver) == after_m1
        m2, after_m2 = sender.round1(m1), _held(sender)
        assert sender.round1(m1) == m2 and _held(sender) == after_m2
        answer, after_finish = receiver.finish(m2), _held(receiver)
        assert receiver.finish(m2) == answer
        assert _held(receiver) == after_finish
        assert sender.size_v_r == len(v_r)
        assert receiver.size_v_s == len(v_s)

    def test_equijoin_sum_drivers_are_repeatable(self):
        spec, params = PROTOCOLS["equijoin-sum"], PublicParams.for_bits(64)
        receiver = spec.make_receiver(["a", "b", "c"], params, random.Random(1))
        sender = spec.make_sender(
            {"b": 5, "c": 7, "z": 1}, params, random.Random(2)
        )
        m1 = receiver.round1()
        sender.round1(m1)
        m2 = sender.round1(m1)  # fresh Paillier randomness, same state
        assert sender.size_v_r == 3 and sender.payloads == {"b": 5, "c": 7, "z": 1}
        receiver.round2(m2)
        m3 = receiver.round2(m2)
        assert (receiver.match_count, receiver.size_v_s) == (2, 3)
        assert sum(receiver._z_r.values()) == 3
        assert receiver.finish(sender.round2(m3)) == 12

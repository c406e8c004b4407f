"""Tests for the separable party state machines."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.protocols.parties import (
    IntersectionReceiver,
    IntersectionSender,
    IntersectionSizeReceiver,
    IntersectionSizeSender,
    PublicParams,
)

value_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=10)


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(128)


def _intersection_of(v_r, v_s, params, seed=0):
    receiver = IntersectionReceiver(v_r, params, random.Random(f"{seed}r"))
    sender = IntersectionSender(v_s, params, random.Random(f"{seed}s"))
    return receiver.finish(sender.round1(receiver.round1()))


def _run_size(v_r, v_s, params, seed=0):
    receiver = IntersectionSizeReceiver(v_r, params, random.Random(f"{seed}r"))
    sender = IntersectionSizeSender(v_s, params, random.Random(f"{seed}s"))
    return receiver.finish(sender.round1(receiver.round1()))


class TestPublicParams:
    def test_wire_round_trip(self, params):
        assert PublicParams.from_wire(params.to_wire()) == params

    def test_unknown_hash_rejected(self):
        with pytest.raises(ValueError):
            PublicParams(p=23, hash_name="md5").build()

    def test_square_hash_variant(self):
        params = PublicParams(p=PublicParams.for_bits(128).p, hash_name="square")
        assert _intersection_of(["a", "b"], ["b", "c"], params) == {"b"}


class TestIntersectionParties:
    def test_basic(self, params):
        assert _intersection_of(["a", "b", "c"], ["b", "c", "d"], params) == {
            "b",
            "c",
        }

    def test_empty_sides(self, params):
        assert _intersection_of([], ["a"], params) == set()
        assert _intersection_of(["a"], [], params) == set()

    def test_sizes_recorded(self, params):
        receiver = IntersectionReceiver(["a", "b"], params, random.Random(1))
        sender = IntersectionSender(["b", "c", "d"], params, random.Random(2))
        answer = receiver.finish(sender.round1(receiver.round1()))
        assert answer == {"b"}
        assert sender.size_v_r == 2
        assert receiver.size_v_s == 3

    def test_messages_are_sorted(self, params):
        receiver = IntersectionReceiver(list("abcdef"), params, random.Random(3))
        y_r = receiver.round1()
        assert y_r == sorted(y_r)
        sender = IntersectionSender(list("defghi"), params, random.Random(4))
        y_s, _pairs = sender.round1(y_r)
        assert y_s == sorted(y_s)

    @given(value_sets, value_sets, st.integers(min_value=0, max_value=99))
    @settings(max_examples=15, deadline=None)
    def test_matches_set_semantics(self, v_r, v_s, seed):
        params = PublicParams.for_bits(64)
        assert _intersection_of(list(v_r), list(v_s), params, seed) == (v_r & v_s)

    def test_agrees_with_driver_function(self, params):
        v_r, v_s = ["x", "y", "z"], ["y", "q"]
        driver = repro.run("intersection", v_r, v_s, bits=128, seed=5)
        assert _intersection_of(v_r, v_s, params) == driver.answer


class TestIntersectionSizeParties:
    def test_basic(self, params):
        assert _run_size(["a", "b", "c"], ["b", "c", "d"], params) == 2

    def test_z_r_unpaired(self, params):
        receiver = IntersectionSizeReceiver(["a", "b"], params, random.Random(6))
        sender = IntersectionSizeSender(["b"], params, random.Random(7))
        y_s, z_r = sender.round1(receiver.round1())
        assert all(isinstance(z, int) for z in z_r)
        assert z_r == sorted(z_r)

    @given(value_sets, value_sets)
    @settings(max_examples=15, deadline=None)
    def test_matches_set_semantics(self, v_r, v_s):
        params = PublicParams.for_bits(64)
        assert _run_size(list(v_r), list(v_s), params) == len(v_r & v_s)


class TestIsolation:
    def test_parties_share_no_state(self, params):
        """The two party objects only exchange explicit messages."""
        receiver = IntersectionReceiver(["a"], params, random.Random(8))
        sender = IntersectionSender(["a"], params, random.Random(9))
        assert receiver._key != sender._key
        # The sender never holds R's values or vice versa.
        assert receiver.values == ["a"] and sender.values == ["a"]
        # Before round 1, S holds nothing derived from R - and has
        # encrypted nothing of its own.
        assert sender.size_v_r is None and sender._y_by_value == {}


class TestEquijoinParties:
    def _run(self, v_r, ext, params, seed=0):
        from repro.protocols.parties import EquijoinReceiver, EquijoinSender

        receiver = EquijoinReceiver(v_r, params, random.Random(f"{seed}r"))
        sender = EquijoinSender(ext, params, random.Random(f"{seed}s"))
        return receiver.finish(sender.round1(receiver.round1()))

    def test_basic(self, params):
        matches = self._run(
            ["a", "b", "z"], {"a": b"rec-a", "b": b"rec-b", "q": b"rec-q"}, params
        )
        assert matches == {"a": b"rec-a", "b": b"rec-b"}

    def test_multiblock_payload(self, params):
        payload = bytes(range(256)) * 3
        matches = self._run(["k"], {"k": payload}, params)
        assert matches["k"] == payload

    def test_empty_sides(self, params):
        assert self._run([], {"a": b"x"}, params) == {}
        assert self._run(["a"], {}, params) == {}

    def test_sizes_recorded(self, params):
        from repro.protocols.parties import EquijoinReceiver, EquijoinSender

        receiver = EquijoinReceiver(["a", "b"], params, random.Random(1))
        sender = EquijoinSender({"b": b"x", "c": b"y", "d": b"z"}, params,
                                random.Random(2))
        matches = receiver.finish(sender.round1(receiver.round1()))
        assert matches == {"b": b"x"}
        assert sender.size_v_r == 2
        assert receiver.size_v_s == 3

    def test_agrees_with_driver(self, params):
        v_r = ["x", "y", "z"]
        ext = {"y": b"payload-y", "w": b"payload-w"}
        driver = repro.run("equijoin", v_r, ext, bits=128, seed=3)
        assert self._run(v_r, ext, params) == driver.answer

    @given(
        st.sets(st.integers(min_value=0, max_value=25), max_size=8),
        st.dictionaries(
            st.integers(min_value=0, max_value=25), st.binary(max_size=6), max_size=8
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_plaintext_property(self, v_r, ext):
        params = PublicParams.for_bits(64)
        expected = {v: ext[v] for v in v_r if v in ext}
        assert self._run(list(v_r), ext, params) == expected


class TestEquijoinSizeParties:
    def _run(self, v_r, v_s, params, seed=0):
        from repro.protocols.parties import (
            EquijoinSizeReceiver,
            EquijoinSizeSender,
        )

        receiver = EquijoinSizeReceiver(v_r, params, random.Random(f"{seed}r"))
        sender = EquijoinSizeSender(v_s, params, random.Random(f"{seed}s"))
        return receiver.finish(sender.round1(receiver.round1()))

    def test_multiplicities_multiply(self, params):
        # a: 2*1, b: 1*2 -> join size 4.
        assert self._run(["a", "a", "b", "c"], ["a", "b", "b", "e"],
                         params) == 4

    def test_disjoint_multisets(self, params):
        assert self._run(["a", "a"], ["b", "b"], params) == 0

    def test_empty_sides(self, params):
        assert self._run([], ["a", "a"], params) == 0
        assert self._run(["a"], [], params) == 0

    def test_sizes_count_occurrences(self, params):
        from repro.protocols.parties import (
            EquijoinSizeReceiver,
            EquijoinSizeSender,
        )

        receiver = EquijoinSizeReceiver(["a", "a", "b"], params,
                                        random.Random(1))
        sender = EquijoinSizeSender(["b", "b"], params, random.Random(2))
        receiver.finish(sender.round1(receiver.round1()))
        assert sender.size_v_r == 3  # R's multiset size, not distinct count
        assert receiver.size_v_s == 2

    def test_agrees_with_multiset_and_driver(self, params):
        from repro.db.multiset import ValueMultiset

        v_r = ["x", "x", "y", "z", "z", "z"]
        v_s = ["x", "y", "y", "z", "w"]
        expected = ValueMultiset.from_values(v_r).join_size(
            ValueMultiset.from_values(v_s)
        )
        driver = repro.run("equijoin-size", v_r, v_s, bits=128, seed=7)
        assert self._run(v_r, v_s, params) == expected == driver.answer

    def test_accepts_prebuilt_multiset(self, params):
        from repro.db.multiset import ValueMultiset

        ms_r = ValueMultiset.from_values(["a", "a", "b"])
        ms_s = ValueMultiset.from_values(["a", "b", "b"])
        assert self._run(ms_r, ms_s, params) == 1 * 2 + 2 * 1

    @given(
        st.lists(st.integers(min_value=0, max_value=12), max_size=10),
        st.lists(st.integers(min_value=0, max_value=12), max_size=10),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_plaintext_property(self, v_r, v_s):
        from repro.db.multiset import ValueMultiset

        params = PublicParams.for_bits(64)
        expected = ValueMultiset.from_values(v_r).join_size(
            ValueMultiset.from_values(v_s)
        )
        assert self._run(v_r, v_s, params) == expected


class TestDeltaCollisions:
    """The collision check on a delta's own-set step: exact on the
    fresh hashes, and never at the committed party's expense."""

    PROTOCOLS = ["intersection", "equijoin-size"]
    V_R, V_S = ["a", "b", "c", "x"], ["b", "c", "d"]

    class _Pair:
        """Both parties of one protocol over a programmable oracle,
        their full query run."""

        def __init__(self, protocol, params):
            from repro.crypto.oracle import RandomOracle
            from repro.protocols.parties import CryptoContext
            from repro.protocols.spec import PROTOCOLS

            self.params, self.spec = params, PROTOCOLS[protocol]
            self.delta_spec = PROTOCOLS[protocol + "+delta"]
            group, _, cipher = params.build()
            self.oracle = RandomOracle(group, seed=3)
            crypto = CryptoContext(group=group, hash=self.oracle, cipher=cipher)
            self.r = self.spec.make_receiver(
                TestDeltaCollisions.V_R, params, random.Random(1), crypto=crypto
            )
            self.s = self.spec.make_sender(
                TestDeltaCollisions.V_S, params, random.Random(2), crypto=crypto
            )
            self.full = self.r.finish(self.s.round1(self.r.round1()))

        def collide(self, value, held):
            self.oracle.program(value, self.oracle.hash_value(held))

        def delta(self, inserts=(), deletes=()):
            """One delta query with R's churn (S stages none),
            committed on both sides; R's answer."""
            from repro.protocols.delta import DeltaExchange
            from repro.protocols.parties import ReceiverMachine, SenderMachine

            receiver = ReceiverMachine(
                self.delta_spec,
                DeltaExchange(
                    state=self.r,
                    inserts=tuple((v, None) for v in inserts),
                    deletes=tuple(deletes),
                ),
                self.params, random.Random(),
            )
            sender = SenderMachine(
                self.delta_spec, DeltaExchange(state=self.s), self.params,
                random.Random(),
            )
            self.delta_spec.exchange(receiver, sender)
            answer = receiver.finish()
            receiver.state.commit()
            sender.state.commit()
            return answer

        def held(self):
            """What R holds across queries, snapshotted."""
            return (
                self.r.cache_entries(),
                {
                    name: value.copy()
                    for name, value in vars(self.r).items()
                    if isinstance(value, dict)
                },
            )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize(
        "inserts, colliding",
        [
            (["new"], [("new", "a")]),  # with a held value
            (["new", "new2"], [("new2", "new")]),  # within the delta
        ],
    )
    def test_colliding_insert_fails_the_delta_alone(
        self, params, protocol, inserts, colliding
    ):
        from repro.protocols.base import HashCollisionError

        pair = self._Pair(protocol, params)
        for value, held in colliding:
            pair.collide(value, held)
        before = pair.held()
        with pytest.raises(HashCollisionError):
            pair.delta(inserts=inserts)
        assert pair.held() == before
        # The committed party goes on without the offender.
        assert pair.delta(inserts=["d"], deletes=["b"]) == (
            {"c", "d"} if protocol == "intersection" else 2
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_hash_of_a_value_leaving_in_the_same_delta_is_free(
        self, params, protocol
    ):
        pair = self._Pair(protocol, params)
        pair.collide("new", "x")
        assert pair.delta(inserts=["new"], deletes=["x"]) == pair.full
        assert pair.r.values == ["a", "b", "c", "new"]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_reinsert_after_delete_meets_no_stale_entry(self, params, protocol):
        pair = self._Pair(protocol, params)
        hashed = pair.r._hash_by_value["b"]
        gone = pair.delta(deletes=["b"])
        assert hashed not in pair.r._value_by_hash
        assert gone == ({"c"} if protocol == "intersection" else 1)
        assert pair.delta(inserts=["b"]) == pair.full
        assert pair.r._value_by_hash[hashed] == "b"

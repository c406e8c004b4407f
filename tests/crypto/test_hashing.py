"""Tests for domain hashing, collision bounds and the collision check."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import kernel, numtheory
from repro.crypto.groups import QRGroup
from repro.crypto.hashing import (
    SquareHash,
    TryIncrementHash,
    collision_probability,
    find_collisions,
    log10_collision_probability,
    value_to_bytes,
)

values = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.text(max_size=30),
    st.binary(max_size=30),
)


class TestValueToBytes:
    def test_type_tagging_disambiguates(self):
        assert value_to_bytes(1) != value_to_bytes("1")
        assert value_to_bytes("1") != value_to_bytes(b"1")
        assert value_to_bytes(True) != value_to_bytes(1)
        assert value_to_bytes(False) != value_to_bytes(0)

    def test_rejects_unsupported(self):
        with pytest.raises(TypeError):
            value_to_bytes(3.14)
        with pytest.raises(TypeError):
            value_to_bytes(["a"])

    @given(values, values)
    @settings(max_examples=200)
    def test_injective(self, a, b):
        if a != b or type(a) is not type(b):
            if value_to_bytes(a) == value_to_bytes(b):
                assert a == b and type(a) is type(b)


class TestTryIncrementHash:
    def test_output_in_group(self, group128):
        h = TryIncrementHash(group128)
        for v in ["alice", 42, b"\x00\x01", "", 0, -5]:
            assert h.hash_value(v) in group128

    def test_deterministic(self, group128):
        h1 = TryIncrementHash(group128)
        h2 = TryIncrementHash(group128)
        assert h1.hash_value("x") == h2.hash_value("x")

    def test_label_separates(self, group128):
        h1 = TryIncrementHash(group128, label=b"a")
        h2 = TryIncrementHash(group128, label=b"b")
        assert h1.hash_value("x") != h2.hash_value("x")

    def test_distinct_values_distinct_hashes(self, group128):
        h = TryIncrementHash(group128)
        vals = [f"v{i}" for i in range(200)] + list(range(200))
        hashes = h.hash_set(vals)
        assert len(set(hashes)) == len(vals)

    def test_hash_set_preserves_order(self, group128):
        h = TryIncrementHash(group128)
        vals = ["c", "a", "b"]
        assert h.hash_set(vals) == [h.hash_value(v) for v in vals]

    @given(values)
    @settings(max_examples=100)
    def test_membership_property(self, v):
        group = QRGroup.for_bits(64)
        assert TryIncrementHash(group).hash_value(v) in group

    def test_hash_set_tests_a_round_of_tries_in_one_kernel_call(
        self, group128, monkeypatch
    ):
        """``hash_set`` is ``hash_value`` per value, bit for bit, with
        one batched Legendre test per round of tries: as many calls as
        the value that tries longest needs, none one value at a time."""
        h, p = TryIncrementHash(group128), group128.p
        vals = [f"v{i}" for i in range(300)] + list(range(100)) + [b"x", ""]
        expected = [h.hash_value(v) for v in vals]

        def tries(v):
            counter = 0
            while True:
                candidate = h._digest_stream(v, counter) % p
                if candidate and numtheory.jacobi(candidate, p) == 1:
                    return counter + 1
                counter += 1

        calls, real = [], kernel.jacobi_many
        monkeypatch.setattr(
            kernel, "jacobi_many", lambda xs, n: (calls.append(len(xs)), real(xs, n))[1]
        )
        monkeypatch.setattr(
            kernel, "jacobi", lambda a, n: pytest.fail("a Legendre test of its own")
        )
        assert h.hash_set(vals) == expected
        assert len(calls) == max(map(tries, vals)) <= 40
        assert calls[0] == len(vals) and sum(calls) == sum(map(tries, vals))


class TestSquareHash:
    def test_output_in_group(self, group128):
        h = SquareHash(group128)
        for v in ["alice", 42, b"raw"]:
            assert h.hash_value(v) in group128

    def test_differs_from_try_increment(self, group128):
        vals = [f"v{i}" for i in range(10)]
        a = TryIncrementHash(group128).hash_set(vals)
        b = SquareHash(group128).hash_set(vals)
        assert a != b

    def test_deterministic(self, group128):
        h = SquareHash(group128)
        assert h.hash_value(7) == h.hash_value(7)


class TestCollisionProbability:
    def test_zero_for_tiny_n(self):
        assert collision_probability(0, 100) == 0.0
        assert collision_probability(1, 100) == 0.0

    def test_paper_number(self):
        """Section 3.2.2: n = 1e6, N ~ 2^1024 / 2 gives ~1e-295."""
        n, big_n = 10**6, 2**1023
        p = collision_probability(n, big_n)
        # 1 - exp(-x) ~ x for tiny x; the paper rounds the bound to
        # ~10^-295 (it plugs N = 10^307 and n(n-1)/2 = 10^12); the
        # exact exponent is -296.25.
        expected = n * (n - 1) / (2 * big_n)
        assert p == pytest.approx(expected, rel=1e-6)
        assert -297.0 < math.log10(expected) < -295.0

    def test_birthday_paradox_magnitude(self):
        # 23 people, 365 days: ~50.6% (the exponential bound gives ~50%)
        assert collision_probability(23, 365) == pytest.approx(0.5, abs=0.02)

    def test_monotone_in_n(self):
        big_n = 10**9
        probabilities = [collision_probability(n, big_n) for n in (10, 100, 1000)]
        assert probabilities == sorted(probabilities)

    def test_log10_bound_is_a_number_at_every_key_size(self):
        """The float bound is 0.0 at k = 2048 (its log has no value);
        the log-space bound keeps falling with k, and is the float
        formula's own logarithm wherever that one has a value."""
        n = 10**6
        by_bits = {
            bits: log10_collision_probability(n, 2**bits // 2)
            for bits in (512, 1024, 2048)
        }
        assert collision_probability(n, 2**2048 // 2) == 0.0
        assert by_bits[2048] < by_bits[1024] < by_bits[512]
        assert {k: round(v, 2) for k, v in by_bits.items()} == {
            512: -142.13, 1024: -296.25, 2048: -604.51,
        }
        for bits in (512, 1024):
            assert by_bits[bits] == pytest.approx(
                math.log10(collision_probability(n, 2**bits // 2)), abs=1e-9
            )
        # Above x = 1e-9 it is the float formula, birthday paradox included.
        assert log10_collision_probability(23, 365) == pytest.approx(
            math.log10(collision_probability(23, 365))
        )
        assert log10_collision_probability(1, 365) == -math.inf


class TestFindCollisions:
    def test_no_collisions(self):
        assert find_collisions([5, 3, 1]) == []

    def test_single_collision(self):
        assert find_collisions([3, 1, 3]) == [3]

    def test_multiple_and_triplicate(self):
        assert find_collisions([2, 2, 2, 7, 7, 9]) == [2, 7]

    def test_empty(self):
        assert find_collisions([]) == []

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=60))
    @settings(max_examples=200)
    def test_matches_counter(self, hashes):
        from collections import Counter

        expected = sorted(v for v, c in Counter(hashes).items() if c > 1)
        assert find_collisions(hashes) == expected

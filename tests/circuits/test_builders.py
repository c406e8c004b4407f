"""Tests for comparator and intersection circuit builders."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builders import (
    brute_force_intersection_circuit,
    encode_value_bits,
    equality_comparator,
    less_than_comparator,
    pack_inputs,
)
from repro.circuits.costmodel import (
    CircuitCostModel,
    equality_gates,
    less_than_gates,
)


class TestEncodeValueBits:
    def test_little_endian(self):
        assert encode_value_bits(6, 4) == [0, 1, 1, 0]

    def test_width_enforced(self):
        with pytest.raises(ValueError):
            encode_value_bits(16, 4)
        with pytest.raises(ValueError):
            encode_value_bits(-1, 4)

    def test_round_trip(self):
        for v in range(16):
            bits = encode_value_bits(v, 4)
            assert sum(b << i for i, b in enumerate(bits)) == v


class TestEqualityComparator:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive(self, width):
        circuit = equality_comparator(width)
        for a, b in itertools.product(range(1 << width), repeat=2):
            bits = encode_value_bits(a, width) + encode_value_bits(b, width)
            assert circuit.evaluate(bits) == [int(a == b)], (a, b)

    @pytest.mark.parametrize("width", [1, 4, 8, 16, 32])
    def test_gate_count_matches_paper(self, width):
        """Exactly Ge = 2w - 1 gates."""
        assert equality_comparator(width).gate_count == equality_gates(width)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    def test_width8_property(self, a, b):
        circuit = equality_comparator(8)
        bits = encode_value_bits(a, 8) + encode_value_bits(b, 8)
        assert circuit.evaluate(bits) == [int(a == b)]


class TestLessThanComparator:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive(self, width):
        circuit = less_than_comparator(width)
        for a, b in itertools.product(range(1 << width), repeat=2):
            bits = encode_value_bits(a, width) + encode_value_bits(b, width)
            assert circuit.evaluate(bits) == [int(a < b)], (a, b)

    @pytest.mark.parametrize("width", [1, 8, 32])
    def test_gate_count_within_paper_bound(self, width):
        """Our ANDNOT construction uses 4w - 3 <= Gl = 5w - 3 gates."""
        actual = less_than_comparator(width).gate_count
        assert actual == 4 * width - 3
        assert actual <= less_than_gates(width)

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=100)
    def test_width16_property(self, a, b):
        circuit = less_than_comparator(16)
        bits = encode_value_bits(a, 16) + encode_value_bits(b, 16)
        assert circuit.evaluate(bits) == [int(a < b)]


class TestBruteForceIntersection:
    def test_small_example(self):
        circuit = brute_force_intersection_circuit(4, n_s=3, n_r=2)
        s_vals, r_vals = [1, 5, 9], [5, 7]
        out = circuit.evaluate(pack_inputs(s_vals, r_vals, 4))
        assert out == [1, 0]

    def test_gate_count(self):
        """Built = the cost model's comparator-only lower bound plus the
        OR-merge gates it leaves out, at every shape."""
        for w, n_s, n_r in [(4, 3, 2), (8, 2, 2), (8, 8, 8), (8, 16, 16)]:
            circuit = brute_force_intersection_circuit(w, n_s, n_r)
            bound = CircuitCostModel(width=w).brute_force_gates(n_s, n_r)
            assert bound == n_s * n_r * equality_gates(w)
            assert circuit.gate_count == bound + n_r * (n_s - 1)

    def test_single_values(self):
        circuit = brute_force_intersection_circuit(3, 1, 1)
        assert circuit.evaluate(pack_inputs([5], [5], 3)) == [1]
        assert circuit.evaluate(pack_inputs([5], [4], 3)) == [0]

    @given(
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_matches_set_membership_property(self, s_vals, r_vals):
        circuit = brute_force_intersection_circuit(4, len(s_vals), len(r_vals))
        out = circuit.evaluate(pack_inputs(s_vals, r_vals, 4))
        assert out == [int(r in s_vals) for r in r_vals]

    def test_pack_inputs_layout(self):
        bits = pack_inputs([3], [1], 2)
        assert bits == [1, 1, 1, 0]  # 3 then 1, little-endian 2-bit

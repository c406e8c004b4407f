"""Tests for the executable proof simulators (Statements 2, 4, 6).

The decisive check: for every protocol, the *structural signature* of
the simulated view equals the real one - the simulator, which only sees
what the party is allowed to learn, produces a view of exactly the same
shape. A shape mismatch would mean the protocol leaks structure the
proof never considered.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.ext_cipher import BlockExtCipher
from repro.protocols.simulators import (
    simulate_r_view_equijoin,
    simulate_r_view_intersection,
    simulate_r_view_intersection_size,
    simulate_s_view_intersection,
)


@pytest.fixture()
def sim_rng():
    return random.Random(777)


@pytest.fixture()
def ext128(group128):
    return BlockExtCipher(group128)


class TestSimulatorS:
    def test_signature_matches_real(self, run128, group128, sim_rng):
        result = run128("intersection", ["a", "b", "c"], ["b", "x"])
        simulated = simulate_s_view_intersection(group128, 3, sim_rng)
        assert simulated.signature() == result.transcript.s_view.signature()

    def test_elements_in_group_and_sorted(self, group128, sim_rng):
        view = simulate_s_view_intersection(group128, 10, sim_rng)
        y_r = next(view.payloads("3:Y_R"))
        assert y_r == sorted(y_r)
        assert all(x in group128 for x in y_r)

    def test_serves_size_protocol_too(self, run128, group128, sim_rng):
        result = run128("intersection-size", ["a", "b"], ["c"])
        simulated = simulate_s_view_intersection(
            group128, 2, sim_rng, protocol="intersection_size"
        )
        assert simulated.signature() == result.transcript.s_view.signature()


class TestSimulatorRIntersection:
    def test_signature_matches_real(
        self, run128, group128, hash128, cipher128, sim_rng
    ):
        v_r, v_s = ["a", "b", "c"], ["b", "c", "d", "e"]
        result = run128("intersection", v_r, v_s)
        e_r = cipher128.sample_key(sim_rng)
        simulated = simulate_r_view_intersection(
            group=group128,
            hash_fn=hash128,
            e_r=e_r,
            v_r=v_r,
            intersection=result.answer,
            size_v_s=result.size_v_s,
            rng=sim_rng,
        )
        assert simulated.signature() == result.transcript.r_view.signature()

    def test_empty_intersection_shape(
        self, run128, group128, hash128, cipher128, sim_rng
    ):
        v_r, v_s = ["a"], ["x", "y"]
        result = run128("intersection", v_r, v_s)
        simulated = simulate_r_view_intersection(
            group128, hash128, cipher128.sample_key(sim_rng),
            v_r, set(), 2, sim_rng,
        )
        assert simulated.signature() == result.transcript.r_view.signature()

    def test_simulator_uses_only_allowed_inputs(
        self, run128, group128, hash128, cipher128, sim_rng
    ):
        """The filler elements are random: values in V_S - V_R never
        appear hashed in the simulated view."""
        v_r, v_s = ["a"], ["a", "secret1", "secret2"]
        result = run128("intersection", v_r, v_s)
        simulated = simulate_r_view_intersection(
            group128, hash128, cipher128.sample_key(sim_rng),
            v_r, result.answer, 3, sim_rng,
        )
        integers = set(simulated.flat_integers())
        assert hash128.hash_value("secret1") not in integers
        assert hash128.hash_value("secret2") not in integers


class TestSimulatorRJoin:
    def test_signature_matches_real(
        self, run128, group128, hash128, cipher128, ext128, sim_rng
    ):
        # Fixed-size payloads: the paper's C_ext is a fixed ciphertext
        # domain, so simulator fillers match real ciphertext shapes.
        ext = {v: v.encode() * 2 for v in ("aa", "bb", "cc", "dd")}
        v_r = ["aa", "bb", "zz"]
        result = run128("equijoin", v_r, ext)
        simulated = simulate_r_view_equijoin(
            group=group128,
            hash_fn=hash128,
            e_r=cipher128.sample_key(sim_rng),
            v_r=v_r,
            matches=result.answer,
            size_v_s=result.size_v_s,
            rng=sim_rng,
            ext_cipher=ext128,
        )
        assert simulated.signature() == result.transcript.r_view.signature()

    def test_no_ext_leak_in_simulation(
        self, run128, group128, hash128, cipher128, ext128, sim_rng
    ):
        ext = {"aa": b"known!", "qq": b"sealed"}
        result = run128("equijoin", ["aa"], ext)
        simulated = simulate_r_view_equijoin(
            group128, hash128, cipher128.sample_key(sim_rng),
            ["aa"], result.answer, 2, sim_rng, ext128,
        )
        blob = repr([m.payload for m in simulated.received]).encode()
        assert b"sealed" not in blob


class TestSimulatorRIntersectionSize:
    def test_signature_matches_real(self, run128, group128, cipher128, sim_rng):
        v_r, v_s = ["a", "b", "c", "d"], ["c", "d", "e"]
        result = run128("intersection-size", v_r, v_s)
        simulated = simulate_r_view_intersection_size(
            group=group128,
            size_v_s=result.size_v_s,
            size_v_r=result.size_v_r,
            intersection_size=result.answer,
            e_r=cipher128.sample_key(sim_rng),
            rng=sim_rng,
        )
        assert simulated.signature() == result.transcript.r_view.signature()

    def test_simulated_intersection_size_is_consistent(
        self, group128, cipher128, sim_rng
    ):
        """Simulated Z_R and the encryption of simulated Y_S under e_R
        overlap in exactly `intersection_size` elements - the simulator
        reproduces the answer R computes, not just the shape."""
        from repro.crypto.commutative import PowerCipher

        e_r = cipher128.sample_key(sim_rng)
        view = simulate_r_view_intersection_size(
            group128, size_v_s=6, size_v_r=5, intersection_size=3,
            e_r=e_r, rng=sim_rng,
        )
        y_s = next(view.payloads("4a:Y_S"))
        z_r = next(view.payloads("4b:Z_R"))
        cipher = PowerCipher(group128)
        z_s = {cipher.encrypt(e_r, y) for y in y_s}
        assert len(z_s & set(z_r)) == 3

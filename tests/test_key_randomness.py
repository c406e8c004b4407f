"""Key material comes from the OS CSPRNG unless a seed is asked for."""

from __future__ import annotations

import hashlib
import random

import pytest

import repro
from repro.analysis.instrumentation import counting_suite
from repro.api import _party_rngs
from repro.crypto import paillier, primes
from repro.crypto.numtheory import _key_rng
from repro.net.journal import open_session
from repro.net.server import ProtocolOffer, ProtocolServer
from repro.net.shard import ShardedProtocolServer
from repro.protocols.base import ProtocolSuite
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS

V_R, V_S = ["a", "b", "c"], ["b", "c", "d"]


def _is_csprng(rng) -> bool:
    return isinstance(rng, random.SystemRandom)


def test_the_helper_is_the_rule():
    given = random.Random(1)
    assert _key_rng(given, seed=2) is given
    assert _key_rng(seed=2).random() == random.Random(2).random()
    assert not _is_csprng(_key_rng(seed=0))  # 0 is a seed, not "none"
    assert _is_csprng(_key_rng())


def test_unseeded_entry_points_hold_a_system_random(monkeypatch):
    assert _is_csprng(repro.open_catalog(V_R, bits=64).rng)
    assert all(map(_is_csprng, _party_rngs(None, None)))
    assert all(map(_is_csprng, _party_rngs(None, random.SystemRandom())))
    for suite in (ProtocolSuite.default(bits=64, seed=None),
                  counting_suite(bits=64, seed=None).suite):
        assert _is_csprng(suite.rng_r) and _is_csprng(suite.rng_s)
        assert suite.rng_r is not suite.rng_s
    core, _ = open_session(
        "sender", "intersection", lambda: None,
        params=PublicParams.for_bits(64),
    )
    assert _is_csprng(core.rng)

    # The crypto fallbacks and the one-shot verbs: what they hand on.
    seen = []
    real = random.SystemRandom.getrandbits
    monkeypatch.setattr(
        random.SystemRandom, "getrandbits",
        lambda self, k: (seen.append(k), real(self, k))[1],
    )
    paillier.generate_keypair(bits=64)
    primes.generate_safe_prime(16)
    assert seen
    del seen[:]
    assert repro.run("intersection", V_R, V_S, bits=64).answer == {"b", "c"}
    assert seen


@pytest.mark.parametrize("seed", [0, 7, "label"])
def test_a_seed_still_reproduces_the_same_keys(seed):
    first = [rng.getrandbits(256) for rng in _party_rngs(seed, None)]
    again = [rng.getrandbits(256) for rng in _party_rngs(seed, None)]
    assert first == again and first[0] != first[1]
    assert not any(map(_is_csprng, _party_rngs(seed, None)))

    spec = PROTOCOLS["intersection"]
    params = PublicParams.for_bits(64)

    def wire():
        catalog = repro.open_catalog(V_S, params=params, seed=seed)
        return spec.make_sender(catalog.data, params, catalog.rng).round1(
            spec.make_receiver(V_R, params, random.Random(1)).round1()
        )

    assert wire() == wire()


def test_a_server_built_from_data_keys_s_from_a_secret_seed():
    """S's keys behind every hosted session used to come from the
    protocol's name: anyone could recompute ``e_S``. Two servers holding
    the same data now answer one client's ``m1`` with different ``Y_S``,
    neither of them the public seed's - and so do two sessions of one
    server."""
    spec = PROTOCOLS["intersection"]
    params = PublicParams.for_bits(64)
    m1 = spec.make_receiver(V_R, params, random.Random(1)).round1()
    tables = {"intersection": (V_S, params)}

    def answer(make_sender, session_id):
        return make_sender(session_id).round1(m1)

    offers = [
        ProtocolServer(tables).offers["intersection"],
        ShardedProtocolServer(tables).offers[0],
        ProtocolOffer.from_data("intersection", V_S, params),
    ]
    public = spec.make_sender(V_S, params, random.Random("intersection")).round1(m1)
    answers = [answer(offer.make_sender, sid) for offer in offers for sid in (1, 2)]
    for i, one in enumerate(answers):
        assert one != public
        assert all(one != other for other in answers[i + 1:])
    # One offer keys one session id alike every time: journal replay holds.
    assert [answer(offer.make_sender, sid) for offer in offers for sid in (1, 2)] == answers


@pytest.mark.parametrize("seed", [0, 7])
def test_an_explicit_offer_seed_keys_s_as_it_says(seed):
    """An explicit seed keys session ``sid``'s S from SHA-256 over the
    label, the seed and ``sid`` - byte-identical across offers."""
    spec = PROTOCOLS["intersection"]
    params = PublicParams.for_bits(64)
    m1 = spec.make_receiver(V_R, params, random.Random(1)).round1()
    offer = ProtocolOffer.from_data("intersection", V_S, params, seed=seed)
    again = ProtocolOffer.from_data("intersection", V_S, params, seed=seed)
    for sid in (0, 5):
        label = repr(("repro.net.server.session-key", seed, sid)).encode()
        seeded = spec.make_sender(
            V_S, params, random.Random(hashlib.sha256(label).digest())
        )
        assert offer.make_sender(sid).round1(m1) == seeded.round1(m1)
        assert again.make_sender(sid).round1(m1) == seeded.round1(m1)
    assert offer.make_sender(0).round1(m1) != offer.make_sender(5).round1(m1)


def test_a_retry_policy_jitters_from_the_csprng_and_leaves_r_s_keys(monkeypatch):
    """``connect(retry=)`` used to seed its redial jitter from R's rng:
    identically seeded clients redialed in lockstep, and the policy
    shifted R's key draws for a given seed."""
    from repro.net import tcp
    from repro.net.session import ClientRetryPolicy, SessionStats

    draws, jitter = [], []
    monkeypatch.setattr(
        tcp, "connect_resumable_receiver",
        lambda protocol, data, rng, *a, **k: (
            draws.append(rng.getrandbits(64)), SessionStats(protocol=protocol)
        ),
    )
    redial = ClientRetryPolicy.redial

    def watched(self, attempt, rng, **kwargs):
        jitter.append(rng)
        return redial(self, attempt, rng, **kwargs)

    monkeypatch.setattr(ClientRetryPolicy, "redial", watched)
    repro.connect("intersection", V_R, port=1, seed=7)
    repro.connect("intersection", V_R, port=1, seed=7, retry="attempts=3")
    assert draws[0] == draws[1]
    (rng,) = jitter
    assert _is_csprng(rng)

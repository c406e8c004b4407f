"""Engine choice must never change the wire: serial and pooled runs of
every protocol produce byte-identical transcripts and equal answers -
also when the pool is the one ``repro.run`` picks by default."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import repro
from repro import api
from repro.analysis.instrumentation import MetricsRecorder
from repro.crypto.engine import (
    ProcessPoolEngine,
    SerialEngine,
    available_cpus,
    shared_engine,
)
from repro.net.serialization import encode
from repro.protocols.parties import (
    EquijoinReceiver,
    EquijoinSender,
    EquijoinSizeReceiver,
    EquijoinSizeSender,
    IntersectionReceiver,
    IntersectionSender,
    IntersectionSizeReceiver,
    IntersectionSizeSender,
    PublicParams,
)
from repro.protocols.spec import PROTOCOLS as SPECS, ProtocolSpec

from . import make_golden_fixture as golden

FIXTURE = json.loads(
    Path(__file__).with_name("golden_transcripts.json").read_text()
)
BITS = 128
N = 40  # batches the ``always_pays`` fixture sends through the pool


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _values(n=N):
    half = n // 2
    v_r = [f"r{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def _run(receiver_cls, sender_cls, params, engine, sender_ext=False):
    """One full run with fixed seeds; returns (m1, m2, answer) bytes-able."""
    v_r, v_s = _values()
    rng_r, rng_s = random.Random("R"), random.Random("S")
    receiver = receiver_cls(v_r, params, rng_r, engine=engine)
    if sender_ext:
        ext = {v: f"payload:{v}".encode() for v in v_s}
        sender = sender_cls(ext, params, rng_s, engine=engine)
    else:
        sender = sender_cls(v_s, params, rng_s, engine=engine)
    m1 = receiver.round1()
    m2 = sender.round1(m1)
    answer = receiver.finish(m2)
    return m1.to_wire(), m2.to_wire(), answer


PROTOCOLS = [
    ("intersection", IntersectionReceiver, IntersectionSender, False),
    ("intersection-size", IntersectionSizeReceiver, IntersectionSizeSender, False),
    ("equijoin", EquijoinReceiver, EquijoinSender, True),
    ("equijoin-size", EquijoinSizeReceiver, EquijoinSizeSender, False),
]


@pytest.mark.parametrize(
    "name,receiver_cls,sender_cls,sender_ext",
    PROTOCOLS,
    ids=[p[0] for p in PROTOCOLS],
)
def test_transcripts_identical_across_engines(
    params, name, receiver_cls, sender_cls, sender_ext, always_pays
):
    serial = _run(receiver_cls, sender_cls, params, SerialEngine(),
                  sender_ext=sender_ext)
    with ProcessPoolEngine(processors=2) as engine:
        pooled = _run(receiver_cls, sender_cls, params, engine,
                      sender_ext=sender_ext)
        assert engine.parallel_batches > 0, "pool never engaged"
    s_m1, s_m2, s_answer = serial
    p_m1, p_m2, p_answer = pooled
    assert encode(s_m1) == encode(p_m1)
    assert encode(s_m2) == encode(p_m2)
    assert s_answer == p_answer


def test_answers_correct_under_pool(params, always_pays):
    with ProcessPoolEngine(processors=2) as engine:
        _, _, answer = _run(
            IntersectionReceiver, IntersectionSender, params, engine
        )
        assert engine.parallel_batches > 0
    assert answer == {f"c{i}" for i in range(N // 2)}


# ----------------------------------------------------------------------
# The default engine of ``repro.run`` against the golden fixture
# ----------------------------------------------------------------------
@pytest.fixture
def through_run(monkeypatch):
    """``repro.run`` on the golden fixture's party rngs (handed over as
    ``rng=(rng_r, rng_s)``), its machines and wires captured: one
    ``(receiver, sender, wires)`` per run."""
    monkeypatch.setattr(api, "_party_rngs", lambda seed, rng: rng)
    seen = []
    exchange = ProtocolSpec.exchange

    def recording(self, receiver, sender, chunk_size=None):
        wires = exchange(self, receiver, sender, chunk_size)
        seen.append((receiver, sender, wires))
        return wires

    monkeypatch.setattr(ProtocolSpec, "exchange", recording)
    return seen


def _golden_rngs():
    return random.Random("R"), random.Random("S")


def _wire_digests(wires):
    return {
        f"m{i}": golden.digest(wire) for i, (_, wire) in enumerate(wires, start=1)
    }


def _pooled_batches():
    return shared_engine(available_cpus()).parallel_batches


#: Section 6's exact modexp counts at the fixture's n_R = n_S = 40;
#: equijoin-size re-encrypts the 45 + 43 occurrences it is sent.
PAPER_MODEXPS = {
    "intersection": 2 * (N + N),
    "intersection-size": 2 * (N + N),
    "equijoin": 2 * N + 5 * N,
    "equijoin-size": (N + N) + (45 + 43),
    "equijoin-sum": 2 * (N + N),
}


@pytest.mark.parametrize("name", sorted(FIXTURE["protocols"]))
def test_default_engine_matches_golden(name, two_cpus, always_pays, through_run):
    params = PublicParams.for_bits(FIXTURE["bits"])
    r_data, s_data = golden._chunk_inputs(name)
    runs = {}
    for label, extra in (("default", {}), ("serial", {"engine": SerialEngine()})):
        recorder = MetricsRecorder()
        result = repro.run(
            name, r_data, s_data, params=params, rng=_golden_rngs(),
            recorder=recorder, **extra,
        )
        receiver, _, wires = through_run[-1]
        runs[label] = (
            _wire_digests(wires),
            golden.digest(golden.delta_answer(SPECS[name], result.answer, receiver.state)),
            recorder.report()["total_modexp"],
        )
        if label == "default":
            assert _pooled_batches() > 0, "the default never reached the pool"
    assert runs["default"] == runs["serial"]
    wires, answer, modexps = runs["default"]
    assert wires == FIXTURE["protocols"][name]["wires"]
    assert answer == FIXTURE["protocols"][name]["answer"]
    assert modexps == PAPER_MODEXPS[name]


@pytest.mark.parametrize("dname", sorted(FIXTURE["deltas"]))
def test_default_engine_matches_golden_deltas(
    dname, two_cpus, always_pays, through_run
):
    dspec = SPECS[dname]
    params = PublicParams.for_bits(FIXTURE["bits"])
    rngs = _golden_rngs()  # the deltas go on drawing where the full run stopped
    repro.run(dspec.delta_of, *golden._chunk_inputs(dspec.delta_of),
              params=params, rng=rngs)
    receiver, sender, _ = through_run[-1]
    exchanges = golden.delta_exchanges(dspec.delta_of, receiver.state, sender.state)
    for label, (r_exchange, s_exchange) in exchanges.items():
        before = _pooled_batches()
        result = repro.run(dname, r_exchange, s_exchange, params=params, rng=rngs)
        staged_r, staged_s, wires = through_run[-1]
        record = FIXTURE["deltas"][dname][label]
        assert _wire_digests(wires) == record["wires"], (dname, label)
        assert golden.digest(
            golden.delta_answer(dspec, result.answer, staged_r.state)
        ) == record["answer"]
        assert (result.size_v_r, result.size_v_s) == (
            record["size_v_r"], record["size_v_s"]
        )
        if label == "churn":
            assert _pooled_batches() > before, "the churn never reached the pool"
        staged_r.state.commit()
        staged_s.state.commit()

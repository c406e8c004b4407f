"""Golden-transcript pinning for the spec-driven protocol stack.

``golden_transcripts.json`` was captured from the pre-refactor
per-protocol drivers (see ``make_golden_fixture.py``). These tests
assert that the declarative round schedules, interpreted by the
generic machines, reproduce those bytes exactly - for every registered
protocol, in memory and as sessions (one-connection and resumable
configs), with the serial and the thread crypto engines.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
from pathlib import Path

import pytest

from repro.crypto import engine as engine_module, kernel
from repro.crypto.engine import ThreadPoolEngine
from repro.net.serialization import (
    chunk_end_frame,
    chunk_frame,
    encode,
    fold_chunk_frames,
    is_chunk_end,
    is_chunk_frame,
)
from repro.net.journal import open_session
from repro.api import _session_config as _facade_session_config
from repro.net.session import RetryPolicy, SessionConfig
from repro.protocols.parties import (
    PublicParams,
    ReceiverMachine,
    SenderMachine,
)
from repro.protocols.spec import PROTOCOLS

from ..net.shells import endpoint, run_core
from . import make_golden_fixture as golden

FIXTURE = json.loads(
    Path(__file__).with_name("golden_transcripts.json").read_text()
)
BITS = FIXTURE["bits"]
N = FIXTURE["n"]
CHUNK_SIZE = FIXTURE["chunk_size"]

PROTOCOL_NAMES = sorted(FIXTURE["protocols"])


def _digest(payload) -> str:
    return hashlib.sha256(encode(payload)).hexdigest()


def _values():
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def _inputs(name):
    """(receiver data, sender data) exactly as the fixture was captured."""
    v_r, v_s = _values()
    if name == "equijoin":
        return v_r, {v: f"payload:{v}".encode() for v in v_s}
    if name == "equijoin-size":
        return v_r + v_r[:5], v_s + v_s[:3]
    if name == "equijoin-sum":
        return v_r, {v: (i * 7) % 23 for i, v in enumerate(v_s)}
    return v_r, v_s


def _canonical_answer(name, answer, match_count=None):
    """Mirror of the fixture generator's ``canonical_answer``."""
    if name == "intersection":
        return sorted(answer, key=repr)
    if name == "equijoin":
        return [(v, answer[v]) for v in sorted(answer, key=repr)]
    if name == "equijoin-sum":
        return [answer, match_count]
    return answer  # the size protocols answer with one number


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


@pytest.fixture(scope="module")
def pooled_engines():
    """One thread engine per party, so each counts its own batches; the
    crossover is lowered so the fixture's 128-bit batches reach the
    threads - wherever GMP computes, the builtin ``pow`` keeping them
    serial. The set collects whether GMP computed in each test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "THREAD_HOP", 0)
        r_engine, s_engine = ThreadPoolEngine(2), ThreadPoolEngine(2)
        gmp: set = set()
        yield r_engine, s_engine, gmp
        threaded = bool(r_engine.parallel_batches and s_engine.parallel_batches)
        assert gmp == {threaded}


@pytest.fixture(params=["serial", "pooled"])
def engines(request, pooled_engines):
    """(receiver engine, sender engine); ``None`` means serial."""
    if request.param == "serial":
        return None, None
    r_engine, s_engine, gmp = pooled_engines
    gmp.add(kernel.describe().startswith("gmp"))
    return r_engine, s_engine


def _session_config():
    return SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=1,
        fin_grace_s=0.05,
    )


class _SessionRecordingTransport:
    """Wraps a framed endpoint; records the payload bytes of ``msg``
    session frames, by seq."""

    def __init__(self, transport, frames):
        self._transport = transport
        self.frames = frames

    async def send(self, frame):
        if isinstance(frame, tuple) and frame and frame[0] == "msg":
            self.frames.setdefault(("sent", frame[1]), frame[2])
        await self._transport.send(frame)

    async def recv_within(self, timeout):
        frame = await self._transport.recv_within(timeout)
        if isinstance(frame, tuple) and frame and frame[0] == "msg":
            self.frames.setdefault(("received", frame[1]), frame[2])
        return frame

    def __getattr__(self, name):
        return getattr(self._transport, name)


def _assert_wires(name, digests):
    expected = FIXTURE["protocols"][name]["wires"]
    assert digests == expected, f"wire transcript diverges for {name}"


def _assert_answer(name, answer, match_count=None):
    got = _digest(_canonical_answer(name, answer, match_count))
    assert got == FIXTURE["protocols"][name]["answer"]


# ----------------------------------------------------------------------
# The result drivers: recorded views, part by part, and diagnostics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_result_drivers_match_golden(name):
    """``run_<name>`` records what it always recorded: every ``View``
    part, assembled round, answer and learned size - and equijoin-size's
    leakage diagnostics - equal the committed record."""
    record = dict(FIXTURE["protocols"][name])
    del record["chunked_wires"]
    assert golden.capture(name) == record


# ----------------------------------------------------------------------
# In-memory: machines driven directly, wires captured per round
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_in_memory_matches_golden(name, params, engines):
    r_engine, s_engine = engines
    spec = PROTOCOLS[name]
    r_data, s_data = _inputs(name)
    receiver = ReceiverMachine(
        spec, r_data, params, random.Random("R"), engine=r_engine
    )
    sender = SenderMachine(
        spec, s_data, params, random.Random("S"), engine=s_engine
    )
    wires = spec.exchange(receiver, sender)
    answer = receiver.finish()

    _assert_wires(
        name,
        {f"m{i}": _digest(wire) for i, (_, wire) in enumerate(wires, start=1)},
    )
    _assert_answer(
        name, answer, getattr(receiver.state, "match_count", None)
    )
    record = FIXTURE["protocols"][name]
    assert sender.state.size_v_r == record["size_v_r"]
    assert receiver.state.size_v_s == record["size_v_s"]


# ----------------------------------------------------------------------
# Sessions: two cores under the asyncio shell, msg frames captured on
# R's side. Two inputs of one run: a resumable config over a socketpair,
# and the facade's ``session=None`` config (one connection, frames let
# go of once acknowledged) over loopback TCP. The cores are built here
# rather than by ``repro.serve`` / ``connect``, which draw the session
# rng's seed from the party rng first and so key the parties otherwise
# than the fixture's in-memory capture.
# ----------------------------------------------------------------------
def _socketpair():
    return socket.socketpair()


def _loopback():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    try:
        dialed = socket.create_connection(
            ("127.0.0.1", listener.getsockname()[1]), timeout=10.0
        )
        accepted, _addr = listener.accept()
    finally:
        listener.close()
    return accepted, dialed


SESSION_RUNS = {
    "resumable": (_session_config, _socketpair),
    "tcp": (lambda: _facade_session_config(None, 10.0), _loopback),
}


def _run_sessions(name, params, make_sender, make_receiver, run, chunk_size=None):
    """One session of ``name`` between the parties the two factories
    build, under ``run = (make_config, connect)``; returns R's answer,
    R's ``msg`` payloads by (direction, seq), both cores and S's final
    party state."""
    make_config, connect = run
    sender_session, _ = open_session(
        "sender", name, make_sender, params=params, config=make_config(),
        rng=random.Random(1), chunk_size=chunk_size,
    )
    receiver_session, _ = open_session(
        "receiver", name,
        lambda wire: make_receiver(PublicParams.from_wire(tuple(wire))),
        config=make_config(), rng=random.Random(2), chunk_size=chunk_size,
    )
    s_link, r_link = connect()
    server_box: dict = {}
    connections = iter([s_link])

    def serve_thread():
        server_box["state"] = run_core(
            sender_session.steps(), connections.__next__
        )

    async def recorded():
        return _SessionRecordingTransport(await endpoint(r_link), frames)

    thread = threading.Thread(target=serve_thread)
    thread.start()
    frames: dict = {}
    answer = run_core(receiver_session.steps(), recorded)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert sender_session.stats.reconnects == 0
    assert receiver_session.stats.reconnects == 0
    return answer, frames, sender_session, receiver_session, server_box["state"]


def _run_base_sessions(name, params, engines, run, chunk_size=None):
    """``_run_sessions`` on the fixture's inputs and party seeds."""
    r_engine, s_engine = engines
    spec = PROTOCOLS[name]
    r_data, s_data = _inputs(name)
    return _run_sessions(
        name, params,
        lambda: spec.make_sender(
            s_data, params, random.Random("S"), engine=s_engine
        ),
        lambda wire_params: spec.make_receiver(
            r_data, wire_params, random.Random("R"), engine=r_engine
        ),
        SESSION_RUNS[run], chunk_size,
    )


def _msg_digests(spec, frames):
    """Per-round digests of a whole-frame session: one ``msg`` a round."""
    digests = {}
    sent = received = 0
    for i, rnd in enumerate(spec.rounds, start=1):
        if rnd.source == "R":
            wire_bytes = frames[("sent", sent)]
            sent += 1
        else:
            wire_bytes = frames[("received", received)]
            received += 1
        digests[f"m{i}"] = hashlib.sha256(wire_bytes).hexdigest()
    return digests


def _assert_whole_session(name, params, engines, run):
    spec = PROTOCOLS[name]
    answer, frames, sender_session, receiver_session, s_state = (
        _run_base_sessions(name, params, engines, run)
    )
    _assert_wires(name, _msg_digests(spec, frames))
    match_count = getattr(
        receiver_session._machine.state, "match_count", None
    )
    _assert_answer(name, answer, match_count)
    record = FIXTURE["protocols"][name]
    assert s_state.size_v_r == record["size_v_r"]
    assert sender_session.stats.rounds_computed == sum(
        1 for rnd in spec.rounds if rnd.source == "S"
    )
    assert receiver_session.stats.rounds_computed == sum(
        1 for rnd in spec.rounds if rnd.source == "R"
    )


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_tcp_matches_golden(name, params, engines):
    _assert_whole_session(name, params, engines, "tcp")


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_resumable_matches_golden(name, params, engines):
    _assert_whole_session(name, params, engines, "resumable")


# ----------------------------------------------------------------------
# Chunked execution: the streamed wire format must carry the identical
# logical transcript, and its chunk-frame stream is pinned too.
# ----------------------------------------------------------------------
def _stream_digest(frames) -> str:
    stream = hashlib.sha256()
    for frame in frames:
        stream.update(encode(frame))
    return stream.hexdigest()


def _assert_chunked_wires(name, digests):
    expected = FIXTURE["protocols"][name]["chunked_wires"]
    assert digests == expected, f"chunk-frame stream diverges for {name}"


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_in_memory_chunked_matches_golden(name, params, engines):
    """Machines driven chunk-by-chunk reproduce both columns: the
    reassembled logical wires equal the legacy whole-round digests,
    and the chunk-frame stream equals the chunked column."""
    r_engine, s_engine = engines
    spec = PROTOCOLS[name]
    r_data, s_data = _inputs(name)
    receiver = ReceiverMachine(
        spec, r_data, params, random.Random("R"), engine=r_engine
    )
    sender = SenderMachine(
        spec, s_data, params, random.Random("S"), engine=s_engine
    )
    logical = {}
    streamed = {}
    wires = spec.exchange(receiver, sender, CHUNK_SIZE)
    for i, (rnd, (_, wire)) in enumerate(zip(spec.rounds, wires), start=1):
        frames = [wire]
        if rnd.chunkable:  # came back as the round's chunk payloads
            frames = [chunk_frame(j, payload) for j, payload in enumerate(wire)]
            frames.append(chunk_end_frame(len(wire)))
        consumer = sender if rnd.source == "R" else receiver
        logical[f"m{i}"] = _digest(consumer.inbox[rnd.name].to_wire())
        streamed[f"m{i}"] = _stream_digest(frames)
    answer = receiver.finish()

    _assert_wires(name, logical)
    _assert_chunked_wires(name, streamed)
    _assert_answer(
        name, answer, getattr(receiver.state, "match_count", None)
    )


def _group_round_frames(frames):
    """Split a flat frame log into per-round frame groups."""
    rounds = []
    current: list = []
    for frame in frames:
        if is_chunk_frame(frame):
            current.append(frame)
        elif is_chunk_end(frame):
            current.append(frame)
            rounds.append(current)
            current = []
        else:
            assert not current, "whole-round frame interleaved with chunks"
            rounds.append([frame])
    assert not current, "chunk run never terminated"
    return rounds


def _round_digests_from_frames(spec, frame_groups):
    """(logical, streamed) per-round digests from grouped frames."""
    logical = {}
    streamed = {}
    assert len(frame_groups) == len(spec.rounds)
    for i, (rnd, frames) in enumerate(
        zip(spec.rounds, frame_groups), start=1
    ):
        status, payload, used = fold_chunk_frames(frames)
        assert used == len(frames)
        if status == "single":
            wire = payload
        else:
            wire = rnd.message.from_wire_chunks(payload).to_wire()
        logical[f"m{i}"] = _digest(wire)
        streamed[f"m{i}"] = _stream_digest(frames)
    return logical, streamed


def _assert_chunked_session(name, params, engines, run):
    """Chunked sessions: every ``msg`` frame is one chunk (or one
    whole non-chunkable round), and both pinned columns reproduce."""
    from repro.net.serialization import decode

    spec = PROTOCOLS[name]
    answer, frames, sender_session, receiver_session, s_state = (
        _run_base_sessions(name, params, engines, run, chunk_size=CHUNK_SIZE)
    )
    sent = sorted(
        (seq, data) for (direction, seq), data in frames.items()
        if direction == "sent"
    )
    received = sorted(
        (seq, data) for (direction, seq), data in frames.items()
        if direction == "received"
    )
    # Interleave the two directions back into spec-round order by
    # decoding each direction's frame stream and grouping on chunk-end.
    sent_groups = _group_round_frames([decode(d) for _seq, d in sent])
    recv_groups = _group_round_frames([decode(d) for _seq, d in received])
    sent_iter, recv_iter = iter(sent_groups), iter(recv_groups)
    groups = [
        next(sent_iter) if rnd.source == "R" else next(recv_iter)
        for rnd in spec.rounds
    ]
    logical, streamed = _round_digests_from_frames(spec, groups)
    _assert_wires(name, logical)
    _assert_chunked_wires(name, streamed)
    match_count = getattr(
        receiver_session._machine.state, "match_count", None
    )
    _assert_answer(name, answer, match_count)
    record = FIXTURE["protocols"][name]
    assert s_state.size_v_r == record["size_v_r"]
    chunkable_sent = sum(
        1 for rnd in spec.rounds if rnd.source == "R" and rnd.chunkable
    )
    if chunkable_sent:
        assert receiver_session.stats.chunks_sent > 0
    assert sender_session.stats.chunks_sent > 0


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_tcp_chunked_matches_golden(name, params, engines):
    _assert_chunked_session(name, params, engines, "tcp")


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_resumable_chunked_matches_golden(name, params, engines):
    _assert_chunked_session(name, params, engines, "resumable")


# ----------------------------------------------------------------------
# Delta schedules: the "<name>+delta" wire is pinned like the base one -
# a fixed churn and then an empty delta over a committed full run,
# replayed in memory and over the resumable TCP path.
# ----------------------------------------------------------------------
DELTA_NAMES = sorted(FIXTURE["deltas"])


def _assert_delta_record(dname, label, record):
    assert record == FIXTURE["deltas"][dname][label], (
        f"{dname} {label} exchange diverges from the golden record"
    )


@pytest.mark.parametrize("dname", DELTA_NAMES)
def test_delta_in_memory_matches_golden(dname, params, engines):
    dspec = PROTOCOLS[dname]
    rng_r, rng_s = random.Random("R"), random.Random("S")
    r_state, s_state = golden.full_run_states(
        dspec.delta_of, params, rng_r, rng_s, engines
    )
    for label, (r_exchange, s_exchange) in golden.delta_exchanges(
        dspec.delta_of, r_state, s_state
    ).items():
        receiver = ReceiverMachine(dspec, r_exchange, params, rng_r)
        sender = SenderMachine(dspec, s_exchange, params, rng_s)
        _assert_delta_record(dname, label, golden.drive(dspec, receiver, sender))
        receiver.state.commit()
        sender.state.commit()


@pytest.mark.parametrize("dname", DELTA_NAMES)
def test_delta_resumable_tcp_matches_golden(dname, params):
    """Each delta exchange as one resumable session over loopback TCP:
    the ``msg`` frames carry the pinned round bytes and R gets the
    pinned answer."""
    dspec = PROTOCOLS[dname]
    rng_r, rng_s = random.Random("R"), random.Random("S")
    r_state, s_state = golden.full_run_states(
        dspec.delta_of, params, rng_r, rng_s
    )
    for label, (r_exchange, s_exchange) in golden.delta_exchanges(
        dspec.delta_of, r_state, s_state
    ).items():
        built: dict = {}

        def make_sender():
            built["s"] = dspec.make_sender(s_exchange, params, rng_s)
            return built["s"]

        def make_receiver(wire_params):
            built["r"] = dspec.make_receiver(r_exchange, wire_params, rng_r)
            return built["r"]

        answer, frames, _s_core, _r_core, s_party = _run_sessions(
            dname, params, make_sender, make_receiver,
            (_session_config, _loopback),
        )

        expected = FIXTURE["deltas"][dname][label]
        assert _msg_digests(dspec, frames) == expected["wires"], (
            f"{dname} {label} wire diverges"
        )
        assert _digest(
            golden.delta_answer(dspec, answer, built["r"])
        ) == expected["answer"]
        assert s_party.size_v_r == expected["size_v_r"]
        assert built["r"].size_v_s == expected["size_v_s"]
        built["r"].commit()
        built["s"].commit()

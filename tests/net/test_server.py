"""Unit/integration tests for the supervised multi-session server.

The acceptance bar from the issue: a :class:`ProtocolServer` sustains
at least four concurrent sessions across *different* protocols while
rejecting the ``(max_sessions + 1)``-th new client with a typed busy
frame rather than a hang. Plus: reconnect routing by session id,
deadline/idle reaping, graceful drain, journal-backed recovery, and
per-session stats folded into the metrics report.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import gc
import random
import signal
import socket
import threading
import time
import weakref
import zlib

import pytest

from repro.analysis.instrumentation import MetricsRecorder
from repro.net import tcp
from repro.net.journal import JournalDir, open_session
from repro.net.serialization import encode
from repro.net.server import ProtocolOffer, ProtocolServer
from repro.net.shard import ShardedProtocolServer
from repro.net.session import (
    SESSION_VERSION,
    RetryPolicy,
    ServerBusyError,
    SessionConfig,
    SessionStats,
    seal,
    unseal,
)
from repro.protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from repro.protocols.spec import PROTOCOLS

from .shells import run_core

BITS = 128
N = 12


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _values():
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def _offers(params):
    v_r, v_s = _values()
    return {
        "intersection": (v_s, params),
        "intersection-size": (v_s, params),
        "equijoin": ({v: f"payload:{v}".encode() for v in v_s}, params),
        "equijoin-sum": (
            {v: (i * 7) % 23 for i, v in enumerate(v_s)}, params
        ),
    }


def _config(timeout_s=2.0, max_reconnects=8):
    return SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=max_reconnects,
        fin_grace_s=0.05,
    )


def _client(port, protocol, seed, config=None):
    v_r, _ = _values()
    answer, stats = tcp.connect_resumable_receiver(
        protocol, v_r, random.Random(seed), "127.0.0.1", port,
        config=config or _config(),
    )
    return answer, stats


def _raw_hello_holder(port, protocol, session_id):
    """A fake client: valid hello, then silence (holds its slot)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    endpoint = tcp.SocketEndpoint(sock=sock)
    endpoint.send(
        seal("hello", SESSION_VERSION, protocol, session_id, 0, 0)
    )
    return endpoint


class _Submissions(concurrent.futures.ThreadPoolExecutor):
    """A server executor logging the qualified name of every callable
    submitted to it."""

    def __init__(self):
        super().__init__(max_workers=4, thread_name_prefix="repro-session")
        self.names = []

    def submit(self, fn, /, *args, **kwargs):
        self.names.append(fn.__qualname__)
        return super().submit(fn, *args, **kwargs)


def _watch_executor(server):
    """Swap a started server's executor for a :class:`_Submissions`."""
    server._executor.shutdown()
    server._executor = _Submissions()
    return server._executor


def _expect_frame(endpoint, tag, timeout=5.0):
    endpoint.sock.settimeout(timeout)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        fields = unseal(endpoint.recv())
        if fields[0] == tag:
            return fields
    raise AssertionError(f"no {tag!r} frame within {timeout}s")


# ----------------------------------------------------------------------
# Concurrency + typed busy rejection (the acceptance criterion)
# ----------------------------------------------------------------------
def test_four_concurrent_protocols_and_busy_rejection(params):
    half = N // 2
    server = ProtocolServer(
        _offers(params), max_sessions=4, config=_config()
    ).start()
    try:
        # Fill all four slots with holders on four different protocols.
        holders = [
            _raw_hello_holder(server.port, protocol, 100 + i)
            for i, protocol in enumerate(_offers(params))
        ]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with server._lock:
                running = sum(
                    1 for r in server.sessions.values()
                    if r.status == "running"
                )
            if running == 4:
                break
            time.sleep(0.02)
        assert running == 4, "server did not reach 4 concurrent sessions"

        # The fifth new client gets a typed busy frame, not a hang.
        with pytest.raises(ServerBusyError, match="capacity"):
            _client(
                server.port, "intersection", seed=9,
                config=_config(max_reconnects=0),
            )
        assert server.rejected_busy == 1

        # The four held sessions are still live: complete each of them
        # with a real client reconnecting under the held session id.
        answers = {}
        threads = []
        for i, protocol in enumerate(_offers(params)):
            def run(protocol=protocol, sid=100 + i):
                v_r, _ = _values()
                spec = PROTOCOLS[protocol]
                session, _ = open_session(
                    "receiver", protocol,
                    lambda wire: spec.make_receiver(
                        v_r, PublicParams.from_wire(tuple(wire)),
                        random.Random("R"),
                    ),
                    config=_config(),
                    rng=random.Random(i),
                    session_id=sid,
                )
                answers[protocol] = run_core(
                    session.steps(),
                    lambda: tcp._connect("127.0.0.1", server.port, 2.0),
                )
            threads.append(threading.Thread(target=run))
        for holder in holders:
            holder.close()  # free the dead connections
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert answers["intersection"] == {f"c{i}" for i in range(half)}
        assert answers["intersection-size"] == half
        assert answers["equijoin"] == {
            f"c{i}": f"payload:c{i}".encode() for i in range(half)
        }
    finally:
        server.shutdown(drain_timeout_s=2.0)
    statuses = {r["session_id"]: r["status"] for r in server.results()}
    assert all(statuses[100 + i] == "done" for i in range(4)), statuses


def test_reconnect_routes_to_owning_session(params):
    """A dead first connection does not kill the session: a reconnect
    under the same id resumes it on a fresh connection."""
    server = ProtocolServer(
        _offers(params), max_sessions=2, config=_config(timeout_s=0.5)
    ).start()
    try:
        holder = _raw_hello_holder(server.port, "intersection", 0xBEEF)
        _expect_frame(holder, "welcome")  # the session adopted conn #1
        holder.close()  # conn #1 dies mid-handshake

        v_r, _ = _values()
        spec = PROTOCOLS["intersection"]
        session, _ = open_session(
            "receiver", "intersection",
            lambda wire: spec.make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), random.Random("R")
            ),
            config=_config(timeout_s=0.5),
            rng=random.Random(3),
            session_id=0xBEEF,
        )
        answer = run_core(
            session.steps(),
            lambda: tcp._connect("127.0.0.1", server.port, 2.0),
        )
        assert answer == {f"c{i}" for i in range(N // 2)}
    finally:
        server.shutdown(drain_timeout_s=2.0)
    (record,) = server.results()
    assert record["session_id"] == 0xBEEF
    assert record["status"] == "done"


def test_finished_sessions_keep_only_their_summary(params):
    """A long-lived server lets go of each finished session's core and
    party state (its round log, S's keys and tables); ``results()``
    reports what it always did."""
    spec = PROTOCOLS["intersection"]
    _, v_s = _values()
    states = []

    def make_sender(session_id):
        state = spec.make_sender(v_s, params, random.Random("S"))
        states.append(weakref.ref(state))
        return state

    server = ProtocolServer(
        [ProtocolOffer("intersection", params, make_sender)],
        max_sessions=2, config=_config(),
    ).start()
    try:
        for seed in range(6):
            answer, _ = _client(server.port, "intersection", seed)
            assert answer == {f"c{i}" for i in range(N // 2)}
        assert server.wait_for_sessions(6, timeout=10)
        deadline = time.monotonic() + 5.0
        while any(ref() is not None for ref in states):
            assert time.monotonic() < deadline, "a finished session's state lives on"
            gc.collect()
            time.sleep(0.02)
        rows = server.results()
    finally:
        server.shutdown(drain_timeout_s=2.0)
    assert len(states) == 6
    for record in server.sessions.values():
        assert (record.session, record.task, record.inbox) == (None, None, None)
    assert server.active_sessions() == 0 and server._live == {}
    assert [row["status"] for row in rows] == ["done"] * 6
    assert set(rows[0]) == {
        "session_id", "status", "error", *SessionStats().as_dict(),
    }
    assert all(row["frames_sent"] and row["frames_received"] for row in rows)
    assert server.results() == rows


@pytest.mark.parametrize("server_class", [ProtocolServer, ShardedProtocolServer])
def test_two_sessions_of_one_offer_share_no_key(params, server_class):
    """Every hosted session keys its own S: one ``m1`` sent under three
    session ids - two of them on one shard worker - comes back with
    three disjoint ``Y_S``. (They were one ``Y_S`` while S's keys
    belonged to the offer.)"""
    spec = PROTOCOLS["intersection"]
    v_r, v_s = _values()

    def reply(port, session_id):
        core, _ = open_session(
            "receiver", "intersection",
            lambda wire: spec.make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), random.Random(1)
            ),
            config=_config(), rng=random.Random(session_id),
            session_id=session_id,
        )
        answer = run_core(
            core.steps(),
            lambda: tcp._connect("127.0.0.1", port, 5.0),
        )
        assert answer == {f"c{i}" for i in range(N // 2)}
        (m1,), (m2,) = core.log.outbound, core.log.inbound
        return m1, set(spec.rounds[1].message.from_wire(m2).y_s)

    with server_class(
        {"intersection": (v_s, params)}, config=_config(), max_sessions=4
    ) as server:
        (m1, *others), replies = zip(*(reply(server.port, sid) for sid in (2, 3, 4)))
    assert all(other == m1 for other in others)
    assert all(len(y_s) == N for y_s in replies)
    assert len(set().union(*replies)) == 3 * N


# ----------------------------------------------------------------------
# Supervision: deadlines, reaping, drain
# ----------------------------------------------------------------------
def test_session_deadline_expires_and_frees_the_slot(params):
    server = ProtocolServer(
        _offers(params), max_sessions=1,
        config=_config(timeout_s=0.3, max_reconnects=1),
        session_deadline_s=0.5,
    ).start()
    try:
        holder = _raw_hello_holder(server.port, "intersection", 0xDEAD)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if any(
                r["status"] == "expired" for r in server.results()
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("deadline reaper never fired")
        holder.close()

        # The freed slot accepts a fresh session end-to-end.
        answer, _stats = _client(server.port, "intersection", seed=11)
        assert answer == {f"c{i}" for i in range(N // 2)}
    finally:
        server.shutdown(drain_timeout_s=2.0)


def test_drain_refuses_new_sessions_with_busy(params):
    server = ProtocolServer(
        _offers(params), max_sessions=4, config=_config(timeout_s=0.5)
    ).start()
    port = server.port
    shutdown_thread = threading.Thread(
        target=server.shutdown, kwargs={"drain_timeout_s": 2.0}
    )
    shutdown_thread.start()
    deadline = time.monotonic() + 5.0
    while not server.draining and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        with pytest.raises(ServerBusyError, match="draining"):
            _client(port, "intersection", seed=13,
                    config=_config(max_reconnects=0))
    finally:
        shutdown_thread.join(timeout=10)
    assert server.wait_closed(timeout=10)


# ----------------------------------------------------------------------
# Journal recovery through the supervisor
# ----------------------------------------------------------------------
def _journal_crash_window(tmp_path, params, protocol, sid):
    """Hand-build both parties' journals at the worst crash point:
    S journaled (in m1, out m2) but never shipped m2; R journaled m1."""
    from repro.net.journal import SessionJournal

    spec = PROTOCOLS[protocol]
    v_r, v_s = _values()
    receiver = ReceiverMachine(spec, v_r, params, random.Random("R"))
    sender = SenderMachine(spec, v_s, params, random.Random("S"))
    wires = spec.exchange(receiver, sender)

    jdir = JournalDir(tmp_path, fsync=False)
    s_journal = SessionJournal(
        jdir.path_for("sender", protocol, sid), fsync=False
    )
    s_journal.record_open("sender", protocol)
    s_journal.record_meta("session_id", sid)
    r_journal = SessionJournal(
        jdir.path_for("receiver", protocol, sid), fsync=False
    )
    r_journal.record_open("receiver", protocol)
    r_journal.record_meta("session_id", sid)
    r_journal.record_meta("params", tuple(params.to_wire()))
    inb = out = 0
    for source, wire in wires[:2]:
        if source == "R":
            s_journal.record_inbound(inb, encode(wire))
            inb += 1
            if inb == 1:
                r_journal.record_outbound(0, encode(wire))
        else:
            s_journal.record_outbound(out, encode(wire))
            out += 1
    s_journal.close()
    r_journal.close()
    return jdir, receiver.finish()


def test_server_recovers_journaled_session_for_unknown_id(
    tmp_path, params
):
    protocol = "intersection"
    sid = 0x7E57
    jdir, expected = _journal_crash_window(tmp_path, params, protocol, sid)

    v_r, v_s = _values()
    offer = ProtocolOffer(
        protocol=protocol,
        params=params,
        make_sender=lambda session_id: PROTOCOLS[protocol].make_sender(
            v_s, params, random.Random("S")
        ),
    )
    recorder = MetricsRecorder()
    server = ProtocolServer(
        [offer], max_sessions=2, config=_config(),
        journal_dir=jdir, recorder=recorder,
    ).start()
    submitted = _watch_executor(server)
    try:
        client, _ = open_session(
            "receiver", protocol,
            lambda wire: PROTOCOLS[protocol].make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), random.Random("R")
            ),
            journal_dir=jdir, config=_config(),
        )
        answer = run_core(
            client.steps(),
            lambda: tcp._connect("127.0.0.1", server.port, 2.0),
        )
        assert answer == expected
    finally:
        server.shutdown(drain_timeout_s=2.0)

    (record,) = server.results()
    assert record["status"] == "done"
    assert record["rounds_recovered"] == 2  # rebuilt from the journal
    # The replay ran off the loop: hello routing stayed live meanwhile.
    assert submitted.names[0] == "ProtocolServer._make_session"
    # Stats landed in the metrics report.
    report = recorder.report()
    assert len(report["sessions"]) == 1
    assert report["sessions"][0]["session_id"] == sid
    # Completed journals rotated out of the recovery scan.
    assert jdir.incomplete("sender", protocol) == []


def test_corrupt_journal_rejects_quarantines_and_frees_the_id(
    tmp_path, params
):
    """An unrecoverable journal (replay divergence) must not wedge the
    session id or kill the dispatch thread: the client gets a typed
    reject, the journal is quarantined as ``*.corrupt``, and a fresh
    hello under the same id starts over on a new journal."""
    _quarantine_round_trip(tmp_path, params, "divergence")


def test_a_crc_valid_non_record_in_a_journal_is_quarantined(tmp_path, params):
    """A record that passes its CRC but does not decode is corruption,
    not a torn tail to cut away and resume past."""
    _quarantine_round_trip(tmp_path, params, "crc-valid-non-record")


def _quarantine_round_trip(tmp_path, params, damage):
    from repro.net.journal import SessionJournal

    protocol = "intersection"
    sid = 0xBAD
    spec = PROTOCOLS[protocol]
    v_r, v_s = _values()
    receiver = ReceiverMachine(spec, v_r, params, random.Random("R"))
    m1 = receiver.produce(spec.rounds[0]).to_wire()

    jdir = JournalDir(tmp_path, fsync=False)
    journal = SessionJournal(
        jdir.path_for("sender", protocol, sid), fsync=False
    )
    journal.record_open("sender", protocol)
    journal.record_meta("session_id", sid)
    journal.record_inbound(0, encode(m1))
    if damage == "divergence":
        journal.record_outbound(0, b"not what replay recomputes")
    journal.close()
    if damage == "crc-valid-non-record":
        with open(journal.path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x01Z" + zlib.crc32(b"Z").to_bytes(4, "big"))

    offer = ProtocolOffer(
        protocol=protocol,
        params=params,
        make_sender=lambda session_id: spec.make_sender(
            v_s, params, random.Random("S")
        ),
    )
    server = ProtocolServer(
        [offer], max_sessions=2, config=_config(), journal_dir=jdir
    ).start()
    submitted = _watch_executor(server)
    try:
        endpoint = _raw_hello_holder(server.port, protocol, sid)
        fields = _expect_frame(endpoint, "reject")
        assert "recovery" in fields[2]
        assert "quarantined" in fields[2]
        endpoint.close()
        # The failed replay ran off the loop.
        assert submitted.names == ["ProtocolServer._make_session"]

        wal = jdir.path_for("sender", protocol, sid)
        corrupt = wal.with_suffix(".corrupt")
        assert corrupt.exists() and not wal.exists()
        assert server.quarantined == [corrupt]
        with server._lock:
            assert sid not in server.sessions  # the id is free again

        # A fresh client under the same id completes on a new journal.
        session, _ = open_session(
            "receiver", protocol,
            lambda wire: spec.make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), random.Random("R2")
            ),
            config=_config(),
            rng=random.Random(5),
            session_id=sid,
        )
        answer = run_core(
            session.steps(),
            lambda: tcp._connect("127.0.0.1", server.port, 2.0),
        )
        assert answer == {f"c{i}" for i in range(N // 2)}
    finally:
        server.shutdown(drain_timeout_s=2.0)
    (record,) = server.results()
    assert record["status"] == "done"
    assert corrupt.exists()  # still there for forensics
    # The fresh session after it was built on the loop.
    assert submitted.names.count("ProtocolServer._make_session") == 1


class _SlowSendTransport:
    """Client transport that sleeps before each send.

    Frames keep flowing, just slower: every inter-frame gap stays under
    the server's idle timeout while the whole run takes longer than it
    - the exact shape the idle reaper must *not* mistake for an
    abandoned session."""

    def __init__(self, transport, delay_s):
        self._transport = transport
        self._delay_s = delay_s

    async def send(self, message):
        await asyncio.sleep(self._delay_s)
        await self._transport.send(message)

    def __getattr__(self, name):
        return getattr(self._transport, name)


def test_idle_reaper_spares_a_session_actively_exchanging_rounds(params):
    # The four-round equijoin-sum keeps frames flowing long enough that
    # the whole run outlives the idle window while no single gap does.
    protocol = "equijoin-sum"
    idle_timeout_s = 0.75
    spec = PROTOCOLS[protocol]
    v_r, _ = _values()
    s_data = _offers(params)[protocol][0]
    receiver_m = ReceiverMachine(spec, v_r, params, random.Random("R"))
    sender_m = SenderMachine(spec, s_data, params, random.Random("S"))
    spec.exchange(receiver_m, sender_m)
    expected = receiver_m.finish()

    server = ProtocolServer(
        _offers(params), max_sessions=2, config=_config(timeout_s=5.0),
        idle_timeout_s=idle_timeout_s,
    ).start()
    try:
        session, _ = open_session(
            "receiver", protocol,
            lambda wire: spec.make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), random.Random("R")
            ),
            config=_config(timeout_s=5.0),
            rng=random.Random(21),
            session_id=0xA11CE,
        )
        start = time.monotonic()
        answer = run_core(session.steps(), lambda: tcp._connect(
            "127.0.0.1", server.port, 5.0,
            lambda endpoint: _SlowSendTransport(endpoint, 0.3),
        ))
        # The run really did outlive the idle window on one connection.
        assert time.monotonic() - start > idle_timeout_s
        assert answer == expected
    finally:
        server.shutdown(drain_timeout_s=2.0)
    (record,) = server.results()
    assert record["status"] == "done"


def test_rejects_unknown_protocol_and_bad_version(params):
    server = ProtocolServer(
        {"intersection": _offers(params)["intersection"]},
        max_sessions=2, config=_config(),
    ).start()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), 5.0)
        endpoint = tcp.SocketEndpoint(sock=sock)
        endpoint.send(seal("hello", SESSION_VERSION, "equijoin", 1, 0, 0))
        fields = _expect_frame(endpoint, "reject")
        assert "not served" in fields[2]
        endpoint.close()

        sock = socket.create_connection(("127.0.0.1", server.port), 5.0)
        endpoint = tcp.SocketEndpoint(sock=sock)
        endpoint.send(seal("hello", 999, "intersection", 1, 0, 0))
        fields = _expect_frame(endpoint, "reject")
        assert "version" in fields[2]
        endpoint.close()
    finally:
        server.shutdown(drain_timeout_s=1.0)
    assert server.results() == []  # rejects never became sessions


@pytest.mark.parametrize("garbled, served", [(31, True), (32, False)])
def test_hello_must_come_within_the_prehello_allowance(params, garbled, served):
    """A worker reached directly reads at most 32 frames for a hello,
    as the shard router in front of it does: 31 garbled seals and a
    hello are served, 32 and a hello are dropped unanswered."""
    server = ProtocolServer(
        {"intersection": _offers(params)["intersection"]},
        max_sessions=2, config=_config(),
    ).start()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), 5.0)
        endpoint = tcp.SocketEndpoint(sock=sock)
        for _ in range(garbled):
            endpoint.send(("hello", "garbled", "no-seal"))
        endpoint.send(seal("hello", SESSION_VERSION, "intersection", 7, 0, 0))
        endpoint.sock.settimeout(5.0)
        if served:
            assert unseal(endpoint.recv())[0] == "welcome"
        else:
            with pytest.raises(ConnectionError):
                endpoint.recv()
        endpoint.close()
    finally:
        server.shutdown(drain_timeout_s=0)
    assert len(server.results()) == int(served)


def test_metadata_only_stub_journal_restarts_fresh(tmp_path, params):
    """A worker killed between journal creation and the ``chunk_size``
    meta append leaves a metadata-only stub (open + session_id, no
    rounds). Recovery must treat that id as fresh - nothing durable
    exists to replay - not quarantine the stub for a chunk_size
    mismatch and reject the client that reconnects to resume."""
    protocol = "intersection"
    sid = 0x51AB
    jdir = JournalDir(tmp_path, fsync=False)
    jdir.open_session("sender", protocol, sid).close()  # the stub

    v_r, v_s = _values()
    offer = ProtocolOffer(
        protocol=protocol,
        params=params,
        make_sender=lambda session_id: PROTOCOLS[protocol].make_sender(
            v_s, params, random.Random("S")
        ),
    )
    server = ProtocolServer(
        [offer], max_sessions=2, config=_config(),
        journal_dir=jdir, chunk_size=1,
    ).start()
    try:
        session, _ = open_session(
            "receiver", protocol,
            lambda wire: PROTOCOLS[protocol].make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), random.Random("R")
            ),
            config=_config(),
            rng=random.Random(1),
            session_id=sid,
            chunk_size=1,
        )
        answer = run_core(
            session.steps(),
            lambda: tcp._connect("127.0.0.1", server.port, 2.0),
        )
    finally:
        server.shutdown(drain_timeout_s=2.0)
    half = N // 2
    assert sorted(answer) == sorted(f"c{i}" for i in range(half))
    (record,) = server.results()
    assert record["status"] == "done"
    assert record["session_id"] == sid
    # The stub was discarded, not quarantined; the finished session's
    # journal rotated normally.
    assert list(tmp_path.glob("*.corrupt")) == []
    assert jdir.incomplete("sender", protocol) == []


# ----------------------------------------------------------------------
# Where a hosted session's machine steps run
# ----------------------------------------------------------------------
def test_a_herd_small_shaped_session_submits_nothing_to_the_executor(
    tmp_path,
):
    """256 bits, n = 4, ``chunk_size=2``, journaled, as ``herd-small``:
    building the session and party S, S's own set, the streamed ``m2``
    and decoding ``m1`` all declare at most ``INLINE_WORK`` and run on
    the loop."""
    params = PublicParams.for_bits(256)
    server = ProtocolServer(
        {"intersection": (["a", "b", "c", "d"], params)}, config=_config(),
        journal_dir=JournalDir(tmp_path, fsync=False), chunk_size=2,
    ).start()
    submitted = _watch_executor(server)
    try:
        answer, _ = tcp.connect_resumable_receiver(
            "intersection", ["c", "d", "e", "f"], random.Random(1),
            "127.0.0.1", server.port, config=_config(), chunk_size=2,
        )
        assert server.wait_for_sessions(1, timeout=10)
    finally:
        server.shutdown(drain_timeout_s=2.0)
    assert answer == {"c", "d"}
    assert [row["status"] for row in server.results()] == ["done"]
    assert submitted.names == []


def test_a_1024_bit_session_of_hundreds_still_hops_for_its_heavy_steps(
    monkeypatch,
):
    """1024 bits, |V| = 300, ``chunk_size=64``: building S, S's own set
    and every chunk of the streamed ``m2`` go to the executor; decoding
    ``m1`` (zero work) and building the session stay on the loop. The
    offloaded ``Ahead`` steps run one after another in chain jobs
    (``_AheadChain._drain``), so the steps are logged where they run."""
    from repro.net.streaming import TimedIterator
    from repro.protocols.parties import _Machine

    ran, inside = [], threading.local()  # outermost steps only

    def logging(real):
        @functools.wraps(real)
        def logged(self):
            if getattr(inside, "step", False):
                return real(self)
            if threading.current_thread().name.startswith("repro-session"):
                ran.append(real.__qualname__)
            inside.step = True
            try:
                return real(self)
            finally:
                inside.step = False

        return logged

    for owner, name in (
        (_Machine, "ensure_state"), (_Machine, "warm"), (TimedIterator, "pull"),
    ):
        monkeypatch.setattr(owner, name, logging(getattr(owner, name)))
    params = PublicParams.for_bits(1024)
    v_s = [f"s{i}" for i in range(200)] + [f"c{i}" for i in range(100)]
    v_r = [f"r{i}" for i in range(200)] + [f"c{i}" for i in range(100)]
    server = ProtocolServer(
        {"intersection": (v_s, params)}, config=_config(timeout_s=30.0),
        chunk_size=64,
    ).start()
    submitted = _watch_executor(server)
    try:
        answer, _ = tcp.connect_resumable_receiver(
            "intersection", v_r, random.Random(1), "127.0.0.1", server.port,
            config=_config(timeout_s=30.0), chunk_size=64,
        )
        assert server.wait_for_sessions(1, timeout=30)
    finally:
        server.shutdown(drain_timeout_s=2.0)
    assert answer == {f"c{i}" for i in range(100)}
    # Five Y_S and five pair chunks, then the pull that finds the end.
    assert ran == (
        ["_Machine.ensure_state", "_Machine.warm"]
        + ["TimedIterator.pull"] * 11
    )
    assert set(submitted.names) == {
        "_Machine.ensure_state", "_AheadChain._drain",
    }


# ----------------------------------------------------------------------
# The reaper runs only when there is something to reap
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "limits, reaps",
    [({}, False), ({"idle_timeout_s": 5.0}, True),
     ({"session_deadline_s": 5.0}, True)],
)
def test_the_reaper_is_scheduled_only_with_a_deadline_or_idle_timeout(
    params, limits, reaps
):
    """A default server - every ``herd-small`` shard worker - has no
    task waking every 50 ms; it serves and stops without one."""
    server = ProtocolServer(
        {"intersection": _offers(params)["intersection"]},
        config=_config(), **limits,
    ).start()
    try:
        async def tasks():
            return [task.get_coro().__qualname__ for task in asyncio.all_tasks()]

        running = server._loop_thread.run(tasks(), timeout=5)
        assert ("ProtocolServer._reap_loop" in running) is reaps
        assert (server._reaper_task is not None) is reaps
        answer, _ = _client(server.port, "intersection", seed=1)
        assert answer == {f"c{i}" for i in range(N // 2)}
    finally:
        server.shutdown(drain_timeout_s=2.0)
    assert server.wait_closed(timeout=5)


# ----------------------------------------------------------------------
# One drain-on-signal for both servers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("server_class", [ProtocolServer, ShardedProtocolServer])
def test_a_signal_drains_either_server_off_the_signal_context(server_class):
    """``install_signal_handlers`` of the supervised server and of the
    sharded front end: the signal starts ``shutdown`` with the drain
    timeout on a helper thread, and the handler returns at once."""
    drained = []
    called = threading.Event()

    class _Server:
        def shutdown(self, drain_timeout_s):
            drained.append((drain_timeout_s, threading.current_thread()))
            called.set()

    previous = signal.getsignal(signal.SIGUSR2)
    try:
        server_class.install_signal_handlers(
            _Server(), drain_timeout_s=0.5, signals=(signal.SIGUSR2,)
        )
        signal.raise_signal(signal.SIGUSR2)
        assert called.wait(timeout=5)
    finally:
        signal.signal(signal.SIGUSR2, previous)
    ((timeout_s, thread),) = drained
    assert timeout_s == 0.5 and thread is not threading.main_thread()


class _GarbleFirstHello:
    """Client-side wrapper: a copy of the first frame with a broken
    checksum goes out just ahead of it."""

    def __init__(self, endpoint):
        self.endpoint, self.garbled = endpoint, False

    async def send(self, message):
        if not self.garbled:
            self.garbled = True
            await self.endpoint.send((message[0], 99, *message[2:]))
        await self.endpoint.send(message)

    def __getattr__(self, name):
        return getattr(self.endpoint, name)


def test_garbled_frames_before_a_routed_hello_count_as_checksum_failures(
    params,
):
    """The garbled seal read ahead of a hello is the session's checksum
    failure, as if its own handshake had read it."""
    v_r, _ = _values()
    with ProtocolServer(
        {"intersection": _offers(params)["intersection"]}, config=_config()
    ) as server:
        answer, _stats = tcp.connect_resumable_receiver(
            "intersection", v_r, random.Random(1), "127.0.0.1", server.port,
            config=_config(), endpoint_wrapper=_GarbleFirstHello,
        )
        assert server.wait_for_sessions(1, timeout=10)
    assert sorted(answer) == [f"c{i}" for i in range(N // 2)]
    (record,) = server.results()
    assert record["status"] == "done"
    assert record["checksum_failures"] == 1

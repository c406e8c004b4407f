"""The shard front end hands each connection over after its hello.

Once the router has read a hello and picked the shard, it passes the
accepted socket - and every byte it read off it - to the worker over
that worker's channel, and reads nothing more. These tests pin what
that must preserve: the bytes reach the worker in order (garbled
pre-hello frames and whatever the client sent behind the hello), a
killed worker's clients still get a typed ``worker-lost`` and a clean
EOF while the other shard's sessions run on, and the front end keeps no
connection - and no descriptor - once its sessions are done.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.net import tcp
from repro.net.journal import open_session
from repro.net.serialization import decode, encode
from repro.net.server import HANDOFF_MAX_BYTES, HANDOFF_TOKEN, ProtocolServer
from repro.net.session import (
    SESSION_VERSION,
    RetryPolicy,
    SessionConfig,
    seal,
    unseal,
)
from repro.net.shard import ShardedProtocolServer
from repro.protocols.parties import PublicParams
from repro.protocols.spec import get_spec

from .shells import run_core

BITS = 96


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _offers(params):
    return {"intersection": (["b", "c", "x"], params)}


def _config():
    return SessionConfig(
        timeout_s=5.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=8,
        fin_grace_s=0.05,
    )


def _framed(message):
    payload = encode(message)
    return struct.pack(">I", len(payload)) + payload


def _wait_for(predicate, what, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _open_fds():
    return len(os.listdir("/dev/fd"))


def _session(port, session_id, dial=None):
    """One resumable client run with a fixed session id; ``dial``
    defaults to a plain dial of ``port``."""
    session, _ = open_session(
        "receiver", "intersection",
        lambda wire: get_spec("intersection").make_receiver(
            ["a", "b", "c"], PublicParams.from_wire(tuple(wire)),
            random.Random(session_id),
        ),
        config=_config(), rng=random.Random(session_id), session_id=session_id,
    )
    answer = run_core(
        session.steps(), dial or (lambda: tcp._connect("127.0.0.1", port, 5.0))
    )
    return sorted(answer), session.stats


class TestBytesReachTheWorker:
    def test_prehello_frames_and_bytes_behind_the_hello_arrive_in_order(
        self, params
    ):
        """Two garbled frames, the hello and a retransmit of it, in one
        ``sendall``: the worker answers the hello, then the retransmit
        (with the same welcome) - through the router exactly as when
        dialed directly."""

        def answers(port, session_id):
            hello = seal("hello", SESSION_VERSION, "intersection", session_id, 0, 0)
            garbled = ("hello", "garbled", "no-seal")
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.sendall(b"".join(map(_framed, (garbled, garbled, hello, hello))))
            endpoint = tcp.SocketEndpoint(sock=sock)
            endpoint.sock.settimeout(5.0)
            frames = [unseal(endpoint.recv()) for _ in range(2)]
            endpoint.close()
            # Everything but the session id, which differs by design.
            return [frame[:3] + frame[4:] for frame in frames]

        with ShardedProtocolServer(
            _offers(params), shards=2, config=_config(), max_sessions=4
        ) as server:
            routed = answers(server.port, 4)
            direct = answers(server.health()[0]["port"], 6)
            assert server.routed == 1
        assert [frame[0] for frame in routed] == ["welcome", "welcome"]
        assert routed == direct

    def test_a_prehello_burst_past_one_handoff_is_dropped(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=1, config=_config(), max_sessions=2
        ) as server:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            garbled = ("hello", "garbled", b"x" * (HANDOFF_MAX_BYTES // 2))
            hello = seal("hello", SESSION_VERSION, "intersection", 2, 0, 0)
            sock.sendall(b"".join(map(_framed, (garbled, garbled, hello))))
            sock.settimeout(5.0)
            assert sock.recv(1024) == b""
            sock.close()
            assert (server.routed, server.refused_unroutable) == (0, 1)
        assert server.results() == []  # reported at drain: no session


class TestTheWorkersChannel:
    def test_a_handoff_without_its_socket_is_reported_closed_at_once(
        self, params
    ):
        """The kernel drops a passed descriptor when the receiver is out
        of them: the worker must hand the token straight back so the
        front end closes its copy; and its channel ends with it."""
        server = ProtocolServer(_offers(params), config=_config()).start()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        ours.settimeout(5.0)
        try:
            server.accept_handoffs(theirs)
            ours.send(HANDOFF_TOKEN.pack(5) + _framed(("hello", "garbled", "x")))
            assert ours.recv(64) == HANDOFF_TOKEN.pack(5)
        finally:
            server.shutdown(drain_timeout_s=0)
        assert ours.recv(64) == b""
        ours.close()


class TestTheFrontEndLetsGo:
    def test_reads_nothing_from_a_routed_connection_after_the_hello(
        self, params, monkeypatch
    ):
        """White box: every byte the front end's streams take in over a
        whole session is the client's one hello frame. (The workers are
        forked before the patch, and the client's own loop runs on this
        thread, so only the front end is counted.)"""
        fed, client = [], threading.current_thread()
        with ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=4,
        ) as server:
            feed_data = asyncio.StreamReader.feed_data
            monkeypatch.setattr(
                asyncio.StreamReader, "feed_data",
                lambda reader, data: (
                    threading.current_thread() is client
                    or fed.append(bytes(data)),
                    feed_data(reader, data),
                ),
            )
            answer, stats = _session(server.port, 7)
        assert answer == ["b", "c"] and stats.frames_received >= 1
        (frame,) = fed
        (length,) = struct.unpack(">I", frame[:4])
        assert len(frame) == 4 + length
        assert unseal(decode(frame[4:]))[:4] == ("hello", SESSION_VERSION, "intersection", 7)

    def test_a_herd_of_100_leaves_no_connection_and_no_descriptor(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=8, heartbeat_timeout_s=30.0,
        ) as server:
            gc.collect()  # no earlier test's socket may close mid-count
            before = _open_fds()
            with ThreadPoolExecutor(8) as herd:
                answers = list(herd.map(
                    lambda sid: _session(server.port, sid)[0], range(100)
                ))
            assert answers == [["b", "c"]] * 100
            assert server.routed == 100
            _wait_for(
                lambda: not any(shard.channel.held for shard in server._shards),
                "the workers' closed notices",
            )
            _wait_for(lambda: _open_fds() == before, "the descriptor count")
            assert server.worker_lost_notices == 0


class TestAKilledShard:
    def test_its_clients_get_worker_lost_then_eof_the_other_shard_runs_on(
        self, params
    ):
        welcomed, resume = threading.Semaphore(0), threading.Event()

        async def paused_dial(port):
            """Dial, then hold the run (and its own loop) right after
            its welcome."""
            endpoint = await tcp._connect("127.0.0.1", port, 5.0)
            recv_within, paused = endpoint.recv_within, []

            async def held_recv(timeout):
                frame = await recv_within(timeout)
                if not paused:
                    paused.append(frame)
                    welcomed.release()
                    assert resume.wait(timeout=20)
                return frame

            endpoint.recv_within = held_recv
            return endpoint

        with ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=8,
            heartbeat_s=0.05, respawn_backoff_s=0.05, restart_budget=4,
        ) as server:
            doomed = []
            for sid in (0, 2, 4):  # shard 0
                sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
                endpoint = tcp.SocketEndpoint(sock=sock)
                endpoint.sock.settimeout(5.0)
                endpoint.send(seal("hello", SESSION_VERSION, "intersection", sid, 0, 0))
                assert unseal(endpoint.recv())[0] == "welcome"
                doomed.append((sock, endpoint))
            with ThreadPoolExecutor(3) as pool:
                spared = [  # shard 1, each held mid-run
                    pool.submit(_session, server.port, sid,
                                lambda: paused_dial(server.port))
                    for sid in (1, 3, 5)
                ]
                for _ in spared:
                    assert welcomed.acquire(timeout=10)
                assert server.kill_worker(0) is not None
                for sock, endpoint in doomed:
                    while (fields := unseal(endpoint.recv()))[0] != "worker-lost":
                        pass
                    assert len(fields) == 4  # a retry hint rides along
                    assert sock.recv(65536) == b""  # then a clean EOF
                    sock.close()
                resume.set()
                results = [future.result(timeout=30) for future in spared]
            assert server.worker_lost_notices == 3
        assert [answer for answer, _ in results] == [["b", "c"]] * 3
        assert all(
            (stats.reconnects, stats.worker_lost) == (0, 0) for _, stats in results
        )

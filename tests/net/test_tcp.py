"""Tests for the TCP transport: framing, and every protocol across a
real socket through the one-shot verbs (``repro.serve`` /
``repro.connect`` with ``session=None``: one connection, no retry)."""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import queue
import random
import socket
import threading
import time

import pytest

import struct

import repro
from repro.net import tcp
from repro.net.serialization import encode
from repro.net.session import (
    SESSION_VERSION,
    HandshakeError,
    SessionError,
    seal,
    unseal,
)
from repro.net.tcp import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameTooLarge,
    SocketEndpoint,
)
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS


def _socket_pair():
    a, b = socket.socketpair()
    return SocketEndpoint(sock=a), SocketEndpoint(sock=b)


class TestSocketEndpoint:
    def test_round_trip(self):
        a, b = _socket_pair()
        a.send([1, "two", b"\x00three"])
        assert b.recv() == [1, "two", b"\x00three"]
        a.close()
        b.close()

    def test_multiple_frames_in_order(self):
        a, b = _socket_pair()
        for i in range(5):
            a.send(i)
        assert [b.recv() for _ in range(5)] == list(range(5))
        a.close()
        b.close()

    def test_byte_accounting(self):
        a, b = _socket_pair()
        message = [2**256] * 3
        a.send(message)
        b.recv()
        expected = 4 + len(encode(message))
        assert a.bytes_sent == expected
        assert b.bytes_received == expected
        a.close()
        b.close()

    def test_peer_close_raises(self):
        a, b = _socket_pair()
        a.close()
        with pytest.raises(ConnectionError):
            b.recv()
        b.close()

    def test_large_frame(self):
        a, b = _socket_pair()
        big = [i for i in range(20000)]
        sender = threading.Thread(target=a.send, args=(big,))
        sender.start()
        assert b.recv() == big
        sender.join()
        a.close()
        b.close()


class TestHardenedFraming:
    """Wire-level edge cases: corrupt prefixes, truncation, timeouts."""

    def test_default_frame_bound(self):
        a, _b = _socket_pair()
        assert a.max_frame_bytes == DEFAULT_MAX_FRAME_BYTES == 64 * 1024 * 1024

    def test_oversized_length_prefix_fails_fast(self):
        raw_a, raw_b = socket.socketpair()
        b = SocketEndpoint(sock=raw_b, max_frame_bytes=1024)
        raw_a.sendall(struct.pack(">I", 1 << 30))  # 1 GiB claim, no body
        with pytest.raises(FrameTooLarge, match="1024"):
            b.recv()
        raw_a.close()
        b.close()

    def test_frame_too_large_is_a_connection_error(self):
        """Callers catching ConnectionError (the only safe recovery -
        the stream cannot resync) also catch FrameTooLarge."""
        assert issubclass(FrameTooLarge, ConnectionError)

    def test_frame_at_the_bound_still_passes(self):
        raw_a, raw_b = socket.socketpair()
        payload = b"x" * 64
        frame = encode(payload)
        a = SocketEndpoint(sock=raw_a, max_frame_bytes=len(frame))
        b = SocketEndpoint(sock=raw_b, max_frame_bytes=len(frame))
        a.send(payload)
        assert b.recv() == payload
        a.close()
        b.close()

    def test_short_read_mid_header(self):
        raw_a, raw_b = socket.socketpair()
        b = SocketEndpoint(sock=raw_b)
        raw_a.sendall(b"\x00\x00")  # half a length prefix
        raw_a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            b.recv()
        b.close()

    def test_short_read_mid_payload(self):
        raw_a, raw_b = socket.socketpair()
        b = SocketEndpoint(sock=raw_b)
        payload = encode([1, 2, 3])
        frame = struct.pack(">I", len(payload)) + payload
        raw_a.sendall(frame[: len(frame) - 3])  # truncated mid-payload
        raw_a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            b.recv()
        b.close()

    def test_corrupted_payload_raises_value_error(self):
        raw_a, raw_b = socket.socketpair()
        b = SocketEndpoint(sock=raw_b)
        garbage = b"\xff\xfe\xfd\xfc"
        raw_a.sendall(struct.pack(">I", len(garbage)) + garbage)
        with pytest.raises(ValueError):
            b.recv()
        raw_a.close()
        b.close()

    def test_read_timeout_raises(self):
        a, b = _socket_pair()
        b.sock.settimeout(0.05)
        with pytest.raises((TimeoutError, OSError)):
            b.recv()
        a.close()
        b.close()

    def test_accept_timeout_raises(self):
        with pytest.raises(SessionError, match="no client") as failure:
            repro.serve("intersection", ["a"], bits=64, seed=0, timeout=0.05)
        assert isinstance(failure.value.__cause__, TimeoutError)

    def _connect_to(self, answer_hello):
        """A default ``repro.connect`` against a one-connection server
        that runs ``answer_hello(conn)``; returns how it failed and how
        many times it dialed."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(0.5)
        dials = []

        def serve():
            try:
                while True:
                    conn, _ = listener.accept()
                    dials.append(conn)
                    answer_hello(conn)
                    conn.close()
            except socket.timeout:
                pass

        thread = threading.Thread(target=serve)
        thread.start()
        with pytest.raises(SessionError) as failure:
            repro.connect(
                "intersection", ["a"], seed=0,
                port=listener.getsockname()[1], timeout=2.0,
            )
        thread.join()
        listener.close()
        return failure.value, len(dials)

    def test_truncated_handshake_aborts_client(self):
        """A server that dies mid-welcome aborts the client with a
        connection error - at once, ``session=None`` never redials -
        not a hang or a garbage answer."""
        def half_welcome(conn):
            payload = encode(("welcome", 1, "intersection"))
            frame = struct.pack(">I", len(payload)) + payload
            conn.sendall(frame[: len(frame) // 2])  # die mid-frame

        failure, dials = self._connect_to(half_welcome)
        assert isinstance(failure.__cause__, ConnectionError)
        assert dials == 1

    def test_wrong_handshake_tag_rejected(self):
        """An answer that is no sealed welcome never starts the rounds."""
        failure, dials = self._connect_to(
            lambda conn: SocketEndpoint(sock=conn).send(("banner", "hi"))
        )
        assert isinstance(failure.__cause__, ConnectionError)
        assert dials == 1


class TestPlainContract:
    """``session=None``: one connection, no deadline unless asked."""

    def test_a_refused_dial_raises_at_once(self, monkeypatch):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        dials = []
        dial = tcp._connect
        monkeypatch.setattr(
            tcp, "_connect", lambda *a, **k: (dials.append(a), dial(*a, **k))[1]
        )

        def no_sleep(seconds, *_args):
            pytest.fail(f"slept {seconds}s before failing")

        monkeypatch.setattr(time, "sleep", no_sleep)
        monkeypatch.setattr(asyncio, "sleep", no_sleep)
        with pytest.raises(SessionError) as failure:
            repro.connect("intersection", ["a"], seed=0, port=port)
        assert isinstance(failure.value.__cause__, ConnectionRefusedError)
        assert len(dials) == 1

    def test_a_slow_peer_is_waited_out(self, monkeypatch):
        """No ``timeout=``, no deadline: an S that takes a second to
        build its party costs R neither a retransmit nor a reconnect,
        the dial and every read of the run waiting without a timeout."""
        spec = PROTOCOLS["intersection"]

        def slow_sender(*args, **kwargs):
            time.sleep(1.0)
            return spec.make_sender(*args, **kwargs)

        monkeypatch.setitem(
            PROTOCOLS, "intersection",
            dataclasses.replace(spec, make_sender=slow_sender),
        )
        deadlines = set()
        dial = tcp._connect

        class Watched:
            def __init__(self, endpoint):
                self.endpoint = endpoint

            async def recv_within(self, timeout):
                deadlines.add(timeout)
                return await self.endpoint.recv_within(timeout)

            def __getattr__(self, name):
                return getattr(self.endpoint, name)

        def watched(host, port, timeout, wrap=None):
            deadlines.add(timeout)  # the dial's
            return dial(host, port, timeout, Watched)

        monkeypatch.setattr(tcp, "_connect", watched)
        ports: queue.Queue[int] = queue.Queue()
        box: dict = {}
        thread = threading.Thread(target=lambda: box.update(served=repro.serve(
            "intersection", ["b", "c"], bits=64, seed=1,
            ready_callback=ports.put,
        )))
        thread.start()
        connected = repro.connect(
            "intersection", ["a", "b"], seed=2, port=ports.get(timeout=10)
        )
        thread.join(timeout=10)
        assert connected.answer == {"b"}
        assert connected.stats.elapsed_s >= 1.0
        for stats in (connected.stats, box["served"].stats):
            assert stats.reconnects == stats.retransmits == 0
        assert deadlines == {None, math.inf}


def test_a_malformed_session_id_gets_a_typed_reject(tmp_path):
    """S reads the hello before it opens a journal: a session id that
    names no journal is refused, and no file is made for it."""
    ports: queue.Queue[int] = queue.Queue()
    box: dict = {}

    def serve():
        try:
            repro.serve(
                "intersection", ["b", "c"], bits=64, seed=1,
                ready_callback=ports.put, timeout=5.0,
                session=repro.SessionOptions(journal_dir=tmp_path),
            )
        except HandshakeError as exc:
            box["error"] = exc

    thread = threading.Thread(target=serve)
    thread.start()
    endpoint = SocketEndpoint(sock=socket.create_connection(
        ("127.0.0.1", ports.get(timeout=10)), timeout=5.0
    ))
    endpoint.send(seal("hello", SESSION_VERSION, "intersection", "7", 0, 0))
    fields = unseal(endpoint.recv())
    endpoint.close()
    thread.join(timeout=10)
    assert fields == ("reject", SESSION_VERSION, "malformed session id")
    assert "malformed session id" in str(box["error"])
    assert list(tmp_path.iterdir()) == []


def test_both_ends_of_a_session_run_without_nagle():
    """R's dialed socket and every connection S accepts have
    ``TCP_NODELAY`` set: a stop-and-wait frame left to Nagle waits out
    the peer's delayed ack (~40 ms a round trip on Linux)."""
    nodelay = []

    def option(sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def accepted(endpoint):
        nodelay.append(("S", option(endpoint.writer.get_extra_info("socket"))))
        return endpoint

    def dialed(endpoint):
        nodelay.append(("R", option(endpoint.writer.get_extra_info("socket"))))
        return endpoint

    ports: queue.Queue[int] = queue.Queue()
    thread = threading.Thread(target=lambda: tcp.serve_resumable_sender(
        "intersection", ["b", "c"], PublicParams.for_bits(64),
        random.Random(1), ready_callback=ports.put, endpoint_wrapper=accepted,
    ))
    thread.start()
    answer, _stats = tcp.connect_resumable_receiver(
        "intersection", ["a", "b"], random.Random(2), "127.0.0.1",
        ports.get(timeout=10), endpoint_wrapper=dialed,
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert answer == {"b"}
    assert sorted(side for side, on in nodelay if on) == ["R", "S"]


def _run_over_tcp(protocol, v_r, v_s, bits=128, chunk_size=None):
    """Spawn S as a server thread, run R as a client; return both results."""
    port_box: queue.Queue[int] = queue.Queue()
    server_result: dict = {}

    def serve_s():
        server_result["size_v_r"] = repro.serve(
            protocol, v_s, bits=bits, rng=random.Random("s"),
            ready_callback=port_box.put, chunk_size=chunk_size,
        ).size_v_r

    thread = threading.Thread(target=serve_s)
    thread.start()
    port = port_box.get(timeout=10)
    connected = repro.connect(
        protocol, v_r, rng=random.Random("r"), port=port,
        chunk_size=chunk_size,
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert connected.stats.reconnects == connected.stats.retransmits == 0
    return connected.answer, server_result["size_v_r"]


#: ``chunk_size=None`` ships whole-round frames; the chunked runs
#: must produce the same answers over the same schedule.
CHUNKINGS = [None, 4]


@pytest.mark.parametrize("chunk_size", CHUNKINGS)
class TestDistributedIntersection:
    def test_end_to_end(self, chunk_size):
        answer, size_v_r = _run_over_tcp(
            "intersection",
            v_r=["alice", "bob", "carol"],
            v_s=["bob", "carol", "dave", "erin"],
            chunk_size=chunk_size,
        )
        assert answer == {"bob", "carol"}
        assert size_v_r == 3

    def test_disjoint(self, chunk_size):
        answer, _ = _run_over_tcp(
            "intersection", v_r=["a"], v_s=["b"], chunk_size=chunk_size
        )
        assert answer == set()

    def test_larger_run(self, chunk_size):
        v_r = [f"r{i}" for i in range(40)] + [f"c{i}" for i in range(15)]
        v_s = [f"s{i}" for i in range(30)] + [f"c{i}" for i in range(15)]
        answer, size_v_r = _run_over_tcp(
            "intersection", v_r, v_s, chunk_size=chunk_size
        )
        assert answer == {f"c{i}" for i in range(15)}
        assert size_v_r == 55


@pytest.mark.parametrize("chunk_size", CHUNKINGS)
class TestDistributedIntersectionSize:
    def test_end_to_end(self, chunk_size):
        size, size_v_r = _run_over_tcp(
            "intersection-size",
            v_r=["a", "b", "c", "d"],
            v_s=["c", "d", "e"],
            chunk_size=chunk_size,
        )
        assert size == 2
        assert size_v_r == 4

    def test_params_travel_in_handshake(self, chunk_size):
        """The receiver needs no out-of-band parameters: a 64-bit run
        works because the server's welcome carries the modulus."""
        size, _ = _run_over_tcp(
            "intersection-size",
            v_r=["x", "y"],
            v_s=["y"],
            bits=64,
            chunk_size=chunk_size,
        )
        assert size == 1


@pytest.mark.parametrize("chunk_size", CHUNKINGS)
class TestDistributedEquijoin:
    def test_end_to_end(self, chunk_size):
        ext_s = {"b": b"rec-b", "c": b"rec-c", "z": b"rec-z"}
        matches, size_v_r = _run_over_tcp(
            "equijoin",
            v_r=["a", "b", "c"],
            v_s=ext_s,
            chunk_size=chunk_size,
        )
        assert matches == {"b": b"rec-b", "c": b"rec-c"}
        assert size_v_r == 3

    def test_no_matches(self, chunk_size):
        matches, _ = _run_over_tcp(
            "equijoin", v_r=["a"], v_s={"b": b"x"}, chunk_size=chunk_size
        )
        assert matches == {}


@pytest.mark.parametrize("chunk_size", CHUNKINGS)
class TestDistributedEquijoinSize:
    def test_multiset_join_size(self, chunk_size):
        # a matches once (1*1), b matches twice (1*2): join size 3.
        size, size_v_r = _run_over_tcp(
            "equijoin-size",
            v_r=["a", "a", "b", "c"],
            v_s=["a", "b", "b", "e"],
            chunk_size=chunk_size,
        )
        assert size == 2 * 1 + 1 * 2
        assert size_v_r == 4

    def test_agrees_with_driver(self, chunk_size):
        v_r = ["x", "x", "y", "z"]
        v_s = ["x", "y", "y", "w"]
        driver = repro.run("equijoin-size", v_r, v_s, bits=128, seed=5)
        size, _ = _run_over_tcp(
            "equijoin-size", v_r=v_r, v_s=v_s, chunk_size=chunk_size
        )
        assert size == driver.answer


class TestDistributedEquijoinSum:
    def test_sum_over_intersection(self):
        # The 4-round aggregate protocol also runs over the generic
        # drivers (chunked: its big m1/m2 rounds stream, the Paillier
        # rounds stay whole-frame).
        total, size_v_r = _run_over_tcp(
            "equijoin-sum",
            v_r=["a", "b", "c"],
            v_s={"b": 10, "c": 32, "z": 99},
            chunk_size=2,
        )
        assert total == 42
        assert size_v_r == 3


class TestBoundPortReporting:
    def test_port_zero_reports_kernel_assigned_port(self):
        """``port=0`` must hand the ready callback the *actual* bound
        port - the suites depend on it to dial the right address."""
        ports: queue.Queue[int] = queue.Queue()

        def serve_s():
            repro.serve(
                "intersection", ["v"], bits=64, seed=1, port=0,
                ready_callback=ports.put,
            )

        thread = threading.Thread(target=serve_s)
        thread.start()
        port = ports.get(timeout=10)
        assert port != 0
        answer = repro.connect("intersection", ["v"], seed=2, port=port).answer
        thread.join(timeout=10)
        assert answer == {"v"}


def test_a_querying_thread_keeps_one_loop_and_closes_it_when_it_ends():
    """Party R's queries on one thread share the thread's event loop,
    and the loop is closed once the thread is gone."""
    from repro.net.server import ProtocolServer

    loops = []

    def two_queries(port):
        for seed in (1, 2):
            assert repro.connect(
                "intersection", ["a", "b"], seed=seed, port=port,
                session=repro.SessionOptions(),
            ).answer == {"b"}
            loops.append(tcp._loops.held.loop)

    params = PublicParams.for_bits(64)
    with ProtocolServer({"intersection": (["b", "c"], params)}) as server:
        thread = threading.Thread(target=two_queries, args=(server.port,))
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive()
    first, second = loops
    assert first is second
    gc.collect()
    assert first.is_closed()

"""Tests for the fault-tolerant session layer."""

from __future__ import annotations

import os
import random
import socket
import threading

import pytest

import repro
from repro.net.journal import open_session
from repro.net.serialization import encode
from repro.net.session import (
    SESSION_VERSION,
    ClientRetryPolicy,
    HandshakeError,
    RetryPolicy,
    ServerBusyError,
    SessionConfig,
    SessionError,
    SessionStats,
    WorkerLost,
    refusal_retry_hint_s,
    seal,
    unseal,
)
from repro.net.session_core import Link
from repro.net.tcp import SocketEndpoint
from repro.protocols.parties import PublicParams

from .shells import KeptLink, run_core


class TestSeal:
    def test_round_trip(self):
        frame = seal("msg", 3, b"payload")
        assert unseal(frame) == ("msg", 3, b"payload")

    def test_corrupted_field_detected(self):
        frame = seal("msg", 3, b"payload")
        tampered = (frame[0], 4, *frame[2:])
        with pytest.raises(ValueError, match="checksum"):
            unseal(tampered)

    def test_corrupted_payload_detected(self):
        frame = seal("msg", 3, b"payload")
        tampered = (frame[0], frame[1], b"paXload", frame[3])
        with pytest.raises(ValueError, match="checksum"):
            unseal(tampered)

    def test_non_tuple_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            unseal([1, 2, 3])

    def test_non_integer_seal_rejected(self):
        with pytest.raises(ValueError, match="seal"):
            unseal(("msg", "not-a-crc"))

    def test_missing_tag_rejected(self):
        with pytest.raises(ValueError):
            unseal(seal(42, 43))


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_s(a, rng) for a in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=1.0, jitter=0.5)
        rng = random.Random(1)
        for attempt in range(50):
            d = policy.delay_s(attempt, rng)
            assert 0.05 <= d <= 0.1

    def test_seeded_rng_reproducible(self):
        policy = RetryPolicy()
        a = [policy.delay_s(i, random.Random(3)) for i in range(4)]
        b = [policy.delay_s(i, random.Random(3)) for i in range(4)]
        assert a == b


class _ShellLink(Link):
    """A core link whose verbs each run to completion under the asyncio
    shell, on one loop and one endpoint."""

    def send(self, payload):
        self.shell.run(super().send(payload))

    def recv(self):
        return self.shell.run(super().recv())


def _endpoint_pair(timeout_s=0.5, max_attempts=3):
    """A session link facing a raw framed endpoint over a socketpair."""
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(2.0)
    raw_b.settimeout(2.0)
    config = SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=max_attempts, base_delay_s=0.01,
                          max_delay_s=0.02),
    )
    session_side = _ShellLink(config, SessionStats(), random.Random(0))
    session_side.shell = KeptLink(raw_a)
    return session_side, SocketEndpoint(sock=raw_b)


class TestSessionEndpoint:
    def test_send_waits_for_ack(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("ack", 0))  # pre-buffered: the ack awaits the send
        endpoint.send(["data"])
        assert endpoint.send_seq == 1
        frame = unseal(raw.recv())
        assert frame[0] == "msg" and frame[1] == 0

    def test_unacked_send_raises_after_retries(self):
        endpoint, raw = _endpoint_pair(timeout_s=0.05, max_attempts=2)
        with pytest.raises(SessionError, match="unacknowledged"):
            endpoint.send("nobody listens")
        assert endpoint.stats.retransmits == 1
        assert unseal(raw.recv())[1] == 0  # both attempts hit the wire
        assert unseal(raw.recv())[1] == 0

    def test_recv_acks_in_order_frame(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("msg", 0, encode(("k", 1))))
        assert endpoint.recv() == ("k", 1)
        assert unseal(raw.recv()) == ("ack", 0)
        assert endpoint.stats.frames_received == 1

    def test_duplicate_reacked_and_discarded(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("msg", 0, encode("first")))
        raw.send(seal("msg", 0, encode("first")))  # retransmitted dup
        raw.send(seal("msg", 1, encode("second")))
        assert endpoint.recv() == "first"
        assert endpoint.recv() == "second"
        assert endpoint.stats.duplicates_discarded == 1
        acks = [unseal(raw.recv()) for _ in range(3)]
        assert acks == [("ack", 0), ("ack", 0), ("ack", 1)]

    def test_garbled_frame_naked_then_recovered(self):
        endpoint, raw = _endpoint_pair()
        good = seal("msg", 0, encode("payload"))
        raw.send((good[0], good[1], b"damaged!", good[3]))
        raw.send(good)
        assert endpoint.recv() == "payload"
        assert endpoint.stats.checksum_failures == 1
        assert endpoint.stats.naks_sent == 1
        assert unseal(raw.recv()) == ("nak", -1)
        assert unseal(raw.recv()) == ("ack", 0)

    def test_out_of_order_frame_raises(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("msg", 5, encode("from the future")))
        with pytest.raises(SessionError, match="out-of-order"):
            endpoint.recv()

    def test_sealed_but_undecodable_payload_raises(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("msg", 0, b"\xffnot wire format"))
        with pytest.raises(SessionError, match="failed to\\s+decode"):
            endpoint.recv()

    def test_data_frame_is_implicit_ack(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("msg", 0, encode("reply")))  # peer already progressed
        endpoint.send("request")
        assert endpoint.stats.implicit_acks == 1
        assert endpoint.recv() == "reply"  # buffered, not re-read

    def test_recv_times_out_with_session_error(self):
        endpoint, _raw = _endpoint_pair(timeout_s=0.05, max_attempts=2)
        with pytest.raises(SessionError, match="timed out"):
            endpoint.recv()

    def test_nak_triggers_retransmit(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("nak", 0))
        raw.send(seal("ack", 0))
        endpoint.send("payload")
        assert endpoint.stats.retransmits == 1
        frames = [unseal(raw.recv()) for _ in range(2)]
        assert [f[1] for f in frames] == [0, 0]


def _handshake_config():
    return SessionConfig(
        timeout_s=0.2,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01,
                          max_delay_s=0.02),
        max_reconnects=1,
        fin_grace_s=0.05,
    )


def _handshake(server, transport):
    """One handshake on an already-open transport."""
    return run_core(server.handshake(), transport=transport)


class TestHandshake:
    def _server_session(self):
        return open_session(
            "sender", "intersection", lambda: None,
            params=PublicParams.for_bits(64),
            config=_handshake_config(), rng=random.Random(0),
        )[0]

    def test_version_mismatch_rejected(self):
        raw_a, raw_b = socket.socketpair()
        raw_a.settimeout(1.0)
        raw_b.settimeout(1.0)
        server = self._server_session()
        client = SocketEndpoint(sock=raw_b)
        client.send(seal("hello", 99, "intersection", 1, 0, 0))
        with pytest.raises(HandshakeError, match="version"):
            _handshake(server, raw_a)
        reject = unseal(client.recv())
        assert reject[0] == "reject"

    def test_protocol_mismatch_rejected(self):
        raw_a, raw_b = socket.socketpair()
        raw_a.settimeout(1.0)
        raw_b.settimeout(1.0)
        server = self._server_session()
        client = SocketEndpoint(sock=raw_b)
        client.send(
            seal("hello", SESSION_VERSION, "equijoin", 1, 0, 0)
        )
        with pytest.raises(HandshakeError, match="protocol|equijoin"):
            _handshake(server, raw_a)
        assert unseal(client.recv())[0] == "reject"

    def test_valid_hello_answered_with_welcome(self):
        raw_a, raw_b = socket.socketpair()
        raw_a.settimeout(1.0)
        raw_b.settimeout(1.0)
        server = self._server_session()
        client = SocketEndpoint(sock=raw_b)
        client.send(seal("hello", SESSION_VERSION, "intersection", 77, 0, 0))
        endpoint, next_recv = _handshake(server, raw_a)
        assert next_recv == 0
        welcome = unseal(client.recv())
        assert welcome[0] == "welcome"
        assert welcome[2] == "intersection"
        assert welcome[3] == 77
        assert PublicParams.from_wire(tuple(welcome[4])) == server.params

    def test_implausible_cursor_rejected(self):
        raw_a, raw_b = socket.socketpair()
        raw_a.settimeout(1.0)
        raw_b.settimeout(1.0)
        server = self._server_session()
        client = SocketEndpoint(sock=raw_b)
        client.send(seal("hello", SESSION_VERSION, "intersection", 1, 0, 5))
        with pytest.raises(SessionError, match="cursor"):
            _handshake(server, raw_a)

    def test_garbled_hello_absorbed_then_accepted(self):
        """A corrupted hello does not kill the connection: the server
        waits for a valid retransmission."""
        raw_a, raw_b = socket.socketpair()
        raw_a.settimeout(1.0)
        raw_b.settimeout(1.0)
        server = self._server_session()
        client = SocketEndpoint(sock=raw_b)
        good = seal("hello", SESSION_VERSION, "intersection", 5, 0, 0)
        client.send((good[0], 99, *good[2:]))  # fails the checksum
        client.send(good)
        _endpoint, next_recv = _handshake(server, raw_a)
        assert next_recv == 0
        assert server.stats.checksum_failures == 1


class TestResumableEndToEnd:
    def test_full_tcp_run_clean(self):
        from repro.net.tcp import (
            connect_resumable_receiver,
            serve_resumable_sender,
        )

        config = _handshake_config()
        params = PublicParams.for_bits(128)
        ready = threading.Event()
        box: dict = {}

        def serve():
            box["server"] = serve_resumable_sender(
                "intersection",
                ["b", "c", "d"],
                params,
                random.Random(1),
                ready_callback=lambda port: (
                    box.__setitem__("port", port), ready.set()
                ),
                config=config,
            )

        thread = threading.Thread(target=serve)
        thread.start()
        assert ready.wait(timeout=5)
        answer, stats = connect_resumable_receiver(
            "intersection",
            ["a", "b", "c"],
            random.Random(2),
            "127.0.0.1",
            box["port"],
            config=config,
        )
        thread.join(timeout=5)
        assert not thread.is_alive()
        size_v_r, server_stats = box["server"]
        assert answer == {"b", "c"}
        assert size_v_r == 3
        assert stats.reconnects == 0
        assert server_stats.rounds_computed == 1
        assert stats.rounds_computed == 1

    def test_protocol_mismatch_over_tcp(self):
        from repro.net.tcp import (
            connect_resumable_receiver,
            serve_resumable_sender,
        )

        config = _handshake_config()
        params = PublicParams.for_bits(64)
        ready = threading.Event()
        box: dict = {}

        def serve():
            try:
                serve_resumable_sender(
                    "intersection",
                    ["a"],
                    params,
                    random.Random(1),
                    ready_callback=lambda port: (
                        box.__setitem__("port", port), ready.set()
                    ),
                    config=config,
                )
            except HandshakeError as exc:
                box["error"] = exc

        thread = threading.Thread(target=serve)
        thread.start()
        assert ready.wait(timeout=5)
        with pytest.raises(HandshakeError):
            connect_resumable_receiver(
                "equijoin-size",
                ["a"],
                random.Random(2),
                "127.0.0.1",
                box["port"],
                config=config,
            )
        thread.join(timeout=5)
        assert isinstance(box.get("error"), HandshakeError)

    def test_unknown_protocol_name_rejected_locally(self):
        from repro.net.tcp import connect_resumable_receiver

        with pytest.raises(ValueError, match="unknown protocol"):
            connect_resumable_receiver(
                "set-union", ["a"], random.Random(0), "127.0.0.1", 1
            )

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_failed_run_leaves_no_journal_handle_open(self, tmp_path):
        """A journaled run that gives up (the peer drops every
        connection) must close its ``*.wal`` - a redial opens the same
        file again - while the failure (and the frames its traceback
        holds) is still alive."""
        from repro.net.tcp import connect_resumable_receiver

        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up_on_everyone():
            try:
                while True:
                    listener.accept()[0].close()
            except OSError:
                pass  # listener closed: the test is over

        threading.Thread(target=hang_up_on_everyone, daemon=True).start()
        with pytest.raises(SessionError) as failure:
            connect_resumable_receiver(
                "intersection", ["a"], random.Random(2), "127.0.0.1",
                listener.getsockname()[1], config=_handshake_config(),
                journal_dir=tmp_path,
            )
        listener.close()
        held = [os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")]
        assert [p for p in held if p.startswith(str(tmp_path))] == []
        assert list(tmp_path.glob("receiver-intersection-*.wal"))  # it was journaled
        assert "gave up" in str(failure.value)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_failed_run_with_work_ahead_leaves_no_handle_and_no_thread(
        self, tmp_path
    ):
        """S welcomes a client, starts its own-set step in the
        background, and the client never speaks again: the run gives
        up holding no ``*.wal`` handle, and no thread of the run outlives
        it - nothing a process exit waits for."""
        from repro.net.tcp import serve_resumable_sender

        def hello_then_vanish(port):
            def client():
                with socket.create_connection(("127.0.0.1", port)) as sock:
                    endpoint = SocketEndpoint(sock=sock)
                    endpoint.send(
                        seal("hello", SESSION_VERSION, "intersection", 9, 0, 0)
                    )
                    assert unseal(endpoint.recv())[0] == "welcome"

            threading.Thread(target=client, daemon=True).start()

        with pytest.raises(SessionError, match="gave up"):
            serve_resumable_sender(
                "intersection", [f"v{i}" for i in range(50)],
                PublicParams.for_bits(128), random.Random(1),
                config=_handshake_config(), ready_callback=hello_then_vanish,
                journal_dir=tmp_path,
            )
        held = [os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")]
        assert [p for p in held if p.startswith(str(tmp_path))] == []
        assert list(tmp_path.glob("sender-intersection-*.wal"))
        assert [
            t for t in threading.enumerate()
            if not t.daemon and t is not threading.main_thread()
        ] == []

    def test_wrapper_failure_closes_the_resumable_drivers_socket(self):
        """``endpoint_wrapper`` raising on a dialed or an accepted
        connection must not leak the socket it was handed."""
        from repro.net.tcp import (
            connect_resumable_receiver,
            serve_resumable_sender,
        )

        handed = []

        def wrapper(endpoint):
            handed.append(endpoint)
            raise RuntimeError("wrapper failed")

        listener = socket.create_server(("127.0.0.1", 0))
        with pytest.raises(RuntimeError, match="wrapper failed"):
            connect_resumable_receiver(
                "intersection", ["a"], random.Random(2), "127.0.0.1",
                listener.getsockname()[1], endpoint_wrapper=wrapper,
            )
        listener.close()
        with pytest.raises(RuntimeError, match="wrapper failed"):
            serve_resumable_sender(
                "intersection", ["a"], PublicParams.for_bits(64),
                random.Random(1), config=_handshake_config(),
                ready_callback=lambda port: socket.create_connection(
                    ("127.0.0.1", port)
                ).close(),
                endpoint_wrapper=wrapper,
            )
        dialed, accepted = handed
        assert dialed.writer.get_extra_info("socket").fileno() == -1
        assert accepted.writer.get_extra_info("socket").fileno() == -1


# ----------------------------------------------------------------------
# The unified client retry policy and the typed worker-lost refusal
# ----------------------------------------------------------------------
class TestClientRetryPolicy:
    def test_parse_full_spec(self):
        policy = ClientRetryPolicy.parse(
            "attempts=4,timeout=1.5,deadline=30,base=0.1,multiplier=3,"
            "max-delay=1,jitter=0.25,busy=no,worker-lost=yes"
        )
        assert policy.max_attempts == 4
        assert policy.attempt_timeout_s == 1.5
        assert policy.total_deadline_s == 30.0
        assert policy.backoff == RetryPolicy(
            base_delay_s=0.1, multiplier=3.0, max_delay_s=1.0, jitter=0.25
        )
        assert policy.retry_busy is False
        assert policy.retry_worker_lost is True

    def test_parse_defaults_and_whitespace(self):
        assert ClientRetryPolicy.parse("") == ClientRetryPolicy()
        assert (
            ClientRetryPolicy.parse(" attempts=2 , busy=TRUE ")
            == ClientRetryPolicy(max_attempts=2, retry_busy=True)
        )

    @pytest.mark.parametrize("raw,expected", [
        ("yes", True), ("no", False), ("true", True), ("false", False),
        ("1", True), ("0", False),
    ])
    def test_parse_bool_spellings(self, raw, expected):
        policy = ClientRetryPolicy.parse(f"worker-lost={raw}")
        assert policy.retry_worker_lost is expected

    @pytest.mark.parametrize("spec,match", [
        ("retries=3", "unknown retry-policy key"),
        ("attempts", "not key=value"),
        ("attempts=lots", "wants a number"),
        ("busy=maybe", "wants yes/no"),
    ])
    def test_parse_rejections(self, spec, match):
        with pytest.raises(ValueError, match=match):
            ClientRetryPolicy.parse(spec)

    @pytest.mark.parametrize("spec,name", [
        ("jitter=1.5", "jitter"),
        ("jitter=-0.1", "jitter"),
        ("base=-0.5", "base_delay_s"),
        ("max-delay=-1", "max_delay_s"),
        ("multiplier=0", "multiplier"),
        ("attempts=0", "max_attempts"),
        ("timeout=0", "attempt_timeout_s"),
        ("deadline=-1", "total_deadline_s"),
    ])
    def test_parse_refuses_values_out_of_range(self, spec, name):
        with pytest.raises(ValueError, match=f"\\.{name} must be"):
            ClientRetryPolicy.parse(spec)

    def test_construction_refuses_values_out_of_range(self):
        with pytest.raises(ValueError, match="RetryPolicy.jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="RetryPolicy.max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="ClientRetryPolicy.max_attempts"):
            ClientRetryPolicy(max_attempts=0)
        ClientRetryPolicy(total_deadline_s=0.0, backoff=RetryPolicy(
            base_delay_s=0.0, max_delay_s=0.0, jitter=1.0
        ))  # every limit is inclusive where it says so

    def test_a_policy_at_its_limits_gives_up_with_a_session_error(self):
        """Jitter 1 and no base delay are in range: every backoff sleep
        is non-negative, so a dead port ends in the typed give-up."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(SessionError, match="gave up"):
            repro.connect(
                "intersection", ["a"], port=port, seed=1,
                retry="attempts=2,jitter=1,base=0",
                session=repro.SessionOptions(),
            )

    def test_retryable_routes_by_exception_and_toggle(self):
        policy = ClientRetryPolicy()
        assert policy.retryable(ServerBusyError("busy"))
        assert policy.retryable(WorkerLost("lost"))
        assert not policy.retryable(SessionError("generic"))
        assert not policy.retryable(HandshakeError("rejected"))
        off = ClientRetryPolicy(retry_busy=False, retry_worker_lost=False)
        assert not off.retryable(ServerBusyError("busy"))
        assert not off.retryable(WorkerLost("lost"))

    def test_backoff_without_hint_is_subtractive_exponential(self):
        policy = ClientRetryPolicy(backoff=RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.5
        ))
        rng = random.Random(7)
        for attempt, raw in enumerate([0.1, 0.2, 0.4, 0.5, 0.5]):
            delay = policy.backoff_s(attempt, rng)
            assert raw * 0.5 <= delay <= raw  # jitter only shortens

    def test_backoff_with_hint_never_undercuts_the_server(self):
        """A server hint is a promise of unavailability: the sleep may
        stretch past it (jitter de-syncs the herd) but never dips
        below it."""
        policy = ClientRetryPolicy(
            backoff=RetryPolicy(base_delay_s=0.01, jitter=0.5)
        )
        rng = random.Random(11)
        for attempt in range(5):
            delay = policy.backoff_s(attempt, rng, hint_s=0.3)
            assert 0.3 <= delay <= 0.3 * 1.5 + policy.backoff.max_delay_s

    def test_session_config_mirrors_the_policy(self):
        shape = RetryPolicy(
            base_delay_s=0.03, multiplier=4.0, max_delay_s=0.7, jitter=0.1
        )
        policy = ClientRetryPolicy(
            max_attempts=5, attempt_timeout_s=1.25, backoff=shape
        )
        config = policy.session_config()
        assert config.timeout_s == 1.25
        assert config.max_reconnects == 5
        assert config.retry is shape
        override = policy.session_config(fin_grace_s=0.01)
        assert override.fin_grace_s == 0.01


class TestRefusalRetryHint:
    def test_integer_ms_hint_converts_to_seconds(self):
        fields = unseal(seal("worker-lost", SESSION_VERSION, "gone", 250))
        assert refusal_retry_hint_s(fields) == 0.25

    @pytest.mark.parametrize("hint", [True, -5, "soon", 0.25])
    def test_malformed_hints_read_as_none(self, hint):
        # Built directly: the wire format cannot even carry some of
        # these (no floats), but a hostile peer can hand-craft them.
        fields = ("busy", SESSION_VERSION, "full", hint)
        assert refusal_retry_hint_s(fields) is None

    def test_three_field_frame_has_no_hint(self):
        fields = unseal(seal("worker-lost", SESSION_VERSION, "gone"))
        assert refusal_retry_hint_s(fields) is None


class TestWorkerLostFrames:
    """The endpoint's receipt of the sharded front end's typed notice."""

    def test_worker_lost_during_recv_raises_typed_with_hint(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("worker-lost", SESSION_VERSION, "shard 0 died", 120))
        with pytest.raises(WorkerLost) as excinfo:
            endpoint.recv()
        assert excinfo.value.retry_after_s == 0.12
        assert endpoint.stats.worker_lost == 1

    def test_worker_lost_during_send_raises_typed(self):
        endpoint, raw = _endpoint_pair()
        raw.send(seal("worker-lost", SESSION_VERSION, "shard 0 died"))
        with pytest.raises(WorkerLost) as excinfo:
            endpoint.send(["data"])
        assert excinfo.value.retry_after_s is None

    def test_worker_lost_is_retryable_not_a_handshake_reject(self):
        """WorkerLost must stay outside the HandshakeError hierarchy:
        reconnect loops treat a handshake reject as final, while a
        lost worker is exactly the failure a reconnect can heal."""
        assert issubclass(WorkerLost, SessionError)
        assert not issubclass(WorkerLost, HandshakeError)

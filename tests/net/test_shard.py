"""Unit tests for the sharded front end (:mod:`repro.net.shard`).

The router's contract: a client cannot tell a sharded server from a
flat one; the session id in the hello deterministically picks the
worker (``sid % shards``), so reconnects land on the journal that owns
them; garbage that never produces a hello is dropped without touching
a worker; drain collects every worker's results tagged by shard.
"""

from __future__ import annotations

import random
import socket
import struct
import time

import pytest

from repro.analysis.instrumentation import MetricsRecorder
from repro.net import tcp
from repro.net.journal import open_session
from repro.net.serialization import encode
from repro.net.session import (
    SESSION_VERSION,
    RetryPolicy,
    SessionConfig,
    refusal_retry_hint_s,
    seal,
    unseal,
)
from repro.net.shard import ShardedProtocolServer
from repro.protocols.parties import PublicParams

from .shells import run_core

BITS = 128


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _offers(params):
    return {"intersection": (["b", "c", "x"], params)}


def _config(timeout_s=2.0, max_reconnects=8):
    return SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=max_reconnects,
        fin_grace_s=0.05,
    )


def _session(port, seed, config=None):
    """One resumable client run through the router."""
    session, _ = open_session(
        "receiver", "intersection",
        lambda wire: _make_receiver(wire, seed),
        config=config or _config(),
        rng=random.Random(seed),
    )
    answer = run_core(
        session.steps(), lambda: tcp._connect("127.0.0.1", port, 5.0)
    )
    return answer, session


def _make_receiver(params_wire, seed):
    from repro.protocols.spec import get_spec

    return get_spec("intersection").make_receiver(
        ["a", "b", "c"],
        PublicParams.from_wire(tuple(params_wire)),
        random.Random(seed),
    )


class TestRouting:
    def test_sessions_land_on_sid_mod_shards(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=2, config=_config(), max_sessions=4
        ) as server:
            sessions = []
            for seed in range(4):
                answer, session = _session(server.port, seed)
                assert sorted(answer) == ["b", "c"]
                sessions.append(session)
        # Workers report their results at drain: every session id must
        # sit on exactly the worker its id selects.
        rows = server.results()
        by_sid = {row["session_id"]: row["shard"] for row in rows}
        assert len(by_sid) == 4
        for session in sessions:
            assert by_sid[session.session_id] == session.session_id % 2

    def test_reconnect_routes_back_to_the_owning_worker(self, params):
        """A mid-run disconnect redials through the router and must
        resume on the same worker (same sid, same journal owner)."""
        with ShardedProtocolServer(
            _offers(params), shards=3, config=_config(), max_sessions=4
        ) as server:
            session, _ = open_session(
                "receiver", "intersection",
                lambda wire: _make_receiver(wire, 99),
                config=_config(),
                rng=random.Random(99),
            )
            dials = {"count": 0}

            async def flaky_dial():
                dials["count"] += 1
                endpoint = await tcp._connect("127.0.0.1", server.port, 5.0)
                if dials["count"] == 1:
                    # Kill the first connection right after the
                    # handshake frames land.
                    original_recv = endpoint.recv_within

                    async def recv_once_then_die(timeout):
                        await original_recv(timeout)
                        await endpoint.close()
                        raise ConnectionError("injected drop")

                    endpoint.recv_within = recv_once_then_die
                return endpoint

            answer = run_core(session.steps(), flaky_dial)
            assert sorted(answer) == ["b", "c"]
            assert dials["count"] >= 2  # it really did reconnect
        mine = [
            r for r in server.results()
            if r["session_id"] == session.session_id
        ]
        assert len(mine) == 1  # one record total: both dials, one worker
        assert mine[0]["status"] == "done"
        assert mine[0]["shard"] == session.session_id % 3

    def test_garbage_connection_is_dropped_without_workers(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(timeout_s=0.3), max_sessions=2,
        ) as server:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            # Not even wire format: the router closes the connection.
            sock.sendall(struct.pack(">I", 4) + b"\xff\xff\xff\xff")
            sock.settimeout(2.0)
            assert sock.recv(1024) == b""
            sock.close()
            deadline = time.monotonic() + 2.0
            while server.refused_unroutable == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert server.results() == []  # reported at drain: no session

    def test_sealed_garbage_before_hello_is_forwarded(self, params):
        """A garbled-seal frame then a valid hello still gets served -
        the router hands pre-hello frames over with the connection."""
        with ShardedProtocolServer(
            _offers(params), shards=2, config=_config(), max_sessions=2
        ) as server:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            endpoint = tcp.SocketEndpoint(sock=sock)
            bad = encode(("hello", "garbled", "no-seal"))
            sock.sendall(struct.pack(">I", len(bad)) + bad)
            endpoint.send(
                seal("hello", SESSION_VERSION, "intersection", 6, 0, 0)
            )
            endpoint.sock.settimeout(5.0)
            frame = endpoint.recv()
            assert frame[0] == "welcome"
            endpoint.close()

    def test_malformed_session_id_is_rejected_like_the_worker_does(
        self, params
    ):
        """A hello the router cannot route gets the typed reject a
        worker would send, not silence and a close."""
        with ShardedProtocolServer(
            _offers(params), shards=2, config=_config(), max_sessions=2
        ) as server:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            endpoint = tcp.SocketEndpoint(sock=sock)
            endpoint.send(
                seal("hello", SESSION_VERSION, "intersection", "7", 0, 0)
            )
            endpoint.sock.settimeout(5.0)
            fields = unseal(endpoint.recv())
            endpoint.close()
            assert fields[:3] == ("reject", SESSION_VERSION,
                                  "malformed session id")
            assert server.refused_unroutable == 1
        assert server.results() == []  # reported at drain: no session


class TestProcessWorkers:
    def test_forked_workers_serve_and_report_results(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=4,
        ) as server:
            answers = [
                sorted(_session(server.port, seed)[0]) for seed in range(3)
            ]
        assert answers == [["b", "c"]] * 3
        rows = server.results()  # reported by workers at drain
        assert len(rows) == 3
        assert all(row["status"] == "done" for row in rows)
        assert {row["shard"] for row in rows} <= {0, 1}

    def test_shutdown_is_idempotent_and_joins_workers(self, params):
        server = ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=2,
        ).start()
        _session(server.port, 7)
        server.shutdown(drain_timeout_s=2.0)
        server.shutdown(drain_timeout_s=2.0)
        assert server.wait_closed(timeout=5)
        assert all(not s.process.is_alive() for s in server._shards)


class TestValidation:
    def test_rejects_zero_shards(self, params):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedProtocolServer(_offers(params), shards=0)

    def test_port_before_start_raises(self, params):
        server = ShardedProtocolServer(_offers(params), shards=1)
        with pytest.raises(RuntimeError, match="not started"):
            server.port

    def test_in_process_workers_are_refused(self, params):
        with pytest.raises(ValueError, match="forked"):
            ShardedProtocolServer(_offers(params), worker_processes=False)

    def test_a_recorder_is_refused_not_dropped(self, params):
        """A forked worker's recorder is a copy nobody reads back."""
        with pytest.raises(TypeError, match="recorder"):
            ShardedProtocolServer(_offers(params), recorder=MetricsRecorder())


def _wait_for(predicate, timeout_s=15.0, interval_s=0.02, what="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(interval_s)


def _raw_hello(port, session_id):
    """Dial the front end and send a bare valid hello."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    endpoint = tcp.SocketEndpoint(sock=sock)
    endpoint.sock.settimeout(5.0)
    endpoint.send(
        seal("hello", SESSION_VERSION, "intersection", session_id, 0, 0)
    )
    return sock, endpoint


class TestSupervision:
    """The self-healing loop: death detection, typed refusals, respawn
    with journal takeover, hang detection, budget exhaustion, drain."""

    def test_killed_worker_respawns_and_serves_again(
        self, params, tmp_path
    ):
        with ShardedProtocolServer(
            _offers(params), shards=1,
            config=_config(), max_sessions=4,
            journal_dir=tmp_path, journal_fsync=False,
            heartbeat_s=0.05, respawn_backoff_s=0.4, restart_budget=4,
        ) as server:
            answer, _ = _session(server.port, 1)
            assert sorted(answer) == ["b", "c"]
            (row,) = server.health()
            old_pid = row["pid"]
            assert row["state"] == "alive" and row["restarts"] == 0

            assert server.kill_worker(0) == old_pid
            _wait_for(
                lambda: server.health()[0]["state"] in ("dead", "respawning"),
                what="the supervisor to notice the corpse",
            )
            # A hello routed at the downed shard gets a typed,
            # hint-carrying worker-lost frame, not a raw close.
            sock, endpoint = _raw_hello(server.port, session_id=4)
            fields = unseal(endpoint.recv())
            assert fields[0] == "worker-lost"
            assert refusal_retry_hint_s(fields) is not None
            sock.close()

            _wait_for(
                lambda: (
                    server.health()[0]["state"] == "alive"
                    and server.health()[0]["restarts"] >= 1
                ),
                what="the respawn",
            )
            (row,) = server.health()
            assert row["pid"] != old_pid
            answer, _ = _session(server.port, 2)
            assert sorted(answer) == ["b", "c"]
        assert server.worker_deaths >= 1
        assert server.respawns >= 1
        assert server.worker_lost_notices >= 1

    def test_mid_session_worker_loss_is_typed_then_clean_eof(
        self, params
    ):
        """The handoff contract: a worker killed mid-session reaches
        the client as a typed worker-lost frame followed by a clean
        EOF - never as a raw ``ConnectionResetError``."""
        with ShardedProtocolServer(
            _offers(params), shards=1,
            config=_config(), max_sessions=4,
            heartbeat_s=0.05, respawn_backoff_s=0.05, restart_budget=4,
        ) as server:
            sock, endpoint = _raw_hello(server.port, session_id=9)
            fields = unseal(endpoint.recv())
            assert fields[0] == "welcome"  # handed over to a worker
            assert server.kill_worker(0) is not None
            deadline = time.monotonic() + 10.0
            while True:
                assert time.monotonic() < deadline
                fields = unseal(endpoint.recv())
                if fields[0] == "worker-lost":
                    break
            assert len(fields) in (3, 4)
            assert refusal_retry_hint_s(fields) is not None
            # After the typed notice: clean EOF, not a reset.
            sock.settimeout(5.0)
            assert sock.recv(65536) == b""
            sock.close()
        assert server.worker_lost_notices >= 1

    def test_wedged_worker_is_killed_and_respawned(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=1,
            config=_config(), max_sessions=4,
            heartbeat_s=0.05, heartbeat_timeout_s=0.25,
            respawn_backoff_s=0.05, restart_budget=4,
        ) as server:
            (row,) = server.health()
            old_pid = row["pid"]
            # Wedge far past the missed-heartbeat deadline: the worker
            # stops heartbeating but would otherwise keep running.
            assert server.wedge_worker(0, 30.0)
            _wait_for(
                lambda: server.hung_workers >= 1,
                what="the hang to be declared",
            )
            _wait_for(
                lambda: (
                    server.health()[0]["state"] == "alive"
                    and server.health()[0]["pid"] != old_pid
                ),
                what="the respawn after the hang",
            )
            answer, _ = _session(server.port, 5)
            assert sorted(answer) == ["b", "c"]
        assert server.hung_workers == 1
        assert server.worker_deaths >= 1

    def test_budget_exhaustion_degrades_only_that_shard(self, params):
        with ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=4,
            heartbeat_s=0.05, respawn_backoff_s=0.05, restart_budget=0,
        ) as server:
            assert server.kill_worker(0) is not None
            _wait_for(
                lambda: server.health()[0]["state"] == "failed",
                what="shard 0 to exhaust its budget",
            )
            # Shard 0 (even session ids): typed permanent reject.
            sock, endpoint = _raw_hello(server.port, session_id=6)
            fields = unseal(endpoint.recv())
            assert fields[0] == "reject"
            assert "restart budget" in fields[2]
            sock.close()
            # Shard 1 (odd session ids): business as usual.
            sock, endpoint = _raw_hello(server.port, session_id=7)
            assert unseal(endpoint.recv())[0] == "welcome"
            sock.close()
            assert server.refused_failed >= 1
            assert server.respawns == 0  # budget 0 = never respawn

    def test_drain_reaps_dead_workers_without_hanging(self, params):
        server = ShardedProtocolServer(
            _offers(params), shards=2,
            config=_config(), max_sessions=2,
            heartbeat_s=0.05, respawn_backoff_s=0.05, restart_budget=0,
        ).start()
        assert server.kill_worker(0) is not None
        _wait_for(
            lambda: server.health()[0]["state"] == "failed",
            what="shard 0 to fail",
        )
        started = time.monotonic()
        server.shutdown(drain_timeout_s=1.0)
        assert time.monotonic() - started < 15.0  # no control-pipe hang
        assert server.wait_closed(timeout=5)
        assert all(not s.process.is_alive() for s in server._shards)
        states = {r["shard"]: r["state"] for r in server.drain_report}
        assert states == {0: "failed", 1: "drained"}

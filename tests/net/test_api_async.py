"""The facade's async serving and busy-retry surface (``repro.api``).

``repro.serve(async_=True)`` hosts the one-session run on the
event-loop server; ``repro.connect(retry=...)`` waits out typed busy
refusals with the server's own retry hint (jittered upward, never
earlier). Both must compose with the plain facade paths and return
the same typed results.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest

import repro
from repro.net import tcp
from repro.net.server import ProtocolServer
from repro.net.session import (
    SESSION_VERSION,
    RetryPolicy,
    SessionConfig,
    seal,
)
from repro.protocols.parties import PublicParams

BITS = 128


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _config(timeout_s=5.0):
    return SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.02, max_delay_s=0.1),
        max_reconnects=4,
        fin_grace_s=0.05,
    )


class TestServeAsync:
    def test_one_session_round_trip(self):
        v_r, v_s = ["a", "b", "c", "d"], ["b", "c", "x"]
        port_ready = threading.Event()
        bound, result = {}, {}

        def serve():
            result["serve"] = repro.serve(
                "intersection", v_s, bits=BITS, seed=1, async_=True,
                ready_callback=lambda p: (bound.update(port=p),
                                          port_ready.set()),
                config=_config(),
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert port_ready.wait(10)
        connected = repro.connect(
            "intersection", v_r, seed=2, port=bound["port"],
            session=repro.SessionOptions(), config=_config(),
        )
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert sorted(connected.answer) == ["b", "c"]
        assert connected.busy_retries == 0
        serve_result = result["serve"]
        assert serve_result.port == bound["port"] != 0
        assert serve_result.size_v_r == len(set(v_r))
        assert serve_result.stats.frames_sent > 0

    def test_journaled_async_serve_rotates_the_journal(self, tmp_path):
        v_r, v_s = ["a", "b"], ["b", "z"]
        port_ready = threading.Event()
        bound = {}

        def serve():
            repro.serve(
                "intersection", v_s, bits=BITS, seed=3, async_=True,
                session=repro.SessionOptions(journal_dir=tmp_path),
                ready_callback=lambda p: (bound.update(port=p),
                                          port_ready.set()),
                config=_config(),
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert port_ready.wait(10)
        connected = repro.connect(
            "intersection", v_r, seed=4, port=bound["port"],
            session=repro.SessionOptions(), config=_config(),
        )
        thread.join(timeout=15)
        assert sorted(connected.answer) == ["b"]
        assert list(tmp_path.glob("*.wal")) == []
        assert len(list(tmp_path.glob("sender-intersection-*.done"))) == 1


class TestConnectRetryBusy:
    def test_waits_out_busy_and_lands_when_the_slot_frees(self, params):
        """A full 1-slot server refuses with a hint; a ``retry`` spec
        string keeps redialing (never sooner than the hint) and
        succeeds once the reaper frees the slot."""
        server = ProtocolServer(
            {"intersection": (["b", "c", "x"], params)},
            config=_config(),
            max_sessions=1,
            busy_retry_hint_s=0.05,
            idle_timeout_s=0.4,
        )
        with server:
            # Occupy the only slot: valid hello, then silence.
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            holder = tcp.SocketEndpoint(sock=sock)
            holder.send(
                seal("hello", SESSION_VERSION, "intersection", 77, 0, 0)
            )
            connected = repro.connect(
                "intersection", ["a", "b", "c"], seed=5, port=server.port,
                session=repro.SessionOptions(), config=_config(),
                retry="attempts=41,base=0.001,max-delay=0.001",
            )
            holder.close()
        assert sorted(connected.answer) == ["b", "c"]
        assert connected.busy_retries >= 1


class TestConnectUnifiedRetry:
    """``repro.connect(retry=...)``: the unified policy surface."""

    def test_policy_spec_string_connects_and_counts_attempts(self, params):
        server = ProtocolServer(
            {"intersection": (["b", "c", "x"], params)},
            config=_config(),
        )
        with server:
            connected = repro.connect(
                "intersection", ["a", "b", "c"], seed=5, port=server.port,
                session=repro.SessionOptions(),
                retry="attempts=4,timeout=5,base=0.02",
            )
        assert sorted(connected.answer) == ["b", "c"]
        assert connected.retries == 0  # first attempt landed
        assert connected.busy_retries == 0

    def test_policy_waits_out_busy_and_lands(self, params):
        """A policy *object*: the full 1-slot server refuses with a
        hint and the policy redials until the reaper frees the slot,
        counting every redial and the busy ones among them."""
        from repro.net.session import ClientRetryPolicy

        server = ProtocolServer(
            {"intersection": (["b", "c", "x"], params)},
            config=_config(),
            max_sessions=1,
            busy_retry_hint_s=0.05,
            idle_timeout_s=0.4,
        )
        with server:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            holder = tcp.SocketEndpoint(sock=sock)
            holder.send(
                seal("hello", SESSION_VERSION, "intersection", 77, 0, 0)
            )
            connected = repro.connect(
                "intersection", ["a", "b", "c"], seed=5, port=server.port,
                session=repro.SessionOptions(), config=_config(),
                retry=ClientRetryPolicy(
                    max_attempts=40, base_delay_s=0.02, max_delay_s=0.2
                ),
            )
            holder.close()
        assert sorted(connected.answer) == ["b", "c"]
        assert connected.busy_retries >= 1
        assert connected.retries >= 1

    def test_policy_with_busy_off_fails_fast(self, params):
        from repro.net.session import ServerBusyError

        server = ProtocolServer(
            {"intersection": (["b", "c", "x"], params)},
            config=_config(),
        )
        with server:
            server._draining.set()
            with pytest.raises(ServerBusyError):
                repro.connect(
                    "intersection", ["a", "b"], seed=5, port=server.port,
                    session=repro.SessionOptions(),
                    retry="busy=no,timeout=2",
                )

"""The facade's client against the event-loop server (``repro.api``).

``repro.connect(session=...)`` completes against a
:class:`~repro.net.server.ProtocolServer` (which journals and rotates
like the one-shot sender), and ``repro.connect(retry=...)`` waits out
typed busy refusals with the server's own retry hint (jittered upward,
never earlier), returning the same typed results as the plain paths.
"""

from __future__ import annotations

import socket

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


class TestHostedJournal:
    def test_hosted_session_rotates_its_journal(self, params, tmp_path):
        """A journaled session hosted on the server's loop completes
        its journal the way the one-shot sender does: ``*.wal`` is
        rotated to ``*.done`` by the time the session is ``done``."""
        server = ProtocolServer(
            {"intersection": (["b", "z"], params)},
            config=_config(), journal_dir=tmp_path,
        )
        with server:
            connected = repro.connect(
                "intersection", ["a", "b"], seed=4, port=server.port,
                session=repro.SessionOptions(config=_config()),
            )
            assert server.wait_for_sessions(1, timeout=10)
        assert sorted(connected.answer) == ["b"]
        assert [r["status"] for r in server.results()] == ["done"]
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
                session=repro.SessionOptions(config=_config()),
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
                session=repro.SessionOptions(config=_config()),
                retry=ClientRetryPolicy(
                    max_attempts=40,
                    backoff=RetryPolicy(base_delay_s=0.02, max_delay_s=0.2),
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

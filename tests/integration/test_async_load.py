"""Cross-session isolation under concurrency (the async-server stress).

Satellite acceptance for the event-loop refactor: 100+ concurrent
sessions through the sharded async server - each client a thread
running the :func:`~repro.net.tcp.connect_resumable_receiver` every
user runs, on an event loop of its own - asserting that no session
ever observes another's frames, journals, or results, and that
reconnect routing keeps working while the rest of the herd is in
flight.

Isolation is asserted the strong way: every session carries *distinct*
private data, so any cross-session frame or result leak shows up as a
wrong answer (the session layer's CRC seals and per-session sequence
cursors would turn a misrouted frame into a nak or a mismatched
answer, never silence). Journal isolation is asserted on disk: each
shard's journal directory must contain exactly the sessions whose ids
route to it.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.net import tcp
from repro.net.journal import open_session
from repro.net.session import (
    ClientRetryPolicy,
    RetryPolicy,
    SessionConfig,
)
from repro.net.shard import ShardedProtocolServer
from repro.protocols.parties import PublicParams
from repro.protocols.spec import get_spec

from ..net.shells import run_core

BITS = 96
SESSIONS = 104
SHARDS = 4


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _config(timeout_s=15.0):
    return SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2),
        max_reconnects=8,
        fin_grace_s=0.05,
    )


def _sender_values(sessions: int) -> list[str]:
    return ["shared"] + [f"item-{i}" for i in range(sessions)]


def _receiver_values(i: int) -> list[str]:
    # Distinct per session: "secret-i" never intersects, "item-i" is
    # session i's private marker inside the intersection.
    return ["shared", f"item-{i}", f"secret-{i}"]


def _expected(i: int) -> list[str]:
    return sorted(["shared", f"item-{i}"])


def test_isolated_answers_and_journals_at_scale(params, tmp_path):
    """104 concurrent streaming sessions, 4 shards, journaled.

    Each session must get exactly its own intersection back, and each
    shard's journal directory must hold exactly the session ids that
    ``sid % shards`` routes to it.
    """
    journal_root = tmp_path / "journals"
    server = ShardedProtocolServer(
        {"intersection": (_sender_values(SESSIONS), params)},
        shards=SHARDS,
        config=_config(),
        max_sessions=64,
        chunk_size=2,
        journal_dir=journal_root,
        busy_retry_hint_s=0.05,
        backlog=256,
    )

    # Session ids are random, so sid % shards is only uniform in
    # expectation - a busy refusal from an unlucky shard is part of the
    # contract, and the client waits out the hint and redials.
    policy = ClientRetryPolicy(max_attempts=100, backoff=_config().retry)

    def one(i: int) -> tuple[int, list]:
        rng = random.Random(10_000 + i)
        (answer, _stats), _retries, _busy = policy.redial(
            lambda: tcp.connect_resumable_receiver(
                "intersection", _receiver_values(i), rng,
                "127.0.0.1", server.port, config=_config(), chunk_size=2,
            ),
            rng,
        )
        return i, sorted(answer)

    with server, ThreadPoolExecutor(SESSIONS) as herd:
        outcomes = list(herd.map(one, range(SESSIONS), timeout=120))
    # The workers report their records at drain, every one terminal by
    # then: a client has its answer once the fin echo lands, which can
    # be before S's task marks its record, and the drain waits it out.
    rows = server.results()

    # Results: every session saw exactly its own intersection.
    assert len(outcomes) == SESSIONS
    for i, answer in outcomes:
        assert answer == _expected(i), f"session {i} got a foreign answer"

    # Supervision: one record per session, all done, shard == sid % N.
    done = [r for r in rows if r["status"] == "done"]
    assert len(done) == SESSIONS
    assert len({r["session_id"] for r in done}) == SESSIONS
    for row in done:
        assert row["shard"] == row["session_id"] % SHARDS

    # Journals: each shard directory holds exactly its own sessions,
    # every one rotated to .done (completed cleanly, never shared).
    seen_ids = set()
    for shard_index in range(SHARDS):
        shard_dir = journal_root / f"shard-{shard_index}"
        wals = list(shard_dir.glob("*.wal"))
        assert wals == [], f"unrotated journals on shard {shard_index}"
        for path in shard_dir.glob("sender-intersection-*.done"):
            sid = int(path.name.split("-")[-1].split(".")[0], 16)
            assert sid % SHARDS == shard_index, (
                f"journal {path.name} leaked onto shard {shard_index}"
            )
            seen_ids.add(sid)
    assert seen_ids == {r["session_id"] for r in done}


def test_reconnect_routing_while_the_herd_is_in_flight(params):
    """Sessions that lose their connection mid-run must resume on the
    worker that owns them while dozens of other sessions are active."""
    flaky = 12
    steady = 48
    server = ShardedProtocolServer(
        {"intersection": (_sender_values(flaky + steady), params)},
        shards=SHARDS,
        config=_config(),
        max_sessions=64,
        busy_retry_hint_s=0.05,
        backlog=256,
    )

    def make_receiver(i):
        def factory(wire):
            return get_spec("intersection").make_receiver(
                _receiver_values(i),
                PublicParams.from_wire(tuple(wire)),
                random.Random(20_000 + i),
            )
        return factory

    results: dict[int, list] = {}
    session_ids: dict[int, int] = {}
    errors: list = []

    def run_flaky(i: int) -> None:
        try:
            session, _ = open_session(
                "receiver", "intersection", make_receiver(i),
                config=_config(), rng=random.Random(30_000 + i),
            )
            dials = {"count": 0}

            async def dial():
                dials["count"] += 1
                endpoint = await tcp._connect("127.0.0.1", server.port, 10.0)
                if dials["count"] == 1:
                    original_recv = endpoint.recv_within

                    async def recv_once_then_die(timeout):
                        await original_recv(timeout)
                        await endpoint.close()
                        raise ConnectionError("injected drop")

                    endpoint.recv_within = recv_once_then_die
                return endpoint

            answer = run_core(session.steps(), dial)
            assert dials["count"] >= 2
            results[i] = sorted(answer)
            session_ids[i] = session.session_id
        except BaseException as exc:  # surfaced by the main thread
            errors.append((i, exc))

    def steady_one(i: int) -> tuple[int, list]:
        answer, _stats = tcp.connect_resumable_receiver(
            "intersection", _receiver_values(i), random.Random(40_000 + i),
            "127.0.0.1", server.port, config=_config(),
        )
        return i, sorted(answer)

    with server:
        threads = [
            threading.Thread(target=run_flaky, args=(i,), daemon=True)
            for i in range(flaky)
        ]
        for thread in threads:
            thread.start()
        with ThreadPoolExecutor(steady) as herd:
            steady_outcomes = list(herd.map(
                steady_one, range(flaky, flaky + steady), timeout=120
            ))
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    rows = server.results()  # reported by the workers at drain

    assert errors == []
    assert sum(r["status"] == "done" for r in rows) == flaky + steady
    for i, answer in steady_outcomes:
        assert answer == _expected(i)
    for i in range(flaky):
        assert results[i] == _expected(i)
    # Each flaky session resumed on its owning worker: exactly one
    # record, landed on sid % SHARDS.
    by_sid = {r["session_id"]: r for r in rows}
    for i, sid in session_ids.items():
        assert by_sid[sid]["status"] == "done"
        assert by_sid[sid]["shard"] == sid % SHARDS

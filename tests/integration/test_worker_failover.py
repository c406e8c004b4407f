"""Acceptance suite for self-healing shard supervision (the issue bar).

A herd of 64+ concurrent journaled sessions runs against a sharded
server with forked, supervised workers while the schedule SIGKILLs
two workers and wedges one past its heartbeat deadline. Every session
must finish with bytes identical to a fault-free reference run, no
client may ever see a raw ``ConnectionResetError``, and exhausting a
shard's restart budget must degrade *only* that shard.

The generated-schedule sweep size is controlled by
``REPRO_WORKER_CRASH_SCHEDULES`` (default 2 - each schedule forks and
murders real processes, so the tier-1 default stays small). A failing
seed replays with
``run_worker_crash_schedule(WorkerCrashSchedule.generate(seed))``.
"""

from __future__ import annotations

import logging
import os
import random
import socket

import pytest

from repro.net import tcp
from repro.net.chaos import (
    WorkerCrashSchedule,
    run_worker_crash_schedule,
)
from repro.net.session import (
    SESSION_VERSION,
    RetryPolicy,
    SessionConfig,
    seal,
    unseal,
)
from repro.net.shard import ShardedProtocolServer
from repro.protocols.parties import PublicParams

SWEEP = int(os.environ.get("REPRO_WORKER_CRASH_SCHEDULES", "2"))


# ----------------------------------------------------------------------
# The headline acceptance run: 64 sessions, 2 SIGKILLs, 1 hang
# ----------------------------------------------------------------------
def test_herd_of_64_survives_two_kills_and_a_hang_byte_identical():
    schedule = WorkerCrashSchedule(
        seed=20030609,
        sessions=64,
        shards=2,
        kills=((1.2, 0), (2.6, 1)),
        hangs=((1.8, 0, 0.6),),
    )
    result = run_worker_crash_schedule(schedule, wall_timeout_s=120.0)
    assert result.ok, result.describe()
    # ok already demands: every session answered, every answer
    # byte-identical to the fault-free reference, zero raw resets.
    # The schedule must also have actually drawn blood.
    assert result.worker_deaths >= 3, result.describe()  # 2 kills + hang
    assert result.hung_workers >= 1, result.describe()
    assert result.respawns >= 3, result.describe()
    kills = [e for e in result.injected if e["event"] == "kill"]
    hangs = [e for e in result.injected if e["event"] == "hang"]
    assert len(kills) == 2 and all(e["pid"] for e in kills)
    assert len(hangs) == 1 and hangs[0]["sent"]
    # And some sessions must have lived through a loss, not around it.
    assert sum(o.worker_lost for o in result.outcomes) >= 1
    assert sum(o.reconnects for o in result.outcomes) >= 1
    assert all(r["state"] == "alive" for r in result.health)


# ----------------------------------------------------------------------
# Generated-schedule sweep: any seed's murder plan holds the invariant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(SWEEP))
def test_generated_worker_crash_schedule_holds_invariant(seed):
    schedule = WorkerCrashSchedule.generate(seed, sessions=8)
    result = run_worker_crash_schedule(schedule, wall_timeout_s=90.0)
    assert result.ok, result.describe()


# ----------------------------------------------------------------------
# Budget exhaustion: the failed shard degrades, the rest keep serving
# ----------------------------------------------------------------------
def test_budget_exhaustion_is_contained_to_the_failed_shard(tmp_path):
    params = PublicParams.for_bits(96)
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                          max_delay_s=0.05),
        max_reconnects=8,
        fin_grace_s=0.05,
    )
    server = ShardedProtocolServer(
        {"intersection": (["b", "c", "x"], params)},
        shards=2, config=config, max_sessions=4,
        journal_dir=tmp_path, journal_fsync=False,
        heartbeat_s=0.05, respawn_backoff_s=0.05, restart_budget=0,
    )
    with server:
        assert server.kill_worker(0) is not None
        import time

        deadline = time.monotonic() + 15.0
        while server.health()[0]["state"] != "failed":
            assert time.monotonic() < deadline
            time.sleep(0.02)

        def hello(session_id):
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            endpoint = tcp.SocketEndpoint(sock=sock)
            endpoint.sock.settimeout(5.0)
            endpoint.send(
                seal("hello", SESSION_VERSION, "intersection",
                     session_id, 0, 0)
            )
            fields = unseal(endpoint.recv())
            sock.close()
            return fields

        # Every even session id (shard 0): permanent typed reject.
        for sid in (0, 2, 4):
            fields = hello(sid)
            assert fields[0] == "reject"
            assert "restart budget" in fields[2]
        # Every odd session id (shard 1): served as if nothing happened.
        for sid in (1, 3, 5):
            assert hello(sid)[0] == "welcome"

        # A full client run on the healthy shard completes end to end.
        from repro.protocols.spec import get_spec
        from repro.net.journal import open_session

        from ..net.shells import run_core

        session, _ = open_session(
            "receiver", "intersection",
            lambda wire: get_spec("intersection").make_receiver(
                ["a", "b", "c"],
                PublicParams.from_wire(tuple(wire)),
                random.Random(3),
            ),
            config=config,
            rng=random.Random(3),
            session_id=11,  # odd: shard 1
        )
        answer = run_core(
            session.steps(), lambda: tcp._connect("127.0.0.1", server.port, 5.0)
        )
        assert sorted(answer) == ["b", "c"]
    states = {r["shard"]: r["state"] for r in server.drain_report}
    assert states == {0: "failed", 1: "drained"}


# ----------------------------------------------------------------------
# A respawned worker inherits none of the front end's sockets
# ----------------------------------------------------------------------
def test_a_respawned_worker_does_not_keep_the_public_port_open():
    """A respawn forks while the front end listens: the child must let
    go of the listener, or a client still connects after the front end
    closed it - and waits on nobody - instead of being refused."""
    import time

    server = ShardedProtocolServer(
        {"intersection": (["b", "c", "x"], PublicParams.for_bits(96))},
        shards=1, heartbeat_s=0.05,
        respawn_backoff_s=0.05, restart_budget=2,
    ).start()
    try:
        assert server.kill_worker(0) is not None
        deadline = time.monotonic() + 15.0
        while server.health()[0]["restarts"] < 1 or server.health()[0]["state"] != "alive":
            assert time.monotonic() < deadline, server.health()
            time.sleep(0.02)
        server._loop_thread.run(server._close_listener(), timeout=10)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", server.port), timeout=2.0).close()
    finally:
        server.shutdown(drain_timeout_s=1.0)


def test_a_killed_worker_logs_its_warning_and_a_clean_shutdown_none(caplog):
    import time

    server = ShardedProtocolServer(
        {"intersection": (["b", "c", "x"], PublicParams.for_bits(96))},
        shards=2, heartbeat_s=0.05, respawn_backoff_s=0.05, restart_budget=2,
    )

    def lost():
        return [
            (r.levelname, r.getMessage()) for r in caplog.records
            if r.getMessage().startswith("worker lost")
        ]

    with caplog.at_level(logging.DEBUG, logger="repro"):
        with server:
            assert server.kill_worker(0) is not None
            deadline = time.monotonic() + 15.0
            while not lost():
                assert time.monotonic() < deadline
                time.sleep(0.02)
    warnings = [entry for entry in lost() if entry[0] == "WARNING"]
    assert warnings == [("WARNING", "worker lost shard=0 notices=0")]

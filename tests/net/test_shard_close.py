"""A finished session is not a lost worker.

The router hands each connection to its worker and learns of a lost
worker only from that worker's channel reaching EOF; then every client
the worker still had gets a typed ``worker-lost`` frame. That is the
contract for a worker that *died* (``test_shard.TestSupervision`` pins
it with a real SIGKILL). A worker that merely hangs up on a completed
run - it closes right after echoing the fin - must never look the same:
a healthy herd must raise no notice at all.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.net.session import RetryPolicy, SessionConfig
from repro.net.tcp import connect_resumable_receiver
from repro.net.shard import ShardedProtocolServer
from repro.protocols.parties import PublicParams

BITS = 96
SESSIONS = 48


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _config():
    return SessionConfig(
        timeout_s=15.0,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2),
        max_reconnects=8,
        fin_grace_s=0.25,
    )


@pytest.mark.parametrize("chunk_size", [None, 2])
def test_healthy_herd_over_forked_shards_sends_no_worker_lost_notice(
    params, chunk_size
):
    with ShardedProtocolServer(
        {"intersection": (["b", "c", "x"], params)}, shards=2,
        config=_config(), max_sessions=SESSIONS,
        chunk_size=chunk_size, heartbeat_timeout_s=30.0,
    ) as server:
        with ThreadPoolExecutor(SESSIONS) as herd:
            done = list(herd.map(
                lambda seed: connect_resumable_receiver(
                    "intersection", ["a", "b", "c"], random.Random(seed),
                    "127.0.0.1", server.port, config=_config(),
                    chunk_size=chunk_size,
                ),
                range(SESSIONS),
                timeout=120,
            ))
        # Let every worker's closed notice reach the router before counting.
        deadline = time.monotonic() + 5.0
        while server.routed < SESSIONS and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(_config().fin_grace_s + 0.1)
        notices, deaths = server.worker_lost_notices, server.worker_deaths
    rows = server.results()
    seen = (
        f"notices={notices} deaths={deaths} routed={server.routed} "
        f"not done: {[row for row in rows if row['status'] != 'done']}"
    )
    assert [sorted(answer) for answer, _stats in done] == [["b", "c"]] * SESSIONS, seen
    assert all(stats.worker_lost == 0 for _answer, stats in done), seen
    assert server.routed == SESSIONS, seen
    assert (notices, deaths) == (0, 0), seen
    assert len(rows) == SESSIONS, seen
    assert all(row["status"] == "done" for row in rows), seen

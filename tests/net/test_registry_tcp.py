"""The registry is the only integration point a new protocol needs.

``equijoin-sum`` was added to :data:`repro.protocols.spec.PROTOCOLS`
without touching :mod:`repro.net.tcp`, :mod:`repro.net.session` or the
CLI dispatch tables. These smoke tests prove the generic drivers pick
it up by name - through the one-shot verbs and through the resumable
pair under them - and that no bespoke helper for it exists anywhere in
the net layer.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro
from repro.net import tcp
from repro.net.session import RetryPolicy, SessionConfig
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS

AMOUNTS = {"apple": 5, "pear": 7, "plum": 11, "quince": 13}
V_R = ["apple", "plum", "cherry", "fig"]
EXPECTED_TOTAL = AMOUNTS["apple"] + AMOUNTS["plum"]


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(128)


def test_equijoin_sum_is_registry_only():
    assert "equijoin-sum" in PROTOCOLS
    bespoke = [name for name in dir(tcp) if "equijoin_sum" in name.lower()]
    assert bespoke == [], f"unexpected bespoke equijoin-sum helpers: {bespoke}"


def test_equijoin_sum_over_plain_tcp(params):
    port_box: list[int] = []
    ready = threading.Event()
    result: dict = {}

    def serve():
        result["size_v_r"] = repro.serve(
            "equijoin-sum", AMOUNTS, params=params, seed=7,
            ready_callback=lambda port: (port_box.append(port), ready.set()),
            timeout=10.0,
        ).size_v_r

    thread = threading.Thread(target=serve)
    thread.start()
    assert ready.wait(timeout=10)
    total = repro.connect(
        "equijoin-sum", V_R, seed=11, port=port_box[0], timeout=10.0
    ).answer
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert total == EXPECTED_TOTAL
    assert result["size_v_r"] == len(V_R)


def test_equijoin_sum_over_resumable_session(params):
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=2,
        fin_grace_s=0.05,
    )
    port_box: list[int] = []
    ready = threading.Event()
    result: dict = {}

    def serve():
        result["run"] = tcp.serve_resumable_sender(
            "equijoin-sum", AMOUNTS, params, random.Random(7),
            ready_callback=lambda port: (port_box.append(port), ready.set()),
            config=config,
        )

    thread = threading.Thread(target=serve)
    thread.start()
    assert ready.wait(timeout=10)
    total, stats = tcp.connect_resumable_receiver(
        "equijoin-sum", V_R, random.Random(11), "127.0.0.1", port_box[0],
        config=config,
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert total == EXPECTED_TOTAL
    size_v_r, sender_stats = result["run"]
    assert size_v_r == len(V_R)
    assert stats.reconnects == 0
    spec = PROTOCOLS["equijoin-sum"]
    assert sender_stats.rounds_computed == sum(
        1 for rnd in spec.rounds if rnd.source == "S"
    )

"""The deprecated ``serve_*``/``connect_*`` shims are gone for good.

They were deprecated (warn-once delegations to the generic
``serve``/``connect``) and have now been removed; the supported
networked entry points are the one-call facade ``repro.serve`` /
``repro.connect`` plus the generic drivers in :mod:`repro.net.tcp`.
These tests pin the removal - the names must not quietly come back -
and prove the facade produces wire transcripts identical to the
generic drivers it fronts.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro
from repro.net import tcp
from repro.protocols.parties import PublicParams

BITS = 128
N = 12

REMOVED_SHIMS = [
    "serve_intersection_sender",
    "connect_intersection_receiver",
    "serve_intersection_size_sender",
    "connect_intersection_size_receiver",
    "serve_equijoin_sender",
    "connect_equijoin_receiver",
    "serve_equijoin_size_sender",
    "connect_equijoin_size_receiver",
    # The blocking session classes (open_session + run_blocking now).
    "SenderSession",
    "ReceiverSession",
    "SessionEndpoint",
    "SESSION_PROTOCOLS",
]


@pytest.mark.parametrize("name", REMOVED_SHIMS)
def test_shim_is_removed(name):
    import repro.net as net
    from repro.net import session

    for module in (tcp, net, session):
        assert not hasattr(module, name), f"removed {name} reappeared"
        assert name not in module.__all__


def test_generic_pair_is_the_exported_surface():
    for name in ("serve", "connect", "serve_resumable_sender",
                 "connect_resumable_receiver"):
        assert name in tcp.__all__
        assert callable(getattr(tcp, name))


# ----------------------------------------------------------------------
# Facade parity: repro.serve/connect vs the generic drivers (sockets)
# ----------------------------------------------------------------------
class _RecordingTransport:
    """Wraps a framed transport; logs every message in arrival order."""

    def __init__(self, transport, log):
        self._transport = transport
        self.log = log

    def send(self, message):
        self.log.append(("sent", message))
        self._transport.send(message)

    def recv(self):
        message = self._transport.recv()
        self.log.append(("received", message))
        return message

    def settimeout(self, timeout):
        self._transport.settimeout(timeout)

    def close(self):
        self._transport.close()


def _values():
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def _run_generic(protocol, log, chunk_size):
    v_r, v_s = _values()
    params = PublicParams.for_bits(BITS)
    port_box, ready = [], threading.Event()
    result_box = {}

    def serve_thread():
        result_box["size_v_r"] = tcp.serve(
            protocol, v_s, params, random.Random("S"),
            ready_callback=lambda p: (port_box.append(p), ready.set()),
            timeout=10.0, chunk_size=chunk_size,
        )

    thread = threading.Thread(target=serve_thread)
    thread.start()
    assert ready.wait(timeout=10)
    answer = tcp.connect(
        protocol, v_r, random.Random("R"), "127.0.0.1", port_box[0],
        timeout=10.0, chunk_size=chunk_size,
        endpoint_wrapper=lambda e: _RecordingTransport(e, log),
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    return answer, result_box["size_v_r"]


def _run_facade(protocol, log, chunk_size):
    v_r, v_s = _values()
    port_box, ready = [], threading.Event()
    result_box = {}

    def serve_thread():
        result_box["serve"] = repro.serve(
            protocol, v_s, bits=BITS, rng=random.Random("S"),
            ready_callback=lambda p: (port_box.append(p), ready.set()),
            timeout=10.0, chunk_size=chunk_size,
        )

    thread = threading.Thread(target=serve_thread)
    thread.start()
    assert ready.wait(timeout=10)
    # The facade drives the same generic machinery, so an
    # endpoint-wrapper hook is reachable through repro.net.tcp.connect;
    # the facade's own connect is exercised for the answer.
    answer = tcp.connect(
        protocol, v_r, random.Random("R"), "127.0.0.1", port_box[0],
        timeout=10.0, chunk_size=chunk_size,
        endpoint_wrapper=lambda e: _RecordingTransport(e, log),
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    return answer, result_box["serve"]


@pytest.mark.parametrize("chunk_size", [None, 3])
@pytest.mark.parametrize("protocol", ["intersection", "equijoin-size"])
def test_facade_transcripts_match_generic_pair(protocol, chunk_size):
    """Same seeds -> the facade server's wire transcript is
    byte-identical to the generic driver's, chunked or not."""
    generic_log, facade_log = [], []
    generic_answer, generic_size = _run_generic(
        protocol, generic_log, chunk_size
    )
    facade_answer, serve_result = _run_facade(
        protocol, facade_log, chunk_size
    )
    assert facade_log == generic_log
    assert facade_answer == generic_answer
    assert serve_result.size_v_r == generic_size
    assert serve_result.port != 0


def test_facade_run_matches_networked_answer():
    v_r, v_s = _values()
    log = []
    networked, _ = _run_generic("intersection", log, None)
    in_memory = repro.run("intersection", v_r, v_s, bits=BITS, seed=0)
    assert in_memory.answer == networked
    assert in_memory.size_v_r == len(set(v_r))
    assert in_memory.size_v_s == len(set(v_s))

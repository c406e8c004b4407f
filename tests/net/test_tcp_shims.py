"""One wire: what is gone stays gone, and every way in is the session.

The per-protocol ``serve_*``/``connect_*`` shims, the blocking session
classes, the plain one-shot loop (``tcp.serve`` / ``tcp.connect`` /
``run_rounds``) and - last - the blocking shell (``run_blocking``) were
removed; the supported networked
entry points are the facade ``repro.serve`` / ``repro.connect`` over
the one generic pair in :mod:`repro.net.tcp`. These tests pin the
removals - the names must not quietly come back - and prove that the
facade, with ``session=None`` or with ``SessionOptions()``, and the
generic pair put the same frames on the wire.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro
from repro.net import tcp
from repro.net.server import ProtocolServer
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS

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
    # The blocking session classes (open_session + run_async now).
    "SenderSession",
    "ReceiverSession",
    "SessionEndpoint",
    "SESSION_PROTOCOLS",
    # The plain loop: every networked run is a session.
    "serve",
    "connect",
    "run_rounds",
    # The blocking shell: every real party runs on ``aio.run_async``.
    "run_blocking",
]


@pytest.mark.parametrize("name", REMOVED_SHIMS)
def test_shim_is_removed(name):
    import repro.net as net
    from repro.net import session

    for module in (tcp, net, session):
        assert not hasattr(module, name), f"removed {name} reappeared"
        assert name not in module.__all__


def test_generic_pair_is_the_exported_surface():
    for name in ("serve_resumable_sender", "connect_resumable_receiver"):
        assert name in tcp.__all__
        assert callable(getattr(tcp, name))


# ----------------------------------------------------------------------
# One wire: session=None, SessionOptions() and the generic pair (sockets)
# ----------------------------------------------------------------------
class _RecordingTransport:
    """Wraps a framed transport; logs every message in arrival order."""

    def __init__(self, transport, log):
        self._transport = transport
        self.log = log

    async def send(self, message):
        self.log.append(("sent", message))
        await self._transport.send(message)

    async def recv_within(self, timeout):
        message = await self._transport.recv_within(timeout)
        self.log.append(("received", message))
        return message

    def __getattr__(self, name):
        return getattr(self._transport, name)


def _values():
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def _inputs(protocol):
    v_r, v_s = _values()
    shape = PROTOCOLS[protocol].sender_input
    if shape == "ext":
        return v_r, {v: f"ext({v})".encode() for v in v_s}
    if shape == "amounts":
        return v_r, {v: i + 1 for i, v in enumerate(v_s)}
    return v_r, v_s


def _on_a_thread(serve):
    """Run ``serve(ready_callback)`` on a thread; returns the bound
    port and a callable that joins the thread for its result."""
    ports, ready = [], threading.Event()
    box = {}

    def run():
        box["result"] = serve(lambda p: (ports.append(p), ready.set()))

    thread = threading.Thread(target=run)
    thread.start()
    assert ready.wait(timeout=10)

    def join():
        thread.join(timeout=10)
        assert not thread.is_alive()
        return box["result"]

    return ports[0], join


def _run_generic(protocol, log, chunk_size):
    """The generic pair, called directly under the facade's
    ``session=None`` config."""
    v_r, v_s = _inputs(protocol)
    config = repro.api._session_config(None, 10.0)
    port, served = _on_a_thread(lambda ready: tcp.serve_resumable_sender(
        protocol, v_s, PublicParams.for_bits(BITS), random.Random("S"),
        ready_callback=ready, config=config, chunk_size=chunk_size,
    ))
    answer, _stats = tcp.connect_resumable_receiver(
        protocol, v_r, random.Random("R"), "127.0.0.1", port,
        config=config, chunk_size=chunk_size,
        endpoint_wrapper=lambda e: _RecordingTransport(e, log),
    )
    return answer, served()[0]


def _run_facade(protocol, log, chunk_size, session, monkeypatch):
    v_r, v_s = _inputs(protocol)
    port, served = _on_a_thread(lambda ready: repro.serve(
        protocol, v_s, bits=BITS, rng=random.Random("S"),
        ready_callback=ready, timeout=10.0, chunk_size=chunk_size,
        session=session,
    ))
    with monkeypatch.context() as patch:
        dial = tcp._connect

        async def recording(*args, **kwargs):
            return _RecordingTransport(await dial(*args, **kwargs), log)

        patch.setattr(tcp, "_connect", recording)
        connected = repro.connect(
            protocol, v_r, rng=random.Random("R"), port=port,
            timeout=10.0, chunk_size=chunk_size, session=session,
        )
    return connected.answer, served()


@pytest.mark.parametrize("chunk_size", [None, 3])
@pytest.mark.parametrize(
    "protocol", sorted(n for n, s in PROTOCOLS.items() if s.delta_of is None)
)
def test_facade_transcripts_match_generic_pair(protocol, chunk_size, monkeypatch):
    """Same seeds -> one frame sequence, chunked or not, for every
    registered schedule: the facade with ``session=None``, the facade
    with ``SessionOptions()``, and the generic pair it fronts."""
    generic_log, plain_log, session_log = [], [], []
    generic_answer, generic_size = _run_generic(
        protocol, generic_log, chunk_size
    )
    plain_answer, plain_served = _run_facade(
        protocol, plain_log, chunk_size, None, monkeypatch
    )
    session_answer, _ = _run_facade(
        protocol, session_log, chunk_size, repro.SessionOptions(), monkeypatch
    )
    assert plain_log == generic_log == session_log
    assert plain_log[0][1][0] == "hello" and plain_log[-1][1][0] == "fin"
    assert plain_answer == generic_answer == session_answer
    assert plain_served.size_v_r == generic_size
    assert plain_served.port != 0
    assert plain_served.stats.reconnects == 0


def test_a_default_connect_completes_against_a_protocol_server():
    """``session=None`` speaks the session wire, so the one-shot client
    needs no option to be served by the supervised server."""
    v_r, v_s = _values()
    server = ProtocolServer(
        {"intersection": (v_s, PublicParams.for_bits(BITS))}
    ).start()
    try:
        connected = repro.connect("intersection", v_r, port=server.port, seed=1)
    finally:
        server.shutdown(drain_timeout_s=1.0)
    assert connected.answer == set(v_r) & set(v_s)
    assert connected.stats.reconnects == 0


def test_facade_run_matches_networked_answer():
    v_r, v_s = _values()
    log = []
    networked, _ = _run_generic("intersection", log, None)
    in_memory = repro.run("intersection", v_r, v_s, bits=BITS, seed=0)
    assert in_memory.answer == networked
    assert in_memory.size_v_r == len(set(v_r))
    assert in_memory.size_v_s == len(set(v_s))

"""TCP transport: run the protocols as two real network endpoints.

A :class:`~repro.net.runner.ProtocolRun` records what the analysis
needs (byte-exact accounting, recorded views); this module provides the
deployment-shaped counterpart: length-prefixed frames of the same wire
format over a TCP
socket, plus the serve/connect pair that runs any registered
:class:`~repro.protocols.spec.ProtocolSpec` across the connection.

Framing: each message is ``len(payload) as u32 big-endian || payload``,
where the payload is :mod:`repro.net.serialization` bytes. Frames are
bounded (:data:`DEFAULT_MAX_FRAME_BYTES`), so a corrupt or hostile
length prefix fails fast with :class:`FrameTooLarge` instead of
triggering a multi-gigabyte allocation.

:func:`serve_resumable_sender` / :func:`connect_resumable_receiver`
are the one pair of drivers, each running a session core
(:func:`repro.net.journal.open_session`) under the one real-I/O shell,
:func:`repro.net.aio.run_async`, on an event loop of the calling
thread's own (R keeps its thread's loop from one query to the next;
neither may be called from a thread whose own loop is running): party
R dials (``TCP_NODELAY`` set); party S is hosted as every S is - one
session on a listener that stays up for the run
(:func:`repro.net.server.host_session`, the steps a
:class:`~repro.net.server.ProtocolServer` runs for each of its
sessions). Frames are checksummed and acknowledged, and whatever the
:class:`~repro.net.session.SessionConfig` says about deadlines and
reconnects holds (``timeout_s=math.inf`` waits without a deadline,
``max_reconnects=0`` is a one-connection run). Both take
``chunk_size``: when set, chunkable rounds ship as a stream of
``("chunk", ...)`` frames (:mod:`repro.net.serialization`) instead of
one whole-round frame, chunk ``k+1`` produced ahead (an ``Ahead``
step of the session core) so its crypto overlaps the send of chunk
``k``. Receivers auto-detect chunked
rounds, so ``chunk_size`` is a per-party local choice.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import os
import random
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..protocols.parties import PublicParams
from ..protocols.spec import get_spec
from . import serialization
from .journal import JournalDir, open_session
from .session import SessionConfig, SessionStats

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameTooLarge",
    "SocketEndpoint",
    "serve_resumable_sender",
    "connect_resumable_receiver",
]

_LEN = struct.Struct(">I")

#: Frames above this are rejected outright: no protocol message comes
#: close, so a bigger length prefix means corruption or hostility.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameTooLarge(ConnectionError):
    """A frame header declared a length beyond ``max_frame_bytes``.

    Subclasses :class:`ConnectionError` because the only safe recovery
    is tearing the connection down: after a garbled length prefix the
    byte stream can never be re-synchronized.
    """


@dataclass
class SocketEndpoint:
    """Framed, serialized messaging over a connected blocking socket.

    The drivers speak through :class:`~repro.net.aio.AsyncFrameEndpoint`;
    this is the same wire format for code that owns a plain socket (a
    raw test client, a loopback measurement).
    """

    sock: socket.socket
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = field(default=0)

    def send(self, message: Any) -> None:
        """Serialize and ship one framed message."""
        payload = serialization.encode(message)
        frame = _LEN.pack(len(payload)) + payload
        self.sock.sendall(frame)
        self.bytes_sent += len(frame)
        self.messages_sent += 1

    def recv(self) -> Any:
        """Read and deserialize one framed message.

        Raises:
            FrameTooLarge: the length prefix exceeds
                ``max_frame_bytes`` (corrupt header or hostile peer).
            ConnectionError: the peer closed mid-frame.
            TimeoutError: no frame arrived within the socket timeout.
            ValueError: the payload arrived but is not valid wire data.
        """
        header = self._read_exact(_LEN.size)
        (length,) = _LEN.unpack(header)
        if length > self.max_frame_bytes:
            raise FrameTooLarge(
                f"frame declares {length} bytes, limit is "
                f"{self.max_frame_bytes} (corrupt length prefix?)"
            )
        payload = self._read_exact(length)
        self.bytes_received += _LEN.size + length
        return serialization.decode(payload)

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise ConnectionError("peer closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close the underlying socket."""
        self.sock.close()


# ----------------------------------------------------------------------
# Session runs over real sockets
# ----------------------------------------------------------------------
def _journal_dir(journal_dir: Any, fsync: bool) -> JournalDir | None:
    """``journal_dir=`` as given to the resumable helpers, opened."""
    if journal_dir is None or isinstance(journal_dir, JournalDir):
        return journal_dir
    return JournalDir(journal_dir, fsync=fsync)


def serve_resumable_sender(
    protocol: str,
    data: Any,
    params: PublicParams,
    rng: random.Random,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_callback=None,
    config: SessionConfig | None = None,
    endpoint_wrapper: Callable[[Any], Any] | None = None,
    engine=None,
    recorder=None,
    journal_dir: Any = None,
    journal_fsync: bool = True,
    chunk_size: int | None = None,
) -> tuple[int, SessionStats]:
    """Serve party S of any registered protocol under the session layer.

    One session (:func:`~repro.net.server.host_session`) on a listener
    that stays open across client reconnects, so a connection dropped
    mid-run resumes from the last acknowledged round. Returns
    ``(|V_R|, session stats)``. ``endpoint_wrapper`` (e.g. a
    :class:`~repro.net.faults.FaultInjector`) wraps every accepted
    :class:`~repro.net.aio.AsyncFrameEndpoint` - that is how the chaos
    tests inject faults.
    ``engine`` selects the batch-crypto execution strategy;
    ``recorder`` collects per-phase metrics. ``chunk_size`` streams
    chunkable outgoing rounds as acknowledged chunk frames, making the
    resume cursor chunk-granular (a reconnect or recovery restarts
    mid-round at the last acknowledged chunk).

    With a ``journal_dir``, every frame is journaled to disk
    (:mod:`repro.net.journal`) before it is acted on. S reads the
    client's hello first and opens the journal of the session id it
    names, so a restart against the same directory *recovers* the run
    its reconnecting client resumes - provided ``data``, ``rng`` *and*
    ``chunk_size`` match the crashed process (replay verifies the bytes
    exactly) - and a new client starts fresh, whatever stale journals a
    run its client gave up on left behind. A hello whose session id is
    not an integer gets a typed ``reject``. A run that completed but
    died before its journal was rotated is rotated first
    (:func:`~repro.net.journal.open_session` is the whole rule).
    """
    config = config or SessionConfig()
    spec = get_spec(protocol)
    journals = _journal_dir(journal_dir, journal_fsync)
    # Consume the session-rng seed before the factory ever touches
    # ``rng`` - this fixed draw order is what lets a restarted process
    # with an identically seeded ``rng`` replay its journal exactly.
    session_rng = random.Random(rng.getrandbits(64))

    def admit(_asked: Any, session_id: int) -> Any:
        # A hello for another protocol is the core's handshake's to refuse.
        core, _ = open_session(
            "sender", protocol,
            lambda: spec.make_sender(data, params, rng, engine=engine),
            params=params, journal_dir=journals, session_id=session_id,
            config=config, rng=session_rng, recorder=recorder,
            chunk_size=chunk_size,
        )
        return core

    from .server import host_session

    with socket.create_server((host, port), backlog=16) as listener:
        if ready_callback is not None:
            ready_callback(listener.getsockname()[1])
        core, state = host_session(listener, config, admit, endpoint_wrapper)
    return state.size_v_r, core.stats


def connect_resumable_receiver(
    protocol: str,
    data: Any,
    rng: random.Random,
    host: str,
    port: int,
    config: SessionConfig | None = None,
    endpoint_wrapper: Callable[[Any], Any] | None = None,
    engine=None,
    recorder=None,
    journal_dir: Any = None,
    journal_fsync: bool = True,
    chunk_size: int | None = None,
    make_receiver: Callable[[Any], Any] | None = None,
) -> tuple[Any, SessionStats]:
    """Run party R of any registered protocol under the session layer.

    Reconnects (with backoff and jitter) after transient failures and
    resumes from the last acknowledged round. Returns
    ``(answer, session stats)`` where the answer is the protocol's
    output for R (set, size, ext mapping, or aggregate). ``engine``
    selects the batch-crypto execution strategy; ``recorder`` collects
    per-phase metrics; ``chunk_size`` streams R's chunkable outgoing
    rounds as acknowledged chunk frames (chunk-granular resume).
    ``endpoint_wrapper`` (e.g. a
    :class:`~repro.net.faults.FaultInjector`) wraps every dialed
    :class:`~repro.net.aio.AsyncFrameEndpoint`. The run goes on the
    calling thread's own event loop, kept for its next query and closed
    when the thread ends, so a thread whose event loop is running
    cannot call this (``RuntimeError``).

    With a ``journal_dir``, rounds are journaled and a restart against
    the same directory recovers the oldest incomplete receiver run for
    this protocol (same ``data``/``rng`` seeding required - replay
    verifies it), reconnecting under the journaled session id so the
    server resumes the same run. A run whose answer was fully journaled
    before the crash (only the rotation was lost) is answered from the
    journal without dialing (:func:`~repro.net.journal.open_session`).

    ``make_receiver`` overrides the default state factory (a
    ``wire_params -> state`` closure over ``spec.make_receiver``); the
    stateful Catalog peers use it to inject warm-cache construction
    and to keep a handle on the built party for delta commits. It may
    be called more than once (journal replay), so it must be
    idempotent.
    """
    config = config or SessionConfig()
    spec = get_spec(protocol)
    session_rng = random.Random(rng.getrandbits(64))
    if make_receiver is None:
        def make_receiver(wire: Any) -> Any:
            return spec.make_receiver(
                data, PublicParams.from_wire(tuple(wire)), rng, engine=engine
            )

        # Building R hashes its table: the core declares that work.
        make_receiver.size = len(data) if hasattr(data, "__len__") else None
    core, answer = open_session(
        "receiver", protocol, make_receiver,
        journal_dir=_journal_dir(journal_dir, journal_fsync), config=config,
        rng=session_rng, recorder=recorder, chunk_size=chunk_size,
    )
    if answer is None:
        from .aio import run_async

        timeout = None if config.timeout_s == math.inf else config.timeout_s
        # The run's own executor, joined when the run ends, as
        # ``asyncio.run`` joins its loop's: no thread outlives a query,
        # and a query whose steps all run on the loop starts none.
        with concurrent.futures.ThreadPoolExecutor() as executor:
            answer = _run(run_async(
                core.steps(),
                lambda: _connect(host, port, timeout, endpoint_wrapper),
                executor,
            ))
    return answer, core.stats


#: Party R's event loop on each thread that queries.
_loops = threading.local()


class _ThreadLoop:
    """One thread's event loop, kept from one query to the next: a loop
    built and torn down per query (``asyncio.run``) costs ~0.3 ms, a
    tenth of a small session (docs/PERFORMANCE.md, "One real-I/O
    shell"). Closed when its thread ends and the thread's storage goes
    - by the process that built it: a forked child builds its own."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.loop = asyncio.new_event_loop()

    def __del__(self) -> None:
        if os.getpid() == self.pid:
            self.loop.close()


def _run(coro: Any) -> Any:
    """``coro`` to completion on this thread's own loop, as
    ``asyncio.run`` would: a thread whose loop is running cannot call
    it (``RuntimeError``), and a task the run leaves behind is
    cancelled, not carried into the next query."""
    held = getattr(_loops, "held", None)
    if held is None or held.pid != os.getpid():
        held = _loops.held = _ThreadLoop()
    loop = held.loop
    try:
        return loop.run_until_complete(coro)
    finally:
        left = asyncio.all_tasks(loop)
        for task in left:
            task.cancel()
        if left:
            loop.run_until_complete(asyncio.gather(*left, return_exceptions=True))


async def _connect(
    host: str,
    port: int,
    timeout: float | None,
    wrap: Callable[[Any], Any] | None = None,
) -> Any:
    """A framed connection to ``host:port`` under ``wrap`` (fault
    injector, recorder, ...) - one that raises leaks no socket.

    Every exchange is stop-and-wait: a small sealed frame, then a wait
    for the peer's (even smaller) ack. Nagle's algorithm holds exactly
    those sub-MSS writes back, so the socket runs with ``TCP_NODELAY``,
    as every connection S accepts does (``server._accept``). See
    docs/PERFORMANCE.md for the measured before/after.
    """
    from .aio import AsyncFrameEndpoint

    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    endpoint = AsyncFrameEndpoint(reader, writer)
    try:
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return endpoint if wrap is None else wrap(endpoint)
    except BaseException:
        await endpoint.close()
        raise

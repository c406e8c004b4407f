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
are the one pair of drivers: a session core
(:func:`repro.net.journal.open_session`) under the blocking shell
(:func:`repro.net.session.run_blocking`), S accepting on a listener
that stays up for the run and R dialing - checksummed, acknowledged
frames, and whatever the :class:`~repro.net.session.SessionConfig`
says about deadlines and reconnects (``timeout_s=math.inf`` blocks on
the socket, ``max_reconnects=0`` is a one-connection run). Both take
``chunk_size``: when set, chunkable rounds ship as a stream of
``("chunk", ...)`` frames (:mod:`repro.net.serialization`) instead of
one whole-round frame, chunk ``k+1`` produced ahead (an ``Ahead``
step of the session core) so its crypto overlaps the send of chunk
``k``. Receivers auto-detect chunked
rounds, so ``chunk_size`` is a per-party local choice.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..protocols.parties import PublicParams
from ..protocols.spec import get_spec
from . import serialization
from .journal import JournalDir, open_session
from .session import (
    SESSION_VERSION,
    HandshakeError,
    SessionConfig,
    SessionError,
    SessionStats,
    run_blocking,
    seal,
    unseal,
)
from .session_core import is_hello

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
    """Framed, serialized messaging over a connected socket."""

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

    def settimeout(self, timeout: float | None) -> None:
        """Deadline for subsequent socket operations (None = block)."""
        self.sock.settimeout(timeout)

    def close(self) -> None:
        """Close the underlying socket."""
        self.sock.close()


# ----------------------------------------------------------------------
# Socket plumbing shared by the serve/connect drivers
# ----------------------------------------------------------------------
def _nodelay(sock: socket.socket) -> socket.socket:
    """Disable Nagle on a protocol socket.

    Every exchange here is stop-and-wait: a small sealed frame, then a
    wait for the peer's (even smaller) ack. Nagle's algorithm holds
    exactly those sub-MSS writes back waiting for acks that will never
    precede them, so leaving it on taxes every round trip; all protocol
    sockets (dialed and accepted alike) run with ``TCP_NODELAY``. See
    docs/PERFORMANCE.md for the measured before/after.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not a TCP socket (tests splice in socketpairs)
    return sock


def _listen(
    host: str, port: int, timeout: float | None, backlog: int = 16
) -> socket.socket:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    # A backlog of 1 made the kernel refuse the racing reconnects a
    # resumable run depends on; 16 absorbs a burst of clients.
    listener.listen(backlog)
    listener.settimeout(timeout)
    return listener


def _wrapped(
    endpoint: SocketEndpoint,
    wrapper: Callable[[SocketEndpoint], Any] | None,
) -> Any:
    """``endpoint`` under ``wrapper`` (fault injector, recorder, ...).

    Every accepted or dialed connection is wrapped *here* so a wrapper
    that raises cannot leak the socket.
    """
    if wrapper is None:
        return endpoint
    try:
        return wrapper(endpoint)
    except BaseException:
        endpoint.close()
        raise


def _dial(
    host: str,
    port: int,
    timeout: float | None,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
) -> Any:
    sock = _nodelay(socket.create_connection((host, port), timeout=timeout))
    return _wrapped(SocketEndpoint(sock=sock), endpoint_wrapper)


# ----------------------------------------------------------------------
# Session runs: a core under the blocking shell, over real sockets
# ----------------------------------------------------------------------
def _journal_dir(journal_dir: Any, fsync: bool) -> JournalDir | None:
    """``journal_dir=`` as given to the resumable helpers, opened."""
    if journal_dir is None or isinstance(journal_dir, JournalDir):
        return journal_dir
    return JournalDir(journal_dir, fsync=fsync)


def _socket_timeout(seconds: float) -> float | None:
    """A config's deadline as a socket timeout (``inf``: block)."""
    return None if seconds == math.inf else seconds


def _session_listener(host: str, port: int, config: SessionConfig) -> socket.socket:
    """Party S's listener: up for the whole run (or a serving peer's
    whole life), so a reconnect - or a client early for the next
    query - queues instead of being refused."""
    return _listen(
        host, port,
        _socket_timeout(config.timeout_s * config.retry.max_attempts),
    )


def _accept(
    listener: socket.socket,
    config: SessionConfig,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
) -> Any:
    """The next client of ``listener``, as a framed endpoint."""
    try:
        conn, _addr = listener.accept()
    except socket.timeout as exc:
        raise TimeoutError("no client (re)connected in time") from exc
    conn.settimeout(_socket_timeout(config.timeout_s))
    _nodelay(conn)
    return _wrapped(SocketEndpoint(sock=conn), endpoint_wrapper)


class _Unread:
    """``endpoint`` with one frame already read put back in front."""

    def __init__(self, endpoint: Any, frame: Any):
        self._endpoint = endpoint
        self._frame = frame
        self.send = endpoint.send
        self.settimeout = endpoint.settimeout
        self.close = endpoint.close

    def recv(self) -> Any:
        if self._frame is None:
            return self._endpoint.recv()
        frame, self._frame = self._frame, None
        return frame


def _first_hello(
    accept: Callable[[], Any], config: SessionConfig
) -> tuple[Any, tuple, int]:
    """The first valid hello to arrive, its connection with the hello
    put back for the session's own handshake to read, and how many
    garbled frames came before it.

    The blocking twin of :func:`repro.net.aio.read_hello` +
    ``AsyncFrameEndpoint._unread``: party S learns which schedule the
    client wants (the hello's protocol field) and which journal to look
    up (its session id) before it builds the core (:func:`_serve_hello`).
    It waits for a hello as the core's own handshake does: a garbled
    frame is skipped and a quiet spell waited out (the client
    retransmits its hello) until ``timeout_s x max_attempts`` have
    passed; a connection that dies or stays silent that long is dropped
    and the next one accepted - and an accept nobody answers in time is
    one more failure - as often as the config allows reconnects.
    """
    budget_s = config.timeout_s * config.retry.max_attempts
    garbled = 0
    for _ in range(config.max_reconnects + 1):
        try:
            endpoint = accept()
        except (TimeoutError, OSError) as exc:  # nobody connected
            failure = exc
            continue
        try:
            deadline = time.monotonic() + budget_s
            while (remaining := deadline - time.monotonic()) > 0:
                endpoint.settimeout(
                    _socket_timeout(min(remaining, config.timeout_s))
                )
                try:
                    frame = endpoint.recv()
                    fields = unseal(frame)
                except TimeoutError:
                    continue
                except ValueError:
                    garbled += 1
                    continue
                if is_hello(fields):
                    return _Unread(endpoint, frame), fields, garbled
            raise TimeoutError(f"no hello within {budget_s}s")
        except (ConnectionError, TimeoutError, OSError) as exc:
            failure = exc
            endpoint.close()
    raise SessionError(f"no client sent a valid hello: {failure}") from failure


def _serve_hello(
    listener: socket.socket,
    config: SessionConfig,
    admit: Callable[[Any, int], Any],
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
) -> tuple[Any, Any]:
    """Party S's one session on ``listener``, built for the hello that
    asks for it: the blocking twin of a hosted session's start.

    The first valid hello (:func:`_first_hello`) comes before any core:
    ``admit(protocol, session_id)`` reads what it asks for - which
    schedule, which journal - and returns the session core to run, or a
    string, the reason the client gets a typed ``reject`` for, raised
    here as :class:`~repro.net.session.HandshakeError`. A session id
    that is not an integer is refused before ``admit`` sees it. The
    core's own handshake then reads the hello again, and every later
    connection to ``listener`` is a reconnect of that session. Returns
    ``(core, state)``: the core and the party state its run ended with.
    """

    def accept() -> Any:
        return _accept(listener, config, endpoint_wrapper)

    endpoint, hello, garbled = _first_hello(accept, config)
    try:
        asked, session_id = hello[2], hello[3]
        core = (
            admit(asked, session_id)
            if isinstance(session_id, int) else "malformed session id"
        )
        if isinstance(core, str):
            with contextlib.suppress(OSError):
                endpoint.send(seal("reject", SESSION_VERSION, core))
            raise HandshakeError(
                f"refused the client's {asked!r} query: {core}"
            )
    except BaseException:
        endpoint.close()
        raise
    core.stats.checksum_failures += garbled  # as if its handshake read them
    links = itertools.chain([endpoint], iter(accept, None))
    return core, run_blocking(core.steps(), open_link=lambda: next(links))


def serve_resumable_sender(
    protocol: str,
    data: Any,
    params: PublicParams,
    rng: random.Random,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_callback=None,
    config: SessionConfig | None = None,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
    engine=None,
    recorder=None,
    journal_dir: Any = None,
    journal_fsync: bool = True,
    chunk_size: int | None = None,
) -> tuple[int, SessionStats]:
    """Serve party S of any registered protocol under the session layer.

    The listener stays open across client reconnects, so a connection
    dropped mid-run resumes from the last acknowledged round. Returns
    ``(|V_R|, session stats)``. ``endpoint_wrapper`` (e.g. a
    :class:`~repro.net.faults.FaultyEndpoint` constructor) wraps every
    accepted connection - that is how the chaos tests inject faults.
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

    listener = _session_listener(host, port, config)
    try:
        if ready_callback is not None:
            ready_callback(listener.getsockname()[1])
        core, state = _serve_hello(listener, config, admit, endpoint_wrapper)
        return state.size_v_r, core.stats
    finally:
        listener.close()


def connect_resumable_receiver(
    protocol: str,
    data: Any,
    rng: random.Random,
    host: str,
    port: int,
    config: SessionConfig | None = None,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
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
        make_receiver = lambda wire: spec.make_receiver(  # noqa: E731
            data, PublicParams.from_wire(tuple(wire)), rng, engine=engine
        )
    core, answer = open_session(
        "receiver", protocol, make_receiver,
        journal_dir=_journal_dir(journal_dir, journal_fsync), config=config,
        rng=session_rng, recorder=recorder, chunk_size=chunk_size,
    )
    if answer is None:
        answer = run_blocking(
            core.steps(),
            open_link=lambda: _dial(
                host, port, _socket_timeout(config.timeout_s), endpoint_wrapper
            ),
        )
    return answer, core.stats

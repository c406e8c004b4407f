"""TCP transport: run the protocols as two real network endpoints.

The in-memory channels are perfect for analysis (byte-exact accounting,
recorded views); this module provides the deployment-shaped
counterpart: length-prefixed frames of the same wire format over a TCP
socket, plus serve/connect drivers that interpret any registered
:class:`~repro.protocols.spec.ProtocolSpec` across the connection.

Framing: each message is ``len(payload) as u32 big-endian || payload``,
where the payload is :mod:`repro.net.serialization` bytes. Frames are
bounded (:data:`DEFAULT_MAX_FRAME_BYTES`), so a corrupt or hostile
length prefix fails fast with :class:`FrameTooLarge` instead of
triggering a multi-gigabyte allocation, and every helper takes a
``timeout`` so a hung or absent peer raises instead of blocking
forever.

Two families of drivers cover every protocol in the registry:

* :func:`serve`/:func:`connect` speak the original one-shot handshake
  (the sender ships its
  :class:`~repro.protocols.parties.PublicParams`, the spec's rounds
  follow in order, any failure aborts the run);
* :func:`serve_resumable_sender`/:func:`connect_resumable_receiver`
  run the same round schedule under the fault-tolerant session layer
  of :mod:`repro.net.session` - checksummed, acknowledged frames,
  retry with backoff, and resumption from the last acknowledged round
  after a dropped connection.

All four take ``chunk_size``: when set, chunkable rounds ship as a
stream of ``("chunk", ...)`` frames (:mod:`repro.net.serialization`)
instead of one whole-round frame, holding at most O(chunk_size)
payload in memory per frame, and chunk production is double-buffered
(:func:`repro.net.streaming.prefetch`) so the crypto for chunk ``k+1``
overlaps the send of chunk ``k``. Receivers auto-detect chunked
rounds, so ``chunk_size`` is a per-party local choice; the default
``None`` reproduces the legacy wire format byte for byte.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from ..protocols.spec import ProtocolSpec, get_spec
from . import serialization
from .journal import JournalDir, open_session
from .session import SessionConfig, SessionStats, run_blocking
from .streaming import TimedIterator, prefetch

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameTooLarge",
    "SocketEndpoint",
    "serve",
    "connect",
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


def _accept_one(
    host: str,
    port: int,
    ready_callback,
    timeout: float | None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
) -> Any:
    """Listen, announce the bound port, return the first client."""
    listener = _listen(host, port, timeout)
    try:
        if ready_callback is not None:
            ready_callback(listener.getsockname()[1])
        try:
            conn, _addr = listener.accept()
        except socket.timeout as exc:
            raise TimeoutError(
                f"no client connected within {timeout}s"
            ) from exc
    finally:
        listener.close()
    conn.settimeout(timeout)
    _nodelay(conn)
    return _wrapped(
        SocketEndpoint(sock=conn, max_frame_bytes=max_frame_bytes),
        endpoint_wrapper,
    )


def _dial(
    host: str,
    port: int,
    timeout: float | None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
) -> Any:
    sock = _nodelay(socket.create_connection((host, port), timeout=timeout))
    return _wrapped(
        SocketEndpoint(sock=sock, max_frame_bytes=max_frame_bytes),
        endpoint_wrapper,
    )


# ----------------------------------------------------------------------
# Round shipping shared by both parties of the one-shot drivers
# ----------------------------------------------------------------------
def _send_round(
    transport: Any,
    machine: Any,
    rnd: Any,
    chunk_size: int | None,
    recorder: Any,
) -> None:
    """Ship one outgoing round, chunked and pipelined when enabled.

    The chunk producer runs one step ahead on the prefetch thread, so
    while frame ``k`` is in ``transport.send`` the crypto for chunk
    ``k+1`` is already underway; the recorder (if any) gets the round's
    produce/send/wall split for the pipeline-overlap report.
    """
    if chunk_size is None or not rnd.chunkable:
        transport.send(machine.produce(rnd).to_wire())
        return
    wall_start = time.perf_counter()
    timed = TimedIterator(machine.produce_chunks(rnd, chunk_size))
    send_s = 0.0
    count = 0
    for payload in prefetch(timed):
        start = time.perf_counter()
        transport.send(serialization.chunk_frame(count, payload))
        send_s += time.perf_counter() - start
        count += 1
    start = time.perf_counter()
    transport.send(serialization.chunk_end_frame(count))
    send_s += time.perf_counter() - start
    if recorder is not None:
        recorder.add_pipeline(
            f"{machine.role}.{rnd.name}",
            produce_s=timed.elapsed_s,
            send_s=send_s,
            wall_s=time.perf_counter() - wall_start,
            chunks=count,
        )


def _recv_round(transport: Any, machine: Any, rnd: Any) -> None:
    """Receive one round, whole-frame or chunked (auto-detected)."""
    frames: list = []
    while True:
        with machine.wait(rnd):
            frames.append(transport.recv())
        status, payload, _used = serialization.fold_chunk_frames(frames)
        if status == "single":
            machine.consume(rnd, payload)
            return
        if status == "chunked":
            machine.consume_chunks(rnd, payload)
            return


def run_rounds(
    transport: Any,
    machine: Any,
    spec: ProtocolSpec,
    *,
    sends: str,
    chunk_size: int | None = None,
    recorder: Any = None,
) -> None:
    """Drive one party's side of a spec's round schedule on a transport.

    ``sends`` is the round source this party ships (``"R"`` for the
    receiver, ``"S"`` for the sender); every other round is received.
    This is the loop both one-shot drivers run after their handshake,
    shared so the stateful Catalog peers reuse it frame for frame.
    """
    for rnd in spec.rounds:
        if rnd.source == sends:
            _send_round(transport, machine, rnd, chunk_size, recorder)
        else:
            _recv_round(transport, machine, rnd)


# ----------------------------------------------------------------------
# Plain one-shot runs (original handshake; any failure aborts)
# ----------------------------------------------------------------------
def serve(
    protocol: str | ProtocolSpec,
    data: Any,
    params: PublicParams,
    rng: random.Random,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_callback=None,
    timeout: float | None = None,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    engine=None,
    recorder=None,
    chunk_size: int | None = None,
) -> int:
    """Run party S of any registered protocol as a TCP server.

    Interprets the spec's round schedule: after the ``params``
    handshake, S receives every receiver-sourced round and ships every
    sender-sourced one, in order. Blocks until one receiver has been
    served; returns ``|V_R|`` (everything S learns).

    Args:
        protocol: registry name (or an unregistered spec object).
        data: S's private input, shaped per ``spec.sender_input``
            (value list, ``v -> ext(v)`` map, or ``v -> amount`` map).
        params: the public parameters shipped in the handshake.
        rng: S's private randomness.
        ready_callback: called with the bound port once listening -
            with ``port=0`` this is the actual kernel-assigned port;
            pass it to the client thread/process.
        timeout: bounds both the wait for a client and each socket read.
        endpoint_wrapper: wraps the accepted connection (e.g. a
            :class:`~repro.net.faults.FaultyEndpoint` constructor).
        engine: batch-crypto execution strategy
            (:mod:`repro.crypto.engine`).
        recorder: per-phase metrics collector
            (:class:`repro.analysis.instrumentation.MetricsRecorder`).
        chunk_size: stream chunkable outgoing rounds in frames of at
            most this many elements (``None`` = legacy whole-round
            frames, byte-identical to earlier releases).
    """
    spec = get_spec(protocol)
    transport = _accept_one(
        host, port, ready_callback, timeout, max_frame_bytes,
        endpoint_wrapper=endpoint_wrapper,
    )
    try:
        transport.send(("params", params.to_wire()))
        machine = SenderMachine(
            spec, data, params, rng, engine=engine, recorder=recorder
        )
        machine.ensure_state()
        run_rounds(
            transport, machine, spec, sends="S",
            chunk_size=chunk_size, recorder=recorder,
        )
        return machine.state.size_v_r
    finally:
        transport.close()


def connect(
    protocol: str | ProtocolSpec,
    data: Any,
    rng: random.Random,
    host: str,
    port: int,
    timeout: float | None = None,
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    engine=None,
    recorder=None,
    chunk_size: int | None = None,
) -> Any:
    """Run party R of any registered protocol as a TCP client.

    The server's handshake carries the public parameters, so R needs
    no out-of-band setup beyond the address. Returns the protocol's
    answer for R (set, size, ext mapping, or aggregate - whatever the
    spec's ``finish`` computes). ``chunk_size`` streams R's chunkable
    outgoing rounds (see :func:`serve`); inbound chunking is
    auto-detected regardless.
    """
    spec = get_spec(protocol)
    transport = _dial(host, port, timeout, max_frame_bytes, endpoint_wrapper)
    try:
        tag, wire_params = transport.recv()
        if tag != "params":
            raise ValueError(f"unexpected handshake message {tag!r}")
        machine = ReceiverMachine(
            spec,
            data,
            PublicParams.from_wire(tuple(wire_params)),
            rng,
            engine=engine,
            recorder=recorder,
        )
        machine.ensure_state()
        run_rounds(
            transport, machine, spec, sends="R",
            chunk_size=chunk_size, recorder=recorder,
        )
        return machine.finish()
    finally:
        transport.close()


# ----------------------------------------------------------------------
# Resumable runs under the session layer
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
    endpoint_wrapper: Callable[[SocketEndpoint], Any] | None = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    engine=None,
    recorder=None,
    journal_dir: Any = None,
    journal_fsync: bool = True,
    chunk_size: int | None = None,
    make_sender: Callable[[], Any] | None = None,
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
    (:mod:`repro.net.journal`) before it is acted on, and a restart
    against the same directory *recovers* the oldest incomplete run for
    this protocol instead of starting a fresh one - provided ``data``,
    ``rng`` *and* ``chunk_size`` match the crashed process (replay
    verifies the bytes exactly). A run that completed but died before
    its journal was rotated is rotated first
    (:func:`~repro.net.journal.open_session` is the whole rule).

    ``make_sender`` overrides the default state factory (which builds
    ``spec.make_sender(data, params, rng)``); the stateful Catalog
    peers use it to inject warm-cache construction and to keep a handle
    on the built party for delta commits. It may be called more than
    once (journal replay), so it must be idempotent.
    """
    config = config or SessionConfig()
    spec = get_spec(protocol)
    # Consume the session-rng seed before the factory ever touches
    # ``rng`` - this fixed draw order is what lets a restarted process
    # with an identically seeded ``rng`` replay its journal exactly.
    session_rng = random.Random(rng.getrandbits(64))
    if make_sender is None:
        make_sender = lambda: spec.make_sender(data, params, rng, engine=engine)  # noqa: E731
    core, _ = open_session(
        "sender", protocol, make_sender, params=params,
        journal_dir=_journal_dir(journal_dir, journal_fsync), config=config,
        rng=session_rng, recorder=recorder, chunk_size=chunk_size,
    )
    listener = _listen(
        host, port, config.timeout_s * config.retry.max_attempts
    )
    try:
        if ready_callback is not None:
            ready_callback(listener.getsockname()[1])

        def accept() -> Any:
            try:
                conn, _addr = listener.accept()
            except socket.timeout as exc:
                raise TimeoutError("no client (re)connected in time") from exc
            conn.settimeout(config.timeout_s)
            _nodelay(conn)
            return _wrapped(
                SocketEndpoint(sock=conn, max_frame_bytes=max_frame_bytes),
                endpoint_wrapper,
            )

        return run_blocking(core.steps(), open_link=accept).size_v_r, core.stats
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
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
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
                host, port, config.timeout_s, max_frame_bytes, endpoint_wrapper
            ),
        )
    return answer, core.stats

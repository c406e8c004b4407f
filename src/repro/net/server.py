"""Supervised multi-session protocol server on the asyncio core.

Party S has one host, in this module. :func:`host_session` runs one
session on one listener - the one-shot
:func:`repro.net.tcp.serve_resumable_sender` and a serving
:class:`~repro.Peer` are that - through the same steps a
:class:`ProtocolServer` takes for each of its sessions: the hello read
by :func:`~repro.net.aio.read_hello`, the admission step, the session
core from :func:`~repro.net.journal.open_session` on the journal the
hello's session id names, and the asyncio shell
(:func:`~repro.net.aio.run_async`). A deployment-shaped endpoint (the
ROADMAP's heavy-traffic north star, and the long-lived multi-query
servers of the encrypted equi-join and Prism lines of work) needs the
supervisor around them:

* **many concurrent clients** - a :class:`ProtocolServer` accepts on
  one port with an event loop (:mod:`repro.net.aio`) that owns every
  socket: connection handling, hello routing, and all frame I/O are
  coroutines, so ten thousand idle connections cost file descriptors,
  not blocked threads. Admitted sessions - up to ``max_sessions`` at a
  time - are tasks on that same loop, each running the session core
  (:mod:`repro.net.session_core`) under the asyncio shell
  (:func:`~repro.net.aio.run_async`, the shell every real party R
  runs under too, on a loop of its own): frames never change threads
  and
  no thread is parked per session. A fresh session is built on the
  loop, and a machine step runs there too when the core declares it
  small (:data:`~repro.net.aio.INLINE_WORK`); heavier machine steps
  and chunk production, and journal recovery, go to an executor of
  ``max_sessions`` workers. The ``(max_sessions + 1)``-th new client
  is turned away with a typed ``busy`` frame (raised client-side as
  :class:`~repro.net.session.ServerBusyError`) carrying a retry hint
  instead of queueing or hanging;
* **reconnect routing** - the session id in every hello routes a
  reconnecting client back to the record that owns its run, so the
  session layer's resume-from-round-log machinery works unchanged
  behind one shared port. The hello is read by
  :func:`~repro.net.aio.read_hello`, the shard router's reader too:
  a connection whose hello is not among its first frames is dropped,
  and a hello whose session id is not an integer is rejected;
* **crash durability** - with a ``journal_dir``, every session is
  journaled (:mod:`repro.net.journal`) and a hello for a session this
  *process* has never seen is first looked up on disk - only its own
  journal path, via a read-only peek that can never disturb journals
  other live sessions are appending to: a server restarted after a
  crash rebuilds the run from its journal and serves the reconnect
  from the exact interrupted cursor, while an unrecoverable journal
  (corruption, replay divergence) is quarantined as ``*.corrupt`` and
  the client gets a typed ``reject`` instead of a hang;
* **supervision** - a reaper task on the loop, started only when
  either is set, enforces per-session wall-clock deadlines and an
  idle timeout measured from the last frame the session actually
  moved (abandoned runs stop holding slots; busy runs on one
  long-lived connection are left alone),
  and :meth:`ProtocolServer.shutdown` / SIGTERM drains gracefully:
  new sessions are refused, in-flight rounds finish (journaled as they
  go) up to ``drain_timeout_s``, stragglers are aborted, and only then
  does the loop stop. Aborting - by the reaper or the drain - is
  cancelling the session's task: it ends ``expired`` with a
  :class:`~repro.net.session.SessionAborted` error at whatever it was
  awaiting, its connection closed.

Journal appends and rotation run where the session core says they do:
as direct calls on the thread driving the session, which here is the
loop thread. An append is a few hundred bytes into the page cache -
plus, with fsync on, a wait for the disk that the other sessions'
frames share - and it costs the loop less than the two thread
hand-offs per frame it replaced, fsync'd journal included
(docs/PERFORMANCE.md, "Hosted sessions as tasks").

Every protocol in the :data:`~repro.protocols.spec.PROTOCOLS` registry
is servable concurrently from one ``ProtocolServer`` with zero
protocol-specific code - the hello names the protocol, the registry
supplies the round schedule. For session counts beyond one process's
capacity, :class:`repro.net.shard.ShardedProtocolServer` runs several
of these as sharded workers behind one routing front end.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import functools
import hashlib
import logging
import os
import random
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from ..crypto.numtheory import _key_rng
from ..protocols.spec import get_spec
from .aio import AsyncFrameEndpoint, LoopThread, _TIMEOUTS, read_hello, run_async
from .crashpoints import SimulatedCrash, crash_point
from .journal import (
    CORRUPT_SUFFIX,
    JournalDir,
    JournalError,
    open_session,
)
from .session import (
    SESSION_VERSION,
    HandshakeError,
    SessionAborted,
    SessionConfig,
    SessionError,
    seal,
)

__all__ = [
    "ProtocolOffer",
    "SessionRecord",
    "ProtocolServer",
]


@dataclass(frozen=True)
class ProtocolOffer:
    """One protocol a server is willing to run, with S's inputs.

    ``make_sender(session_id)`` must return a **fresh** party state per
    call (each session gets its own) and, when journaling is on, must be
    deterministic in the session id so a journaled session can be
    recovered after a process crash: the server passes the id of the
    hello it answers, for a fresh session and a recovered one alike. A
    ``make_sender`` with a ``size`` - how many values each party it
    builds holds, when building one is hashing them, as
    :meth:`from_data`'s says - lets a hosted session build a small party
    on the event loop; one without builds on the executor.
    """

    protocol: str
    params: Any
    make_sender: Callable[[int], Any]

    @classmethod
    def from_data(
        cls, protocol: str, data: Any, params: Any, seed: Any = None,
        engine: Any = None,
    ) -> "ProtocolOffer":
        """An offer whose sender factory keys S per session.

        Each session's S draws from an rng seeded with a hash of the
        offer's ``seed`` and the session id, so two sessions of one
        offer share no key, while every recovery of a session re-derives
        its keys - the determinism the journal's replay invariant
        requires. Without a ``seed``, one is drawn from the operating
        system's CSPRNG here, once per offer: S's keys are secret, and a
        worker forked after the offer was built - a respawned shard
        worker too - still replays its predecessor's journals.
        """
        if seed is None:
            seed = _key_rng().getrandbits(128)
        return cls(
            protocol=protocol,
            params=params,
            make_sender=_SeededSender(
                get_spec(protocol), data, params, seed, engine
            ),
        )


@dataclass(frozen=True, eq=False)
class _SeededSender:
    """:meth:`ProtocolOffer.from_data`'s factory: party S over ``data``,
    its rng seeded with SHA-256 over a label, the offer's seed and the
    session id - so no two sessions of an offer, and no other use of
    its seed, draw the same keys."""

    spec: Any
    data: Any
    params: Any
    seed: Any
    engine: Any

    def __call__(self, session_id: int) -> Any:
        label = ("repro.net.server.session-key", self.seed, session_id)
        seed = hashlib.sha256(repr(label).encode()).digest()
        return self.spec.make_sender(
            self.data, self.params, random.Random(seed), engine=self.engine
        )

    @property
    def size(self) -> int | None:
        """How many values each party holds, when building one is
        hashing them (``None`` otherwise: a party that draws a Paillier
        keypair, a delta's)."""
        if getattr(self.spec.make_sender, "light_build", False):
            return len(self.data)
        return None


def _refusal_frame(
    tag: str, reason: str, retry_after_s: float | None = None
) -> tuple:
    """A typed reject / busy / worker-lost frame.

    A retry hint rides as a fourth field, in integer milliseconds (the
    wire format has no floats); old clients (which check for exactly 3
    fields) ignore the whole frame and simply retry their hello.
    """
    fields: list[Any] = [tag, SESSION_VERSION, reason]
    if retry_after_s is not None:
        fields.append(max(int(round(retry_after_s * 1000)), 0))
    return seal(*fields)


async def _refuse(
    endpoint: Any, tag: str, reason: str, retry_after_s: float | None = None
) -> None:
    """Send a typed reject/busy frame and close (loop side)."""
    try:
        await endpoint.send(_refusal_frame(tag, reason, retry_after_s))
    except (OSError, ValueError):
        pass
    finally:
        await endpoint.close()


async def _admitted(
    endpoint: Any, hello: tuple, admit: Callable[[Any, int], Any]
) -> Any:
    """The admission step of every host of party S.

    ``hello`` is what :func:`~repro.net.aio.read_hello` read off
    ``endpoint``. A hello in another session version, or whose session
    id is not an integer, is refused here; any other is the host's
    ``admit(protocol, session_id)`` to answer - with whatever takes the
    connection, or a refusal: a reason string (a ``reject``) or a
    ``(tag, reason, retry hint)`` triple. A refused connection gets its
    typed frame and is closed, and the refusal is returned. An admitted
    one gets every frame read pushed back, so the session's own
    handshake reads them - a garbled seal before the hello is its
    checksum failure, as on any later connection.
    """
    frames, (_, version, protocol, session_id, _, _) = hello
    if version != SESSION_VERSION:
        verdict = f"unsupported session version {version}"
    elif not isinstance(session_id, int):
        verdict = "malformed session id"
    else:
        verdict = admit(protocol, session_id)
    if isinstance(verdict, str):
        verdict = ("reject", verdict)
    if isinstance(verdict, tuple):
        await _refuse(endpoint, *verdict)
    else:
        endpoint._unread(frames)
    return verdict


#: Statuses under which a record holds a session slot and accepts routing.
_ACTIVE_STATUSES = ("starting", "running")

_log = logging.getLogger(__name__)

#: A handed-over connection's token - the front end's name for it, sent
#: with the socket and back in the worker's ``closed`` notice.
HANDOFF_TOKEN = struct.Struct(">Q")

#: Most bytes a shard front end may have read off a connection when it
#: hands it over: the frames up to and including the hello, and whatever
#: arrived behind them. A handoff is one channel datagram, so this stays
#: well under a socket's default send buffer (~208 KiB on Linux).
HANDOFF_MAX_BYTES = 65536


class _HandedOver(asyncio.StreamReaderProtocol):
    """A connection adopted from a shard front end: when this server's
    copy of its socket closes, ``on_lost()`` tells the front end."""

    def connection_lost(self, exc: Exception | None) -> None:
        super().connection_lost(exc)
        self.on_lost()


@dataclass
class SessionRecord:
    """Supervisor-side bookkeeping for one hosted session.

    A record is born ``starting`` - the id is reserved and reconnects
    queue on its inbox - while the session is built or, from a journal
    on disk, replayed on the executor outside the supervisor lock; it becomes
    ``running`` once its task owns a live session. ``inbox`` holds the
    routed connections (each with its hello pushed back) the session
    has not adopted yet; ``last_activity`` moves with every routed
    hello and every frame the session's connection moves.

    A terminal record keeps only its summary - ``status``, ``error``
    and the session's ``stats`` - and lets go of the session core (its
    round log and party state), the task and the inbox, so a
    long-lived server's memory follows its live sessions, not every
    session it ever hosted.
    """

    session_id: int
    protocol: str
    session: Any = None
    inbox: "asyncio.Queue[AsyncFrameEndpoint] | None" = field(
        default_factory=asyncio.Queue
    )
    task: "asyncio.Task | None" = None
    status: str = "starting"  # starting | running | done | failed | expired
    stats: Any = None
    error: BaseException | None = None
    started_at: float = field(default_factory=time.monotonic)
    last_activity: float = field(default_factory=time.monotonic)

    def _touch(self) -> None:
        """Stamp the idle clock (a frame or a routed hello just moved)."""
        self.last_activity = time.monotonic()

    def as_dict(self) -> dict[str, Any]:
        """Flat summary for logs and the metrics report."""
        stats = self.stats.as_dict() if self.stats is not None else {}
        return {
            "session_id": self.session_id,
            "protocol": self.protocol,
            "status": self.status,
            "error": repr(self.error) if self.error is not None else None,
            **stats,
        }


def _drain_on_signals(
    server: Any, drain_timeout_s: float, signals: tuple | None
) -> None:
    """Run ``server.shutdown(drain_timeout_s)`` on SIGTERM (and SIGINT
    when ``signals`` is ``None``): the one drain-on-signal of both
    :class:`ProtocolServer` and the sharded front end.

    Main-thread only (a Python ``signal`` restriction). The handler
    runs the shutdown on a helper thread so the signal context returns
    immediately.
    """
    if signals is None:
        signals = (signal.SIGTERM, signal.SIGINT)

    def _handler(signum: int, frame: Any) -> None:
        threading.Thread(
            target=server.shutdown,
            kwargs={"drain_timeout_s": drain_timeout_s},
            daemon=True,
        ).start()

    for sig in signals:
        signal.signal(sig, _handler)


class ProtocolServer:
    """Accepts many concurrent protocol clients behind one port.

    The event loop (on its own thread) owns the listener, every
    connection and every admitted session: each is a task running the
    session core under :func:`~repro.net.aio.run_async`, with an
    executor of ``max_sessions`` workers for the machine steps and
    chunk production too heavy for the loop, and for journal recovery.
    Each session is hosted as :func:`host_session` hosts its one: the
    same hello reader, admission step and restart rule, so wire bytes,
    journal bytes and refusals are the one-shot S's.

    Args:
        offers: the protocols this server runs - an iterable of
            :class:`ProtocolOffer` or a mapping
            ``protocol -> (data, params)`` (convenience; uses
            :meth:`ProtocolOffer.from_data`, which draws S's seed).
        host / port: bind address (``port=0`` picks a free port).
        max_sessions: concurrent-session ceiling; further new clients
            get a typed ``busy`` frame and are closed.
        config: session-layer deadlines/retries, shared by all sessions.
        journal_dir: when set, a :class:`~repro.net.journal.JournalDir`
            (or path) under which every session is journaled and from
            which unknown session ids are recovered.
        session_deadline_s: wall-clock budget per session; exceeded
            sessions are aborted and marked ``expired``.
        idle_timeout_s: a session with no connection activity for this
            long is reaped (its slot freed) rather than held forever.
        recorder: optional
            :class:`~repro.analysis.instrumentation.MetricsRecorder`;
            every finished session's stats are folded into its report.
        chunk_size: when set, every hosted session streams chunkable
            rounds in slices of this many items (and journaled
            sessions must be recovered under the same value).
        busy_retry_hint_s: retry hint shipped in busy frames.
    """

    _REAP_POLL_S = 0.05
    #: How long a stopping server keeps its loop alive so clients that
    #: raced the drain hear a typed busy/reject instead of a reset.
    _REFUSAL_GRACE_S = 0.2

    def __init__(
        self,
        offers: Iterable[ProtocolOffer] | Mapping[str, tuple[Any, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 8,
        config: SessionConfig | None = None,
        journal_dir: Any = None,
        session_deadline_s: float | None = None,
        idle_timeout_s: float | None = None,
        recorder: Any = None,
        backlog: int = 16,
        chunk_size: int | None = None,
        busy_retry_hint_s: float = 0.5,
    ):
        if isinstance(offers, Mapping):
            offers = [
                ProtocolOffer.from_data(name, data, params)
                for name, (data, params) in offers.items()
            ]
        self.offers: dict[str, ProtocolOffer] = {
            offer.protocol: offer for offer in offers
        }
        for name in self.offers:
            get_spec(name)  # fail fast on unregistered protocols
        self.host = host
        self.requested_port = port
        self.max_sessions = max_sessions
        self.config = config or SessionConfig()
        self.journal_dir = (
            journal_dir
            if isinstance(journal_dir, JournalDir) or journal_dir is None
            else JournalDir(journal_dir)
        )
        self.session_deadline_s = session_deadline_s
        self.idle_timeout_s = idle_timeout_s
        self.recorder = recorder
        self.backlog = backlog
        self.chunk_size = chunk_size
        self.busy_retry_hint_s = busy_retry_hint_s
        self.sessions: dict[int, SessionRecord] = {}
        #: The records holding a slot (:data:`_ACTIVE_STATUSES`), kept
        #: as they are admitted and retired; read under the lock.
        self._live: dict[int, SessionRecord] = {}
        self.rejected_busy = 0
        self.quarantined: list[Path] = []
        self._lock = threading.Lock()
        self._finished = threading.Condition(self._lock)
        self._loop_thread: LoopThread | None = None
        self._aserver: asyncio.AbstractServer | None = None
        self._bound_port: int | None = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._reaper_task: asyncio.Task | None = None
        self._channel: socket.socket | None = None
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._bound_port is None:
            raise RuntimeError("server not started")
        return self._bound_port

    def start(self) -> "ProtocolServer":
        """Spin up the event loop, bind, listen (and reap, if asked).

        The reaper task starts only with a session deadline or an idle
        timeout to enforce.
        """
        if self._loop_thread is not None:
            raise RuntimeError("server already started")
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_sessions,
            thread_name_prefix="repro-session",
        )
        self._loop_thread = LoopThread(name="repro-server-loop").start()
        self._loop_thread.run(self._start_async(), timeout=30)
        return self

    async def _start_async(self) -> None:
        self._aserver = await asyncio.start_server(
            self._handle_client,
            self.host,
            self.requested_port,
            backlog=self.backlog,
        )
        self._bound_port = self._aserver.sockets[0].getsockname()[1]
        if self.session_deadline_s is not None or self.idle_timeout_s is not None:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reap_loop()
            )

    def __enter__(self) -> "ProtocolServer":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Drain briefly and close on exit."""
        self.shutdown(drain_timeout_s=self.config.timeout_s)

    def install_signal_handlers(
        self, drain_timeout_s: float = 5.0, signals: tuple | None = None
    ) -> None:
        """Drain gracefully on SIGTERM (and SIGINT by default).

        See :func:`_drain_on_signals`.
        """
        _drain_on_signals(self, drain_timeout_s, signals)

    def shutdown(self, drain_timeout_s: float | None = 5.0) -> None:
        """Refuse new sessions, drain in-flight ones, then close.

        Running sessions get up to ``drain_timeout_s`` seconds to
        finish their rounds (journaling as they go); whatever is still
        running after that is aborted - its task cancelled, which
        settles at once whatever it was waiting on. Every session has
        reached a terminal status *before* the loop stops. Idempotent.
        """
        self._draining.set()
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            with self._finished:

                def idle() -> bool:
                    return not self._live

                if not self._finished.wait_for(idle, drain_timeout_s):
                    for record in list(self._live.values()):
                        self._loop_thread.loop.call_soon_threadsafe(
                            self._abort, record, "drain timeout"
                        )
                    self._finished.wait_for(idle, self.config.timeout_s * 2)
            self._closed.set()
            if self._executor is not None:
                self._executor.shutdown(wait=False)
            if self._loop_thread is not None:
                time.sleep(self._REFUSAL_GRACE_S)
                try:
                    self._loop_thread.run(self._stop_async(), timeout=10)
                except (concurrent.futures.TimeoutError, RuntimeError):
                    pass
                self._loop_thread.stop()
            if self._channel is not None:
                # Every ``closed`` notice is out; the EOF tells the
                # front end that this worker is gone.
                self._channel.close()
            self._shutdown_done = True

    async def _stop_async(self) -> None:
        if self._reaper_task is not None:
            self._reaper_task.cancel()
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` has completed."""
        return self._closed.wait(timeout)

    def wait_for_sessions(
        self, count: int = 1, timeout: float | None = None
    ) -> bool:
        """Block until ``count`` sessions have reached a terminal status.

        Terminal means ``done``, ``failed`` or ``expired``. Returns
        whether the count was reached before ``timeout``. This is what
        lets a caller host "one run, then stop" on the supervised
        server without polling :meth:`results`.
        """
        with self._finished:
            return self._finished.wait_for(
                lambda: len(self.sessions) - len(self._live) >= count,
                timeout,
            )

    @property
    def draining(self) -> bool:
        """Whether a shutdown/drain has begun."""
        return self._draining.is_set()

    def results(self) -> list[dict[str, Any]]:
        """One summary dict per session ever hosted (oldest first)."""
        with self._lock:
            records = sorted(
                self.sessions.values(), key=lambda r: r.started_at
            )
            return [record.as_dict() for record in records]

    def active_sessions(self) -> int:
        """How many sessions are currently starting or running.

        Cheap enough to poll from a heartbeat loop: the size of the
        maintained set of live records, with none of the sorting or
        per-record dict building :meth:`results` does for its full
        report.
        """
        with self._lock:
            return len(self._live)

    # ------------------------------------------------------------------
    # Accepting and routing (event-loop side)
    # ------------------------------------------------------------------
    def accept_handoffs(self, channel: socket.socket) -> None:
        """Also serve the connections a shard front end hands over.

        ``channel`` is this server's end of an ``AF_UNIX``
        ``SOCK_SEQPACKET`` pair (:mod:`repro.net.shard`). Each datagram
        on it is one connection the front end accepted: its socket, a
        token, and every byte the front end read off it - the frames up
        to the hello and what arrived behind them. Those bytes go in
        front of the socket's own, so :meth:`_handle_client` reads the
        connection exactly as if the client had dialed this server.
        When this server's copy of a handed-over socket closes, the
        token goes back up the channel (``closed``); the channel itself
        closes with the server.
        """
        # A ``closed`` notice waits at most this long for a front end
        # that has stopped reading.
        channel.settimeout(self.config.timeout_s)
        self._channel = channel
        loop = self._loop_thread.loop
        loop.call_soon_threadsafe(loop.add_reader, channel, self._on_handoff)

    def _on_handoff(self) -> None:
        """Reader callback on the channel: adopt one handed-over socket,
        the bytes read off it first in its reader."""
        loop = self._loop_thread.loop
        try:
            data, fds, _flags, _addr = socket.recv_fds(
                self._channel, HANDOFF_TOKEN.size + HANDOFF_MAX_BYTES, 1
            )
        except OSError:
            data = b""
        if not data:
            # The front end is gone: nothing more will be handed over.
            loop.remove_reader(self._channel)
            return
        reader = asyncio.StreamReader()
        reader.feed_data(data[HANDOFF_TOKEN.size:])
        protocol = _HandedOver(reader, self._handle_client)
        protocol.on_lost = functools.partial(
            self._handoff_closed, *HANDOFF_TOKEN.unpack_from(data)
        )
        if not fds:
            # Out of descriptors, the kernel dropped the socket: the
            # front end closes its copy, and the client redials.
            protocol.on_lost()
            return
        loop.create_task(loop.connect_accepted_socket(
            lambda: protocol, socket.socket(fileno=fds[0])
        ))

    def _handoff_closed(self, token: int) -> None:
        """Tell the front end to drop its copy of a handed-over socket."""
        with contextlib.suppress(OSError):  # if it is gone, so are they
            self._channel.send(HANDOFF_TOKEN.pack(token))

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read its hello, then route it or refuse it."""
        endpoint = AsyncFrameEndpoint(reader, writer)
        try:
            hello = await read_hello(endpoint, self.config.timeout_s)
            if hello is None:
                await endpoint.close()
                return
            record = await _admitted(endpoint, hello, self._admit)
            if isinstance(record, SessionRecord):
                endpoint.on_frame = record._touch
                record._touch()
                record.inbox.put_nowait(endpoint)
        except (ConnectionError, OSError, *_TIMEOUTS):
            await endpoint.close()
        except asyncio.CancelledError:
            await endpoint.close()
            raise

    def _admit(self, protocol: Any, session_id: int) -> Any:
        """This server's admission rule: the record that owns
        ``session_id`` (reserved now for a new session, whose task
        starts building it), or a refusal."""
        if protocol not in self.offers:
            return f"protocol {protocol!r} not served here"
        with self._lock:
            record = self.sessions.get(session_id)
            if record is not None:
                if record.status in _ACTIVE_STATUSES:
                    return record
                return f"session {session_id} already {record.status}"
            if self._draining.is_set():
                reason = "server draining"
            elif len(self._live) >= self.max_sessions:
                reason = f"server at capacity ({self.max_sessions} sessions)"
            else:
                # Reconnects queue on the inbox while the task builds
                # (or recovers) the session.
                record = self.sessions[session_id] = SessionRecord(
                    session_id=session_id, protocol=protocol
                )
                self._live[session_id] = record
                record.task = asyncio.get_running_loop().create_task(
                    self._host(record)
                )
                return record
            self.rejected_busy += 1
        _log.info("busy refusal session=%d reason=%s", session_id, reason)
        return ("busy", reason, self.busy_retry_hint_s)

    # ------------------------------------------------------------------
    # Session tasks (event-loop side; the executor for what computes)
    # ------------------------------------------------------------------
    async def _host(self, record: SessionRecord) -> None:
        """One admitted session, start to finish, as a task on the loop.

        A fresh session is built in place; one whose journal is on disk
        is recovered - a full cryptographic replay - on the executor so
        hello routing stays live. Then its core runs under the asyncio
        shell, every ``OPEN`` adopting the next connection routed to
        this record. Cancelling this task is how the reaper and the
        drain abort a session.
        """
        try:
            if self._journaled(record):
                loop = asyncio.get_running_loop()
                record.session = await loop.run_in_executor(
                    self._executor, self._make_session,
                    record.protocol, record.session_id,
                )
            else:
                record.session = self._make_session(
                    record.protocol, record.session_id
                )
            record.stats = record.session.stats
            record.status = "running"
            crash_point("server.session.run")
            await run_async(
                record.session.steps(),
                lambda: self._adopt(record),
                self._executor,
            )
            record.status = "done"
        except asyncio.CancelledError:
            record.status = "expired"
            if record.error is None:
                record.error = SessionAborted("server stopped")
        except (Exception, SimulatedCrash) as exc:
            # Whatever went wrong ends this session, never the server.
            if record.session is None:
                await self._fail_start(record, exc)
                return
            record.status = "failed"
            record.error = exc
        if record.stats is not None:
            record.stats.finish()
        unadopted = self._retire(record)
        if self.recorder is not None:
            self.recorder.add_session(record.as_dict())
        with self._finished:
            self._finished.notify_all()
        while not unadopted.empty():
            await unadopted.get_nowait().close()

    def _retire(
        self, record: SessionRecord
    ) -> "asyncio.Queue[AsyncFrameEndpoint]":
        """Free a terminal record's slot and everything but its summary;
        returns the inbox, whose connections nobody will adopt now."""
        with self._lock:
            self._live.pop(record.session_id, None)
        inbox, record.inbox = record.inbox, None
        record.session = record.task = None
        return inbox

    async def _adopt(self, record: SessionRecord) -> AsyncFrameEndpoint:
        """A session's ``OPEN``: the next connection routed to it."""
        wait_s = self.config.timeout_s
        try:
            return await asyncio.wait_for(record.inbox.get(), wait_s)
        except _TIMEOUTS:
            raise TimeoutError(
                f"no client (re)connected to session "
                f"{record.session_id} in {wait_s}s"
            ) from None

    def _journaled(self, record: SessionRecord) -> bool:
        """Whether a journal for this record's id is already on disk."""
        return self.journal_dir is not None and self.journal_dir.path_for(
            "sender", record.protocol, record.session_id
        ).exists()

    def _make_session(self, protocol: str, session_id: int) -> Any:
        """A fresh or journal-recovered session for a reserved id, its
        S built by the offer's factory for that id.

        :func:`~repro.net.journal.open_session` on this id's own
        journal path - never a directory-wide scan, which would touch
        journals that other, currently-running sessions are appending
        to. The lookup itself is read-only; the repairing open happens
        only on the path this id now owns.

        Raises:
            JournalError: the journal is unreadable or replay diverges.
        """
        offer = self.offers[protocol]
        make_sender = functools.partial(offer.make_sender, session_id)
        make_sender.size = getattr(offer.make_sender, "size", None)
        core, _ = open_session(
            "sender", protocol, make_sender, params=offer.params,
            journal_dir=self.journal_dir, session_id=session_id,
            config=self.config, recorder=self.recorder,
            chunk_size=self.chunk_size,
        )
        return core

    async def _fail_start(
        self, record: SessionRecord, exc: BaseException
    ) -> None:
        """Session setup failed: free the id and reject queued clients.

        Every client queued on the reserved slot (the one that
        triggered recovery plus any reconnects that raced in) gets a
        typed reject instead of a silent hang, and the session id
        becomes retryable. An unrecoverable journal (a
        :class:`~repro.net.journal.JournalError`) is set aside as
        ``*.corrupt``, so the retry starts over on a fresh journal
        while the bad file stays for forensics.
        """
        quarantined = (
            self._quarantine(record.protocol, record.session_id, exc)
            if isinstance(exc, JournalError)
            else None
        )
        with self._finished:
            self.sessions.pop(record.session_id, None)
            self._live.pop(record.session_id, None)
            self._finished.notify_all()
        reason = (
            f"journal recovery for session {record.session_id} failed: {exc}"
        )
        if quarantined is not None:
            reason += f" (journal quarantined as {quarantined.name})"
        # The id is free, so nothing more can queue behind these.
        while not record.inbox.empty():
            await _refuse(record.inbox.get_nowait(), "reject", reason)

    def _quarantine(
        self, protocol: str, session_id: int, reason: BaseException
    ) -> Path | None:
        """Rename an unrecoverable ``*.wal`` to ``*.corrupt``."""
        if self.journal_dir is None:
            return None
        path = self.journal_dir.path_for("sender", protocol, session_id)
        target = path.with_suffix(CORRUPT_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            return None  # already gone (or never created)
        self.quarantined.append(target)
        _log.warning("journal quarantined path=%s reason=%s", target, reason)
        return target

    # ------------------------------------------------------------------
    # The reaper (event-loop side)
    # ------------------------------------------------------------------
    def _abort(self, record: SessionRecord, reason: str) -> None:
        """Cancel a live session's task, once (loop thread only)."""
        if record.status in _ACTIVE_STATUSES and record.error is None:
            record.error = SessionAborted(
                f"session {record.session_id} aborted by the supervisor: "
                f"{reason}"
            )
            record.task.cancel()

    async def _reap_loop(self) -> None:
        while not self._closed.is_set():
            now = time.monotonic()
            with self._lock:
                running = [
                    r for r in self._live.values() if r.status == "running"
                ]
            for record in running:
                if (
                    self.session_deadline_s is not None
                    and now - record.started_at > self.session_deadline_s
                ):
                    self._abort(record, "session deadline exceeded")
                elif (
                    self.idle_timeout_s is not None
                    and now - record.last_activity > self.idle_timeout_s
                ):
                    self._abort(record, "idle timeout")
            await asyncio.sleep(self._REAP_POLL_S)


# ----------------------------------------------------------------------
# One session on a listener: the one-shot S and a serving Peer
# ----------------------------------------------------------------------
def host_session(
    listener: socket.socket,
    config: SessionConfig,
    admit: Callable[[Any, int], Any],
    endpoint_wrapper: Callable[[AsyncFrameEndpoint], Any] | None = None,
) -> tuple[Any, Any]:
    """Party S's one session on ``listener``, built for the hello that
    asks for it; returns ``(core, state)``, the core and the party state
    its run ended with.

    A session hosted as :class:`ProtocolServer` hosts each of its own:
    the first valid hello (:func:`~repro.net.aio.read_hello`) goes
    through the admission step, where ``admit(protocol, session_id)``
    returns the session core to run - from
    :func:`~repro.net.journal.open_session` on the journal the hello's
    id names - or a reason, which the client gets a typed ``reject``
    for and which is raised here as
    :class:`~repro.net.session.HandshakeError`. The core then runs
    under :func:`~repro.net.aio.run_async` on an event loop of this
    call's own, every later ``OPEN`` accepting the next connection as
    a reconnect of that session. A connection is accepted only when
    the session asks for one, so a client early for a later session
    waits in the listener's backlog. Every accepted connection goes
    through ``endpoint_wrapper``. A client that says no hello within
    ``timeout_s x max_attempts`` is dropped and the next one accepted,
    as often as the config allows reconnects; then the call ends in a
    :class:`~repro.net.session.SessionError`. A failed session raises
    its failure. ``listener`` is left open.
    """
    budget_s = config.timeout_s * config.retry.max_attempts

    async def accept() -> Any:
        return await _accept(listener, budget_s, endpoint_wrapper)

    async def host() -> tuple[Any, Any]:
        failure: BaseException | None = None
        for _ in range(config.max_reconnects + 1):
            try:
                endpoint = await accept()
            except (TimeoutError, OSError) as exc:  # nobody connected
                failure = exc
                continue
            try:
                hello = await read_hello(endpoint, budget_s)
                core = hello and await _admitted(endpoint, hello, admit)
            except BaseException:
                await endpoint.close()
                raise
            if hello is None:
                failure = ConnectionError("the client sent no valid hello")
                await endpoint.close()
            elif isinstance(core, tuple):
                raise HandshakeError(
                    f"refused the client's {hello[1][2]!r} query: {core[1]}"
                )
            else:
                links = [endpoint]

                async def dial() -> Any:
                    return links.pop() if links else await accept()

                return core, await run_async(core.steps(), dial)
        raise SessionError(f"no client sent a valid hello: {failure}") from failure

    listener.setblocking(False)
    return asyncio.run(host())


async def _accept(
    listener: socket.socket,
    timeout_s: float,
    wrap: Callable[[AsyncFrameEndpoint], Any] | None,
) -> Any:
    """The next client of ``listener``, as a framed endpoint."""
    loop = asyncio.get_running_loop()
    try:
        sock, _addr = await asyncio.wait_for(loop.sock_accept(listener), timeout_s)
    except _TIMEOUTS:
        raise TimeoutError("no client (re)connected in time") from None
    # asyncio sets TCP_NODELAY only on sockets whose ``proto`` names TCP,
    # and a listener made with proto 0 accepts none: a frame left to
    # Nagle waits out the peer's delayed ack (40 ms).
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    endpoint = AsyncFrameEndpoint(*await asyncio.open_connection(sock=sock))
    try:
        return endpoint if wrap is None else wrap(endpoint)
    except BaseException:
        await endpoint.close()
        raise


"""Session-sharded serving: one routing front end, N supervised workers.

One :class:`~repro.net.server.ProtocolServer` scales to the sessions a
single process can crypto for; past that the bottleneck is the GIL and
one process's executor, not the sockets. This module splits the roles:

* **workers** - plain :class:`ProtocolServer` instances, each forked
  into its own child process (real parallel crypto) with its own event
  loop, worker pool, and journal subdirectory ``shard-<i>/``;
* **front end** - a :class:`ShardedProtocolServer` accept/route loop
  that owns the public port. It reads frames off a new connection just
  far enough to find the first valid ``hello`` - with the worker's own
  reader, :func:`~repro.net.aio.read_hello` - takes the session id
  from it (a non-integer one gets the worker's typed ``reject``), and
  hands the connection over to worker ``session_id % shards``: the
  socket itself (``SCM_RIGHTS``) and every byte read off it so far, in
  one datagram on that worker's ``AF_UNIX`` ``SOCK_SEQPACKET``
  *channel* (:meth:`ProtocolServer.accept_handoffs`). From then on the
  front end reads nothing from the connection; client and worker talk
  over the one TCP connection with nothing in between. It keeps a
  duplicate of the socket only so that it can still answer the client
  if the worker dies, and drops the duplicate when the worker sends the
  token back (``closed``). The front end never unseals payloads beyond
  the hello and holds no session state.

Routing by ``session_id % shards`` is what makes *reconnects* work:
the id in every hello is stable across a client's reconnect attempts,
so a resumed session always lands on the worker that owns its journal.

**Self-healing.** Workers are supervised: each worker sends
periodic ``("hb", shard, sessions, ts)`` heartbeat frames up its
control pipe, and a supervisor thread on the front end sweeps every
shard - reaping exits via the process table (``Process.is_alive`` is
a ``waitpid(WNOHANG)``) and treating a missed-heartbeat deadline as a
hung worker, which it SIGKILLs. A dead worker is respawned against the
*same* per-shard journal directory after an exponential backoff, so
every journaled session a crash stranded is recovered by the existing
``recover_*`` machinery the moment its client reconnects. Respawns are
capped by a per-shard restart budget; past it the shard is marked
``failed`` and its hellos get a typed permanent reject while the other
shards keep serving. The per-shard lifecycle is::

    alive --exit/hang--> dead --budget left--> respawning --> alive
                           \\--budget spent--> failed

While a shard is down, the front end never lets a client see a raw
socket reset. A worker's death is EOF on its channel: every connection
the front end still holds a duplicate of for that worker - and any
hello routed at a dead or respawning shard - is answered with a typed
``worker-lost`` frame (the busy wire shape under its own tag, retry
hint included) and then closed cleanly. The session layer raises it as
:class:`~repro.net.session.WorkerLost` and reconnects-and-resumes onto
the respawned worker.

Wire bytes are otherwise untouched: a client cannot tell a sharded
server from a flat one (same hello/welcome/busy/reject frames, same
CRC seals), and each worker journals exactly what a standalone server
would.

Workers are started by **fork** (party factories are closures over
live data and do not pickle), so sharding is POSIX-only; construction
fails fast elsewhere. Handing a socket over needs ``AF_UNIX``
``SOCK_SEQPACKET`` and ``SCM_RIGHTS`` (Linux has both). A worker's
session summaries reach the front end when it drains
(:meth:`ShardedProtocolServer.results`), and nothing else of its state
ever does - which is why a ``recorder=`` is refused rather than handed
to copies that never report back. The initial workers are forked
*before* the front end's event-loop thread starts; respawns
necessarily fork later, but the child immediately builds its own loop,
touches none of the parent's threads, and lets go of every socket it
inherited but its own two: the public listener, the connections the
front end holds, the other shards' channels.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import multiprocessing
import os
import signal
import socket
import stat
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import serialization
from .aio import AsyncFrameEndpoint, LoopThread, _TIMEOUTS, read_hello
from .server import HANDOFF_MAX_BYTES, HANDOFF_TOKEN, ProtocolOffer, ProtocolServer, _drain_on_signals, _refusal_frame, _refuse
from .session import SessionConfig
from .tcp import _LEN

__all__ = ["ShardedProtocolServer"]

#: Ceiling on the exponential pause between respawns of one shard.
_RESPAWN_BACKOFF_CAP_S = 2.0

_log = logging.getLogger(__name__)

#: How long a freshly forked worker gets to report its port.
_SPAWN_TIMEOUT_S = 30.0


def _release_inherited_sockets(keep: set[int]) -> None:
    """Let go of every socket this forked process inherited but ``keep``.

    A worker forked while the front end runs (a respawn) would otherwise
    hold the public listener - a client could still connect after the
    front end closed it, and wait on nobody - as well as the
    connections the front end holds and the other shards' channels. Each
    one is overwritten with ``/dev/null`` rather than closed, so its
    number stays taken: a socket object of the front end's that this
    process collects later closes ``/dev/null``, never a socket of the
    worker's own.
    """
    null = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir("/dev/fd")):
        # (The listing's own descriptor is closed by now: OSError.)
        with contextlib.suppress(OSError):
            if fd > 2 and fd not in keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
    os.close(null)


def _worker_main(
    offers: list[ProtocolOffer],
    kwargs: dict[str, Any],
    conn: Any,
    channel: socket.socket,
    shard_index: int,
    heartbeat_s: float,
) -> None:
    """Child-process entry: serve one shard until told to drain.

    Connections arrive on ``channel`` from the front end
    (:meth:`ProtocolServer.accept_handoffs`). Between control messages
    the worker emits ``("hb", shard, active_sessions, wall_ts)`` every
    ``heartbeat_s`` seconds; the parent's supervisor treats their
    absence as a hang. A ``("wedge", seconds)`` message - the
    chaos/test hook behind the heartbeat-hang axis - stops the control
    loop (heartbeats included) for that long, exactly what a worker
    stuck in a pathological syscall looks like from the outside.
    """
    _release_inherited_sockets({conn.fileno(), channel.fileno()})
    # A terminal Ctrl-C signals the whole process group; workers must
    # outlive it so the front end's pipe-driven drain (which the
    # parent's own handler triggers) can journal a clean stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = ProtocolServer(offers, **kwargs).start()
    server.accept_handoffs(channel)
    try:
        conn.send(("port", server.port))
        last_hb = 0.0  # send the first heartbeat immediately
        while True:
            now = time.monotonic()
            if now - last_hb >= heartbeat_s:
                try:
                    conn.send(("hb", shard_index,
                               server.active_sessions(), time.time()))
                except (BrokenPipeError, OSError):
                    pass
                last_hb = now
            wait = max(heartbeat_s - (time.monotonic() - last_hb), 0.01)
            try:
                if not conn.poll(wait):
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                # Parent died: drain nothing, just stop cleanly so the
                # journals are consistent.
                server.shutdown(drain_timeout_s=0)
                return
            if message[0] == "shutdown":
                server.shutdown(drain_timeout_s=message[1])
                try:
                    conn.send(("results", server.results()))
                except (BrokenPipeError, OSError):
                    pass
                return
            if message[0] == "wedge":
                time.sleep(message[1])
    finally:
        conn.close()


class _Shard:
    """Front-end handle on one forked worker.

    ``state`` walks alive -> dead -> respawning -> alive (or ``failed``
    once the restart budget is spent).
    """

    def __init__(self, index: int):
        self.index = index
        self.port: int | None = None
        self.process: Any = None
        self.conn: Any = None
        self.channel: _Channel | None = None
        self.results: list[dict[str, Any]] = []
        self.state = "alive"
        self.restarts = 0
        self.active_sessions = 0
        self.last_heartbeat = time.monotonic()
        self.respawn_at = 0.0


class _Channel:
    """A fresh handoff channel to one worker: ``sock`` is the front
    end's end, ``theirs`` the worker's. ``held`` maps the token of every
    connection handed over on it that the worker has not said it closed
    to the front end's duplicate of its socket."""

    def __init__(self) -> None:
        self.sock, self.theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.sock.setblocking(False)
        self.held: dict[int, socket.socket] = {}


class ShardedProtocolServer:
    """N supervised worker servers behind one hello-routing public port.

    Accepts every :class:`ProtocolServer` keyword argument and forwards
    them to each worker unchanged, except ``journal_dir``, which is
    namespaced per shard (``<journal_dir>/shard-<i>``) so workers never
    contend for each other's journals, ``max_sessions``, which is
    the **per-worker** ceiling (total capacity = ``shards x
    max_sessions``), and ``recorder``, which raises :class:`TypeError`:
    a forked worker's recorder is a copy that never reports back.

    Args:
        offers: as for :class:`ProtocolServer` (offers or mapping).
        shards: worker count; session ``sid`` is served by worker
            ``sid % shards``.
        worker_processes: must be ``True``, the only mode: every worker
            is forked into its own process. ``False`` (the in-process
            workers that are gone) raises :class:`ValueError`.
        journal_fsync: fsync policy for the per-shard journal dirs
            (pass ``False`` for throughput benches where crash
            durability across power loss is not the point).
        restart_budget: respawns allowed per shard before it is marked
            ``failed`` (0 = never respawn).
        heartbeat_s: worker heartbeat period on the control pipe.
        heartbeat_timeout_s: missed-heartbeat deadline after which a
            live-but-silent worker is declared hung and killed
            (default ``4 * heartbeat_s``).
        respawn_backoff_s: base of the exponential pause before each
            respawn (doubled per restart, capped at 2 s).
    """

    def __init__(
        self,
        offers: Iterable[ProtocolOffer] | Mapping[str, tuple[Any, Any]],
        shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_processes: bool = True,
        config: SessionConfig | None = None,
        journal_dir: Any = None,
        journal_fsync: bool = True,
        backlog: int = 128,
        restart_budget: int = 3,
        heartbeat_s: float = 1.0,
        heartbeat_timeout_s: float | None = None,
        respawn_backoff_s: float = 0.1,
        **worker_kwargs: Any,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if not worker_processes:
            raise ValueError(
                "in-process shard workers are gone: every worker is a "
                "forked process (worker_processes= stays only until the "
                "perf/ workloads stop passing it, ROADMAP H(4))"
            )
        if "recorder" in worker_kwargs:
            raise TypeError(
                "ShardedProtocolServer takes no recorder=: each forked "
                "worker would fold its sessions into its own copy, which "
                "never reports back"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "sharding needs the fork start method "
                "(party factories are closures and do not pickle)"
            )
        if isinstance(offers, Mapping):
            offers = [
                ProtocolOffer.from_data(name, data, params)
                for name, (data, params) in offers.items()
            ]
        self.offers = list(offers)
        self.shards = shards
        self.host = host
        self.requested_port = port
        self.config = config or SessionConfig()
        self.journal_dir = journal_dir
        self.journal_fsync = journal_fsync
        self.backlog = backlog
        self.restart_budget = restart_budget
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = (
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else heartbeat_s * 4
        )
        self.respawn_backoff_s = respawn_backoff_s
        self.worker_kwargs = worker_kwargs
        self.routed = 0
        self.refused_unroutable = 0
        self.refused_failed = 0
        self.worker_lost_notices = 0
        self.worker_deaths = 0
        self.hung_workers = 0
        self.respawns = 0
        self.drain_report: list[dict[str, Any]] = []
        self._poll_s = min(max(heartbeat_s / 4, 0.01), 0.1)
        self._shards: list[_Shard] = []
        self._loop_thread: LoopThread | None = None
        self._aserver: asyncio.AbstractServer | None = None
        self._bound_port: int | None = None
        self._supervisor: threading.Thread | None = None
        self._stop_supervisor = threading.Event()
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The public (front-end) port, valid after :meth:`start`."""
        if self._bound_port is None:
            raise RuntimeError("server not started")
        return self._bound_port

    def _worker_config(self, index: int) -> dict[str, Any]:
        kwargs = dict(
            host="127.0.0.1",
            port=0,
            config=self.config,
            **self.worker_kwargs,
        )
        if self.journal_dir is not None:
            from .journal import JournalDir

            kwargs["journal_dir"] = JournalDir(
                Path(self.journal_dir) / f"shard-{index}",
                fsync=self.journal_fsync,
            )
        return kwargs

    def _spawn_worker(self, shard: _Shard) -> None:
        """Fork one worker for ``shard`` and wait for its port.

        Used both at :meth:`start` and on every respawn - crucially
        with the *same* ``_worker_config`` (same ``shard-<i>`` journal
        dir), which is what lets a respawned worker recover every
        session its predecessor journaled.
        """
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        channel = _Channel()
        shard.process = ctx.Process(
            target=_worker_main,
            args=(self.offers, self._worker_config(shard.index), child_conn,
                  channel.theirs, shard.index, self.heartbeat_s),
            daemon=True,
            name=f"repro-shard-{shard.index}",
        )
        shard.process.start()
        child_conn.close()
        channel.theirs.close()
        shard.conn = parent_conn
        if not parent_conn.poll(_SPAWN_TIMEOUT_S):
            raise RuntimeError(f"shard {shard.index} failed to start")
        tag, value = parent_conn.recv()
        if tag != "port":
            raise RuntimeError(
                f"shard {shard.index} failed to start: {value!r}"
            )
        shard.port = value
        shard.channel = channel
        shard.state = "alive"
        shard.active_sessions = 0
        shard.last_heartbeat = time.monotonic()

    def start(self) -> "ShardedProtocolServer":
        """Start every worker, the routing front end, the supervisor.

        Workers are forked *before* the front end's event-loop thread
        exists, so children never inherit a half-locked loop.
        """
        if self._loop_thread is not None:
            raise RuntimeError("server already started")
        for index in range(self.shards):
            shard = _Shard(index)
            self._spawn_worker(shard)
            self._shards.append(shard)
        self._loop_thread = LoopThread(name="repro-shard-front").start()
        self._loop_thread.run(self._start_async(), timeout=30)
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name="repro-shard-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        return self

    async def _start_async(self) -> None:
        for shard in self._shards:
            self._watch(shard)
        self._aserver = await asyncio.start_server(
            self._route_client,
            self.host,
            self.requested_port,
            backlog=self.backlog,
        )
        self._bound_port = self._aserver.sockets[0].getsockname()[1]

    def __enter__(self) -> "ShardedProtocolServer":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Drain briefly and close on exit."""
        self.shutdown(drain_timeout_s=self.config.timeout_s)

    @property
    def draining(self) -> bool:
        """Whether a shutdown/drain has begun."""
        return self._draining.is_set()

    def install_signal_handlers(
        self, drain_timeout_s: float = 5.0, signals: tuple | None = None
    ) -> None:
        """Drain gracefully on SIGTERM (and SIGINT by default).

        See :func:`~repro.net.server._drain_on_signals`. Worker
        processes are daemonized children; the front end's drain is
        what stops them cleanly.
        """
        _drain_on_signals(self, drain_timeout_s, signals)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        """Sweep every shard until shutdown stops us."""
        while not self._stop_supervisor.wait(self._poll_s):
            now = time.monotonic()
            for shard in self._shards:
                try:
                    self._check_shard(shard, now)
                except Exception:
                    # A supervision hiccup on one shard must not stop
                    # the sweep for the others.
                    pass

    def _check_shard(self, shard: _Shard, now: float) -> None:
        if shard.state == "failed":
            return
        self._absorb_heartbeats(shard, now)
        if shard.state == "respawning":
            if now >= shard.respawn_at:
                self._respawn(shard)
            return
        # is_alive() reaps an exited child via waitpid(WNOHANG).
        exited = not shard.process.is_alive()
        hung = (
            not exited
            and now - shard.last_heartbeat > self.heartbeat_timeout_s
        )
        if not exited and not hung:
            return
        if hung:
            # Alive but silent past the deadline: a wedged worker is
            # indistinguishable from a dead one to its sessions, so
            # make it actually dead and take the respawn path.
            self.hung_workers += 1
            try:
                shard.process.kill()
            except (OSError, AttributeError):
                pass
            shard.process.join(timeout=5)
        self.worker_deaths += 1
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        shard.port = None
        shard.active_sessions = 0
        shard.state = "dead"  # stop routing at the corpse immediately
        self._schedule_respawn_or_fail(shard, now)

    def _absorb_heartbeats(self, shard: _Shard, now: float) -> None:
        try:
            while shard.conn is not None and shard.conn.poll(0):
                message = shard.conn.recv()
                if message[0] == "hb":
                    shard.last_heartbeat = now
                    shard.active_sessions = message[2]
        except (EOFError, OSError):
            pass  # the exit/hang checks below classify this

    def _schedule_respawn_or_fail(self, shard: _Shard, now: float) -> None:
        if shard.restarts >= self.restart_budget:
            shard.state = "failed"
            return
        delay = min(
            self.respawn_backoff_s * (2.0 ** shard.restarts),
            _RESPAWN_BACKOFF_CAP_S,
        )
        shard.state = "respawning"
        shard.respawn_at = now + delay

    def _respawn(self, shard: _Shard) -> None:
        shard.restarts += 1
        self.respawns += 1
        _log.warning("respawn shard=%d restarts=%d", shard.index, shard.restarts)
        try:
            self._spawn_worker(shard)
        except Exception:
            # The fork or the port handshake failed: count it against
            # the budget and back off further.
            shard.state = "dead"
            self._schedule_respawn_or_fail(shard, time.monotonic())
            return
        self._loop_thread.loop.call_soon_threadsafe(self._watch, shard)

    def _retry_hint_s(self, shard: _Shard) -> float:
        """What to tell a refused client about when to redial."""
        if shard.state == "respawning":
            remaining = max(shard.respawn_at - time.monotonic(), 0.0)
            return remaining + self._poll_s
        return self.respawn_backoff_s + self._poll_s

    # ------------------------------------------------------------------
    # Chaos / test hooks
    # ------------------------------------------------------------------
    def kill_worker(
        self, index: int, sig: int = signal.SIGKILL
    ) -> int | None:
        """Chaos hook: signal shard ``index``'s live worker process.

        Returns the pid signalled, or ``None`` when there was no live
        worker to kill (already dead, or failed).
        """
        process = self._shards[index % self.shards].process
        if not process.is_alive():
            return None
        try:
            os.kill(process.pid, sig)
        except (ProcessLookupError, OSError):
            return None
        return process.pid

    def wedge_worker(self, index: int, wedge_s: float) -> bool:
        """Chaos hook: stop shard ``index``'s control loop for a while.

        The worker keeps serving its sessions but stops heartbeating -
        the observable signature of a hung process - so the supervisor
        kills and respawns it once the deadline passes.
        """
        shard = self._shards[index % self.shards]
        if shard.conn is None or shard.state != "alive":
            return False
        try:
            shard.conn.send(("wedge", float(wedge_s)))
        except (BrokenPipeError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> list[dict[str, Any]]:
        """One snapshot row per shard: pid, state, restarts, sessions.

        ``active_sessions`` and ``heartbeat_age_s`` reflect the worker's
        most recent heartbeat.
        """
        now = time.monotonic()
        return [
            {
                "shard": shard.index,
                "state": shard.state,
                "pid": shard.process.pid,
                "port": shard.port,
                "restarts": shard.restarts,
                "active_sessions": shard.active_sessions,
                "heartbeat_age_s": round(now - shard.last_heartbeat, 3),
            }
            for shard in self._shards
        ]

    # ------------------------------------------------------------------
    # Shutdown / drain
    # ------------------------------------------------------------------
    def shutdown(self, drain_timeout_s: float | None = 5.0) -> None:
        """Stop accepting, drain every worker, then stop the front end.

        The front end closes its listener first; connections already
        handed over belong to their workers, so in-flight sessions keep
        running for the whole drain window. Dead, failed, and
        respawning shards are reaped without waiting on their control
        pipes, and every shard's outcome lands in :attr:`drain_report`.
        Once the workers are gone, a connection the front end still
        holds is answered as one whose worker died. Idempotent.
        """
        self._draining.set()
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            # Stop the supervisor first: the drain owns the control
            # pipes from here on, and a respawn racing the drain would
            # resurrect a worker we are trying to stop.
            self._stop_supervisor.set()
            if self._supervisor is not None:
                self._supervisor.join(timeout=10)
            if self._loop_thread is not None and self._aserver is not None:
                try:
                    self._loop_thread.run(self._close_listener(), timeout=10)
                except Exception:
                    pass
            drain = drain_timeout_s if drain_timeout_s is not None else 0
            report: list[dict[str, Any]] = []
            pending: list[_Shard] = []
            for shard in self._shards:
                if (
                    shard.state == "alive"
                    and shard.conn is not None
                    and shard.process.is_alive()
                ):
                    try:
                        shard.conn.send(("shutdown", drain))
                        pending.append(shard)
                        continue
                    except (BrokenPipeError, OSError):
                        pass  # died under us: report below
                report.append({
                    "shard": shard.index,
                    "state": shard.state if shard.state != "alive" else "dead",
                    "restarts": shard.restarts,
                    "sessions": len(shard.results),
                })
            for shard in pending:
                report.append(self._drain_worker(shard, drain))
            # waitpid sweep: every forked child, including long-dead
            # ones, is joined with a bounded timeout and escalated.
            for shard in self._shards:
                shard.process.join(timeout=self.config.timeout_s * 2)
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(timeout=5)
                if shard.process.is_alive():
                    shard.process.kill()
                    shard.process.join(timeout=5)
                if shard.conn is not None:
                    shard.conn.close()
                    shard.conn = None
            self.drain_report = sorted(report, key=lambda r: r["shard"])
            if self._loop_thread is not None:
                # Runs on the loop before stop()'s cancellations do.
                self._loop_thread.loop.call_soon_threadsafe(self._drop_channels)
                self._loop_thread.stop()
            self._closed.set()
            self._shutdown_done = True

    def _drain_worker(self, shard: _Shard, drain: float) -> dict[str, Any]:
        """Wait (bounded) for one live worker's drain results."""
        deadline = time.monotonic() + drain + self.config.timeout_s * 2
        state = "drain-timeout"
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                if not shard.conn.poll(remaining):
                    break
                message = shard.conn.recv()
            except (EOFError, OSError):
                state = "dead"  # worker died mid-drain
                break
            if message[0] == "results":
                shard.results = message[1]
                state = "drained"
                break
            # Late heartbeats racing the drain: absorb, keep waiting.
        return {
            "shard": shard.index, "state": state,
            "restarts": shard.restarts, "sessions": len(shard.results),
        }

    async def _close_listener(self) -> None:
        self._aserver.close()
        await self._aserver.wait_closed()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` has completed."""
        return self._closed.wait(timeout)

    def results(self) -> list[dict[str, Any]]:
        """Session summaries from every shard, tagged with ``"shard"``.

        Workers report their sessions when they drain, so this is empty
        until :meth:`shutdown`. Sessions a killed worker never got to
        report are absent - their ground truth lives in the shard's
        journal directory.
        """
        return [
            {**row, "shard": shard.index}
            for shard in self._shards
            for row in shard.results
        ]

    # ------------------------------------------------------------------
    # Routing (event-loop side)
    # ------------------------------------------------------------------
    async def _route_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One public connection: find its hello, hand it to its shard."""
        endpoint = AsyncFrameEndpoint(reader, writer)
        try:
            hello = await read_hello(endpoint, self.config.timeout_s)
            if hello is None:
                self.refused_unroutable += 1
                return
            frames, fields = hello
            session_id = fields[3]
            if not isinstance(session_id, int):
                self.refused_unroutable += 1
                await _refuse(endpoint, "reject", "malformed session id")
                return
            shard = self._shards[session_id % self.shards]
            if shard.state == "failed":
                self.refused_failed += 1
                await _refuse(
                    endpoint, "reject",
                    f"shard {shard.index} is failed "
                    "(worker restart budget exhausted)",
                )
                return
            channel = shard.channel
            if shard.state == "alive" and channel is not None:
                # Read nothing more. Every frame read goes on, garbled
                # seals included - the worker judges them as if the
                # client had dialed it - and so does whatever arrived
                # behind the hello.
                writer.transport.pause_reading()
                data = b"".join(_LEN.pack(len(raw)) + raw for raw in frames)
                data += bytes(reader._buffer)
                if len(data) > HANDOFF_MAX_BYTES:
                    self.refused_unroutable += 1
                    return
                # Our duplicate, held until the worker sends its token back.
                held = writer.get_extra_info("socket").dup()
                token = held.fileno()
                try:
                    socket.send_fds(channel.sock, [HANDOFF_TOKEN.pack(token) + data], [token])
                    channel.held[token] = held
                    self.routed += 1
                    return
                except OSError:
                    held.close()  # the worker is gone, or that far behind
            self.worker_lost_notices += 1
            _log.info("worker-lost notice shard=%d", shard.index)
            await _refuse(
                endpoint, "worker-lost",
                f"shard {shard.index} worker is respawning",
                retry_after_s=self._retry_hint_s(shard),
            )
        except (ConnectionError, OSError, *_TIMEOUTS):
            pass
        finally:
            # A handed-over connection lives on in the worker (and in
            # the channel's duplicate): this closes only our descriptor.
            await endpoint.close()

    def _watch(self, shard: _Shard) -> None:
        """Start reading a shard's current channel (loop thread)."""
        asyncio.get_running_loop().add_reader(
            shard.channel.sock, self._on_channel, shard, shard.channel
        )

    def _on_channel(self, shard: _Shard, channel: _Channel) -> None:
        """Reader callback on a worker's channel: drop the duplicates of
        the connections the worker closed; EOF means the worker is gone."""
        while True:
            try:
                data = channel.sock.recv(HANDOFF_TOKEN.size)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                self._channel_lost(shard, channel)
                return
            held = channel.held.pop(HANDOFF_TOKEN.unpack(data)[0], None)
            if held is not None:
                held.close()

    def _channel_lost(self, shard: _Shard, channel: _Channel) -> None:
        """The worker behind ``channel`` is gone: every connection it
        still had gets a typed worker-lost frame, then a clean close."""
        asyncio.get_running_loop().remove_reader(channel.sock)
        channel.sock.close()
        if shard.channel is channel:
            shard.channel = None
        payload = serialization.encode(_refusal_frame(
            "worker-lost",
            f"shard {shard.index} worker connection was lost mid-session",
            self._retry_hint_s(shard),
        ))
        # A drained worker's EOF at shutdown is the end of its life, not
        # a loss - unless it left a connection to answer as lost.
        drained = self._draining.is_set() and not channel.held
        _log.log(
            logging.DEBUG if drained else logging.WARNING,
            "worker lost shard=%d notices=%d", shard.index, len(channel.held),
        )
        for held in channel.held.values():
            self.worker_lost_notices += 1
            held.setblocking(False)
            with contextlib.suppress(OSError):
                # Closing over bytes nobody read would reset the
                # connection instead of ending it: drain them first.
                while held.recv(65536):
                    pass
            with contextlib.suppress(OSError):
                held.send(_LEN.pack(len(payload)) + payload)  # best effort
            held.close()
        channel.held.clear()

    def _drop_channels(self) -> None:
        """Shutdown, every worker gone: hear what each said last (then
        its EOF), and answer what it left open as a lost worker's."""
        for shard in self._shards:
            if shard.channel is not None:
                self._on_channel(shard, shard.channel)

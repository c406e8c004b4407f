"""Asyncio transport core: the event loop owns sockets and framing.

The session rules live once, I/O-free, in
:mod:`repro.net.session_core`; what does not scale is giving every
hosted session its *own* blocking socket reader - thread-per-session
I/O hits the thread ceiling long before the protocol does. This module
puts a server's sockets on an event loop:

* **one event loop owns every socket** - :class:`AsyncFrameEndpoint`
  does the length-prefixed framing of :mod:`repro.net.tcp`
  (``u32 big-endian length || serialization payload``, same
  ``max_frame_bytes`` bound, same :class:`~repro.net.tcp.FrameTooLarge`
  teardown semantics) as coroutines on that loop, and
  :func:`read_hello` reads a fresh connection up to its hello, which
  is all the worker and the shard router need to route it;
* **the asyncio shell** - :func:`run_async` executes a session core's
  requests on the loop: frames through an :class:`AsyncFrameEndpoint`,
  and a machine step (hashing, modexp batches - optionally via a
  threaded :class:`~repro.crypto.engine.CryptoEngine`) in place when the
  core declares it small (:data:`INLINE_WORK`: a small session's steps
  cost about as much as the thread hop that would carry them), otherwise
  through the executor - so thousands of sessions can share one
  loop and a small thread pool. It is the one real-I/O shell, for both
  parties. Every session a :class:`~repro.net.server.ProtocolServer`
  hosts is S's core as a task on the server's own loop - no thread is
  parked per session and no frame changes threads - and the one-shot
  S's one session runs the same way
  (:func:`~repro.net.server.host_session`). Party R, one process asking
  one query, runs its core on its thread's own loop
  (:func:`~repro.net.tcp.connect_resumable_receiver`).

:class:`LoopThread` hosts one loop on a dedicated daemon thread with a
thread-safe ``run``/``submit`` surface; the supervised server
(:mod:`repro.net.server`) and the shard router (:mod:`repro.net.shard`)
both build on it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from collections import deque
from typing import Any, Awaitable, Callable

from . import serialization
from .session_core import (
    Ahead,
    Compute,
    Now,
    Open,
    Recv,
    Send,
    Sleep,
    is_hello,
    unseal,
)
from .tcp import _LEN, DEFAULT_MAX_FRAME_BYTES, FrameTooLarge

__all__ = [
    "INLINE_WORK",
    "AsyncFrameEndpoint",
    "LoopThread",
]

#: ``asyncio.wait_for`` raises ``asyncio.TimeoutError``, which is the
#: builtin ``TimeoutError`` only from 3.11 on; catch both for 3.10.
_TIMEOUTS = (TimeoutError, asyncio.TimeoutError)

#: Frames a fresh connection may send up to and including its hello. A
#: well-behaved client's first frame *is* its hello; the allowance
#: merely tolerates a burst of garbled retransmits.
_MAX_PREHELLO_FRAMES = 32


async def _within(awaitable: Awaitable[Any], timeout: float) -> Any:
    """``awaitable`` under a deadline, raising ``asyncio.TimeoutError``.

    ``asyncio.timeout`` (3.11 on) runs it in the caller's task;
    ``wait_for`` gives it a task of its own, a hop of the loop more per
    await - on 3.10, which has nothing else.
    """
    if hasattr(asyncio, "timeout"):
        async with asyncio.timeout(timeout):
            return await awaitable
    return await asyncio.wait_for(awaitable, timeout)


class AsyncFrameEndpoint:
    """Framed, serialized messaging on an asyncio stream pair.

    The exact wire format of :class:`~repro.net.tcp.SocketEndpoint` -
    the two are interchangeable peers on the same connection - with the
    same byte counters and the same :class:`~repro.net.tcp.FrameTooLarge`
    bound on hostile length prefixes. ``on_frame``, when set, is called
    after every frame moved in either direction (the supervised
    server's idle clock).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        self.reader = reader
        self.writer = writer
        self.max_frame_bytes = max_frame_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.on_frame: Callable[[], None] | None = None
        self._length: int | None = None  # of a frame whose header is read
        self._unread_payloads: list[bytes] = []

    async def send_bytes(self, payload: bytes) -> None:
        """Frame and ship one already-encoded payload."""
        frame = _LEN.pack(len(payload)) + payload
        self.writer.write(frame)
        await self.writer.drain()
        self.bytes_sent += len(frame)
        self.messages_sent += 1
        if self.on_frame is not None:
            self.on_frame()

    async def send(self, message: Any) -> None:
        """Serialize and ship one framed message."""
        await self.send_bytes(serialization.encode(message))

    async def recv_bytes(self) -> bytes:
        """Read one frame; return its raw (still-encoded) payload.

        Cancelling it loses no byte: ``readexactly`` takes nothing from
        the stream until it has all it asked for, and a frame whose
        header was read keeps its length here, so the next read goes on
        with its payload.

        Raises:
            FrameTooLarge: the length prefix exceeds
                ``max_frame_bytes`` (corrupt header or hostile peer).
            ConnectionError: the peer closed the stream mid-frame.
        """
        try:
            if self._length is None:
                header = await self.reader.readexactly(_LEN.size)
                (length,) = _LEN.unpack(header)
                if length > self.max_frame_bytes:
                    raise FrameTooLarge(
                        f"frame declares {length} bytes, limit is "
                        f"{self.max_frame_bytes} (corrupt length prefix?)"
                    )
                self._length = length
            payload = await self.reader.readexactly(self._length)
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError(
                "peer closed the connection mid-frame"
            ) from exc
        length, self._length = self._length, None
        self.bytes_received += _LEN.size + length
        if self.on_frame is not None:
            self.on_frame()
        return payload

    async def recv(self) -> Any:
        """Read and deserialize one framed message."""
        return serialization.decode(await self.recv_bytes())

    async def recv_bytes_within(self, timeout: float) -> bytes:
        """One frame's raw payload within ``timeout`` seconds.

        A timeout cancels the read, which :meth:`recv_bytes` makes safe
        even between a frame's header and its payload: the next call
        goes on where it stopped. The read runs in the caller's task
        (:func:`_within`), so a frame costs no task of its own.
        """
        if self._unread_payloads:
            return self._unread_payloads.pop(0)
        return await _within(self.recv_bytes(), max(timeout, 1e-3))

    async def recv_within(self, timeout: float) -> Any:
        """One decoded frame within ``timeout`` seconds."""
        return serialization.decode(await self.recv_bytes_within(timeout))

    def _unread(self, payloads: list[bytes]) -> None:
        """Push the payloads just read back: the next ``*_within`` reads
        return them, in order (a host hands an admitted connection,
        hello included, to its session this way)."""
        self._unread_payloads = list(payloads)

    async def close(self) -> None:
        """Close the underlying stream, tolerating a dead peer."""
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def read_hello(
    endpoint: AsyncFrameEndpoint, timeout_s: float
) -> tuple[list[bytes], tuple] | None:
    """Read a fresh connection up to its first well-formed hello.

    Returns every raw payload read, the hello's last, with the hello's
    unsealed fields - what it says is for the caller to judge. A
    garbled seal is read past (the client retransmits its hello); a
    frame that is not even wire format, no hello among the first
    ``_MAX_PREHELLO_FRAMES`` frames, ``timeout_s`` of silence or a
    dead connection give ``None``.
    """
    deadline = time.monotonic() + timeout_s
    frames: list[bytes] = []
    while len(frames) < _MAX_PREHELLO_FRAMES:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        try:
            raw = await endpoint.recv_bytes_within(remaining)
            frame = serialization.decode(raw)
        except (*_TIMEOUTS, ConnectionError, OSError, ValueError):
            return None
        frames.append(raw)
        try:
            fields = unseal(frame)
        except ValueError:
            continue
        if is_hello(fields):
            return frames, fields
    return None


class LoopThread:
    """One asyncio event loop on a dedicated daemon thread.

    The loop owns sockets; other threads talk to it through
    :meth:`submit` / :meth:`run`. Stopping cancels every task still on
    the loop, so abandoned connection handlers cannot outlive it.
    """

    def __init__(self, name: str = "repro-aio"):
        self.name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The running loop (valid after :meth:`start`)."""
        if self._loop is None:
            raise RuntimeError("loop thread not started")
        return self._loop

    def start(self) -> "LoopThread":
        """Create the loop and run it forever on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("loop thread already started")
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(ready.set)
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, name=self.name,
                                        daemon=True)
        self._thread.start()
        ready.wait(timeout=10)
        return self

    def submit(self, coro: Awaitable[Any]) -> concurrent.futures.Future:
        """Schedule a coroutine on the loop; return its future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro: Awaitable[Any], timeout: float | None = None) -> Any:
        """Run a coroutine on the loop and block for its result."""
        return self.submit(coro).result(timeout)

    def stop(self) -> None:
        """Cancel every pending task, stop the loop, join the thread."""
        if self._thread is None or self._loop is None:
            return

        async def _cancel_all() -> None:
            tasks = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        try:
            self.submit(_cancel_all()).result(timeout=5)
        except (concurrent.futures.TimeoutError, RuntimeError):
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if not self._thread.is_alive():
            self._loop.close()
        self._thread = None
        self._loop = None


#: The most declared work a machine step may do on the event loop
#: itself, in the unit of :data:`~repro.crypto.engine.THREAD_HOP`
#: (``exponent bits x modulus bits^2`` per exponentiation): one 1024-bit
#: exponentiation's, or sixty-four 256-bit ones - 0.4-0.9 ms with GMP,
#: the longest one step holds up the other sessions' frames. A step
#: declaring more, or nothing, pays the executor round trip (60-110 µs
#: of latency and as much CPU on the 2-CPU box of docs/PERFORMANCE.md,
#: "Hop only when it pays") and leaves the loop free while GMP, which
#: releases the interpreter, exponentiates. Measured there: small
#: sessions beside a big one are fastest with this limit; with every
#: step in place they wait out the big one's steps (256-bit |V| = 128:
#: p95 +24 %; 1024-bit |V| = 300: 12x), and with every step hopping
#: they pay the round trips (median +25-55 %). Every step of a
#: ``herd-small`` session (256 bits, n = 4) runs in place; none of a
#: 1024-bit one with hundreds of values does.
INLINE_WORK = 1024**3


def _in_place(request: Any) -> bool:
    """Whether a machine step declares little enough to run on the loop."""
    return request.work is not None and request.work <= INLINE_WORK


class _AheadChain:
    """A run's offloaded ``Ahead`` steps, one after another on the
    executor.

    One executor job runs the steps in order, each starting on the
    thread the one before it ended on, so the chain never waits for the
    loop between steps - a loop busy journaling or serving other
    sessions does not stall it. A job starts when a step arrives with
    none running; the loop awaits the job (:meth:`wait`). A step's
    ``Exception`` is dropped with the step: it only filled a memo, and
    the round step that reads it recomputes what is missing.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, executor: Any):
        self._loop, self._executor = loop, executor
        self._steps: deque = deque()
        self._lock = threading.Lock()
        self._job: asyncio.Future | None = None
        self._running = False

    def add(self, fn: Callable[[], None]) -> None:
        with self._lock:
            self._steps.append(fn)
            if self._running:
                return
            self._running = True
        self._job = self._loop.run_in_executor(self._executor, self._drain)

    def _drain(self) -> None:
        while (fn := self._next()) is not None:
            try:
                fn()
            except Exception:
                pass

    def _next(self) -> Callable[[], None] | None:
        with self._lock:
            if self._steps:
                return self._steps.popleft()
            self._running = False
            return None

    async def wait(self) -> None:
        """Until every step added so far is over."""
        if self._job is not None:
            await self._job

    def abandon(self) -> None:
        """The step on the executor runs out; none after it starts."""
        with self._lock:
            self._steps.clear()


async def run_async(
    steps: Any,
    dial: Callable[[], Awaitable[AsyncFrameEndpoint]],
    executor: Any = None,
) -> Any:
    """The asyncio shell: execute a session core's requests on the loop.

    ``steps`` is a generator from :mod:`repro.net.session_core`;
    ``dial`` opens the :class:`AsyncFrameEndpoint` an ``OPEN`` request
    asks for. The generator itself runs on the loop (it only decides).
    A machine step whose declared work is at most :data:`INLINE_WORK`
    runs on the loop too; every other one goes through
    ``run_in_executor`` on ``executor``, so heavy crypto never blocks
    the loop. Offloaded ``Ahead`` steps - a streamed round's next chunk
    among them - run one after another on the executor, each started by
    the one before it (:class:`_AheadChain`); the chain is awaited
    before a ``Compute`` and before an in-place ``Ahead``, so a party's
    machine steps never overlap each other. An ``Ahead`` step's
    ``Exception`` is dropped wherever it ran. Whatever a request raises
    is thrown into ``steps`` - a timeout always as the builtin
    ``TimeoutError`` the core's ``except`` clauses name - and what
    ``steps`` does not handle (cancellation included) propagates, with
    the ``Ahead`` chain abandoned and the link closed. A run that
    completes returns what ``steps`` returned, its link closed too: by
    then the peer has had the fin echo and sends nothing more, so
    hanging up first is a clean close.
    """
    loop = asyncio.get_running_loop()
    endpoint = reply = failure = None
    ahead = _AheadChain(loop, executor)

    try:
        while True:
            try:
                if failure is None:
                    request = steps.send(reply)
                else:
                    request = steps.throw(failure)
            except StopIteration as stop:
                await ahead.wait()
                return stop.value
            reply = failure = None
            kind = type(request)
            try:
                if kind is Recv:
                    reply = await endpoint.recv_within(request.timeout)
                elif kind is Send:
                    await endpoint.send(request.frame)
                elif kind is Now:
                    reply = time.monotonic()
                elif kind is Sleep:
                    await asyncio.sleep(request.seconds)
                elif kind is Compute:
                    await ahead.wait()
                    if _in_place(request):
                        reply = request.fn()
                    else:
                        reply = await loop.run_in_executor(executor, request.fn)
                elif kind is Ahead:
                    if _in_place(request):
                        await ahead.wait()
                        try:
                            request.fn()
                        except Exception:
                            pass  # dropped, as an offloaded step's is
                    else:
                        ahead.add(request.fn)
                elif kind is Open:
                    if endpoint is not None:
                        await endpoint.close()
                    endpoint = None
                    endpoint = await dial()
                else:
                    raise TypeError(f"unknown session request {request!r}")
            except asyncio.TimeoutError as exc:
                failure = TimeoutError(str(exc))  # not the builtin on 3.10
            except BaseException as exc:
                failure = exc
    finally:
        ahead.abandon()  # a completed run's chain is already over
        if endpoint is not None:
            await endpoint.close()

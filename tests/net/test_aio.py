"""Unit tests for the asyncio transport core (:mod:`repro.net.aio`).

The properties that make the event-loop stack safe to put under the
byte-exact session layer: framing round-trips, a receive timeout never
desynchronizes the stream (the read is cancel-safe), the loop thread
runs coroutines for synchronous callers, and the asyncio shell runs
``Ahead`` steps - a chunk stream's pulls among them - as the core
expects: each machine step on the loop or on the executor by the work
it declares.
"""

from __future__ import annotations

import asyncio
import random
import struct
import threading
import time

import pytest

from repro.crypto.engine import MeteredEngine, SerialEngine
from repro.net import LockStep, tcp
from repro.net.aio import INLINE_WORK, AsyncFrameEndpoint, LoopThread, run_async
from repro.net.journal import open_session
from repro.net.serialization import encode
from repro.net.streaming import DONE, TimedIterator
from repro.net.session import SessionConfig, RetryPolicy
from repro.net.session_core import Ahead, Compute, Sleep
from repro.net.tcp import FrameTooLarge
from repro.net.virtual import Party
from repro.protocols.parties import PublicParams
from repro.protocols.spec import get_spec

from .test_server_shell import _LoseOnce

BITS = 128


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _run(coro):
    return asyncio.run(coro)


async def _echo_server(handler):
    """One-connection asyncio server; returns (server, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _dial(port, **kwargs):
    """A framed client endpoint on a fresh loopback connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    return AsyncFrameEndpoint(reader, writer, **kwargs)


# ----------------------------------------------------------------------
# AsyncFrameEndpoint
# ----------------------------------------------------------------------
class TestAsyncFrameEndpoint:
    def test_round_trips_frames_and_counts_bytes(self):
        async def scenario():
            async def handle(reader, writer):
                ep = AsyncFrameEndpoint(reader, writer)
                msg = await ep.recv()
                await ep.send(("echo", msg))
                await ep.close()

            server, port = await _echo_server(handle)
            ep = await _dial(port)
            await ep.send(("k", [1, 2, b"three"]))
            reply = await ep.recv()
            sent, received = ep.bytes_sent, ep.bytes_received
            await ep.close()
            server.close()
            await server.wait_closed()
            return reply, sent, received

        reply, sent, received = _run(scenario())
        assert reply == ("echo", ("k", [1, 2, b"three"]))
        assert sent > 0 and received > sent  # echo adds the tag

    def test_oversized_frame_is_rejected_not_read(self):
        async def scenario():
            async def handle(reader, writer):
                writer.write(struct.pack(">I", 1 << 30) + b"x" * 64)
                await writer.drain()

            server, port = await _echo_server(handle)
            ep = await _dial(port, max_frame_bytes=1024)
            with pytest.raises(FrameTooLarge):
                await ep.recv()
            await ep.close()
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_mid_frame_close_is_connection_error(self):
        async def scenario():
            async def handle(reader, writer):
                writer.write(struct.pack(">I", 100) + b"only-some")
                await writer.drain()
                writer.close()

            server, port = await _echo_server(handle)
            ep = await _dial(port)
            with pytest.raises(ConnectionError, match="mid-frame"):
                await ep.recv()
            await ep.close()
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_recv_timeout_does_not_desync_the_stream(self):
        """A timed-out read resumes where it left off.

        The server sends a frame's header, stalls past the client's
        timeout, then sends the payload. A read cancelled on timeout
        that forgot the header would strand the payload as a phantom
        next frame; the endpoint keeps the header's length instead, and
        the *next* receive call delivers the whole frame.
        """
        payload = encode(("slow", "frame"))
        release = asyncio.Event()

        async def scenario():
            async def handle(reader, writer):
                try:
                    writer.write(struct.pack(">I", len(payload)))
                    await writer.drain()
                    await release.wait()
                    writer.write(payload)
                    await writer.drain()
                finally:
                    writer.close()

            server, port = await _echo_server(handle)
            ep = await _dial(port)
            with pytest.raises(asyncio.TimeoutError):
                await ep.recv_within(0.05)
            release.set()
            frame = await ep.recv_within(2.0)
            await ep.close()
            server.close()
            await server.wait_closed()
            return frame

        assert _run(scenario()) == ("slow", "frame")


    def test_a_cancel_from_outside_is_no_timeout(self):
        """A receive cancelled by its caller's owner (a reaper, a drain)
        ends in ``CancelledError``, not in the timeout it runs under."""
        async def scenario():
            async def handle(reader, writer):
                await reader.read()  # says nothing until the client goes
                writer.close()

            server, port = await _echo_server(handle)
            ep = await _dial(port)
            receive = asyncio.ensure_future(ep.recv_within(5.0))
            await asyncio.sleep(0.05)
            receive.cancel()
            with pytest.raises(asyncio.CancelledError):
                await receive
            await ep.close()
            server.close()
            await server.wait_closed()

        _run(scenario())


# ----------------------------------------------------------------------
# LoopThread (one loop on a daemon thread, driven from other threads)
# ----------------------------------------------------------------------
class TestLoopBridge:
    def test_loop_thread_runs_coroutines_and_stops(self):
        loop_thread = LoopThread().start()
        try:
            async def answer():
                return 41 + 1

            assert loop_thread.run(answer(), timeout=5) == 42
        finally:
            loop_thread.stop()
        loop_thread.stop()  # idempotent


# ----------------------------------------------------------------------
# A chunk stream prefetched by the asyncio shell
# ----------------------------------------------------------------------
class TestAprefetch:
    """A stream pulled ahead on the executor, as the core pulls it."""

    def test_producer_failure_reraises_after_buffered_items(self):
        def source():
            yield "ok"
            raise RuntimeError("producer blew up")

        seen = []

        def body():
            stream = TimedIterator(source())
            yield Ahead(stream.pull, HEAVY)
            while (item := (yield Compute(stream.take, 0))) is not DONE:
                seen.append(item)
                yield Ahead(stream.pull, HEAVY)

        async def scenario():
            with pytest.raises(RuntimeError, match="blew up"):
                await run_async(body(), dial=None)

        _run(scenario())
        assert seen == ["ok"]


# ----------------------------------------------------------------------
# run_async's Ahead chain
# ----------------------------------------------------------------------
#: Declared work one unit over what may run on the loop.
HEAVY = INLINE_WORK + 1


class TestRunAsyncAhead:
    """The asyncio shell's side of a heavy ``Ahead``: a chain on the
    executor, awaited before the next ``Compute``, cancelled with a dead
    body."""

    def test_steps_chain_in_order_and_finish_before_a_compute(self):
        ran = []

        def step(tag):
            def fn():
                ran.append((tag, threading.current_thread()))
            return fn

        def body():
            yield Ahead(step("a"), HEAVY)
            yield Ahead(lambda: 1 / 0, HEAVY)  # dropped; the chain goes on
            yield Ahead(step("b"), HEAVY)
            seen = yield Compute(lambda: [tag for tag, _ in ran])
            yield Ahead(step("c"), HEAVY)
            return seen

        loop_thread = []

        async def go():
            loop_thread.append(threading.current_thread())
            return await run_async(body(), dial=None)

        seen = _run(go())
        assert seen == ["a", "b"]
        assert [tag for tag, _ in ran] == ["a", "b", "c"]  # c: awaited at the end
        assert all(thread is not loop_thread[0] for _, thread in ran)

    def test_a_dead_body_starts_no_further_step(self):
        entered, release, ran = threading.Event(), threading.Event(), []

        def slow():
            entered.set()
            assert release.wait(timeout=10)
            ran.append("slow")

        def body():
            yield Ahead(slow, HEAVY)
            yield Ahead(lambda: ran.append("never"), HEAVY)
            raise RuntimeError("the session died")

        async def go():
            with pytest.raises(RuntimeError, match="the session died"):
                await run_async(body(), dial=None)
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 10
            )
            release.set()
            await asyncio.sleep(0.05)  # room for a step that must not come

        _run(go())
        assert ran == ["slow"]


    def test_the_chain_does_not_wait_for_a_busy_loop(self):
        """The second of two offloaded steps starts as the first ends,
        not when the loop next runs: a 50 ms synchronous callback holding
        the loop does not hold it back."""
        starts, block = {}, {}

        def step(tag):
            return lambda: starts.setdefault(tag, time.perf_counter())

        def hold_the_loop():
            block["start"] = time.perf_counter()
            time.sleep(0.05)
            block["end"] = time.perf_counter()

        def body():
            yield Ahead(step("first"), HEAVY)
            yield Ahead(step("second"), HEAVY)
            asyncio.get_running_loop().call_soon(hold_the_loop)
            yield Sleep(0.01)
            yield Compute(lambda: None, 0)

        _run(run_async(body(), None))
        assert starts["first"] <= starts["second"] < block["end"]

    def test_a_run_of_light_steps_starts_no_thread(self, monkeypatch):
        """Steps that declare little run on the loop, and the run starts
        no executor thread for them."""
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)

        def body():
            yield Ahead(lambda: None, 0)
            return (yield Compute(lambda: 41, 0)) + 1

        assert _run(run_async(body(), None)) == 42
        assert started == []


class TestRunAsyncPlacement:
    """Where the asyncio shell runs a machine step: on the loop when its
    declared work is at most ``INLINE_WORK``, on the executor when it
    declares more or nothing - and one party's steps in order, never
    overlapping, either way."""

    @staticmethod
    def _placed(work):
        """One ``Ahead``, one ``Compute`` and a two-chunk stream pulled
        ahead as the core pulls it, each declaring ``work``: the loop's
        thread and each step's thread."""
        threads = {}

        def mark(tag):
            threads[tag] = threading.current_thread()

        def chunks():
            for i in range(2):
                mark(f"chunk {i}")
                yield i

        def body():
            yield Ahead(lambda: mark("ahead"), work)
            yield Ahead(lambda: 1 / 0, work)  # dropped wherever it runs
            yield Compute(lambda: mark("compute"), work)
            stream, items = TimedIterator(chunks()), []
            yield Ahead(stream.pull, work)
            while (item := (yield Compute(stream.take, 0))) is not DONE:
                items.append(item)
                yield Ahead(stream.pull, work)
            return items

        async def go():
            return threading.current_thread(), await run_async(body(), None)

        loop_thread, items = _run(go())
        assert items == [0, 1]
        assert set(threads) == {"ahead", "compute", "chunk 0", "chunk 1"}
        return loop_thread, threads

    @pytest.mark.parametrize("work", [0, INLINE_WORK])
    def test_a_declared_light_step_runs_on_the_loop_thread(self, work):
        loop_thread, threads = self._placed(work)
        assert all(thread is loop_thread for thread in threads.values())

    @pytest.mark.parametrize("work", [HEAVY, None])
    def test_a_heavy_or_undeclared_step_runs_on_an_executor_thread(self, work):
        loop_thread, threads = self._placed(work)
        assert all(thread is not loop_thread for thread in threads.values())

    def test_a_heavy_ahead_then_light_steps_run_in_order_without_overlap(self):
        spans = []

        def step(tag, seconds=0.0):
            def fn():
                start = time.perf_counter()
                time.sleep(seconds)
                spans.append((tag, start, time.perf_counter()))
                return tag
            return fn

        def body():
            yield Ahead(step("heavy ahead", 0.05), HEAVY)
            yield Ahead(step("light ahead"), 0)
            yield Ahead(step("heavy ahead 2", 0.05), HEAVY)
            return (yield Compute(step("light compute"), 0))

        assert _run(run_async(body(), None)) == "light compute"
        assert [tag for tag, _, _ in spans] == [
            "heavy ahead", "light ahead", "heavy ahead 2", "light compute",
        ]
        for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
            assert start >= end



# ----------------------------------------------------------------------
# One core, two shells: party R on a loop over a socket and in lock-step
# is one client
# ----------------------------------------------------------------------
class _TapAndCutOnce:
    """Server-side endpoint wrapper (around the asyncio endpoint S
    accepts): logs the bytes of every client frame S's session reads
    and hangs up once, right after reading the client's second data
    frame - mid-round, with its ack never sent."""

    def __init__(self, endpoint, log, state):
        self.endpoint, self.log, self.state = endpoint, log, state

    async def recv_within(self, timeout):
        frame = await self.endpoint.recv_within(timeout)
        self.log.append(encode(frame))
        if not self.state and frame[:2] == ("msg", 1):
            self.state.append("cut")
            await self.endpoint.close()
            raise ConnectionResetError("forced mid-round disconnect")
        return frame

    def __getattr__(self, name):
        return getattr(self.endpoint, name)


class TestShellParity:
    def test_asyncio_and_lock_step_clients_send_the_same_bytes(self, params):
        """Same seed, one forced mid-round disconnect: party R under the
        asyncio shell over a socket and under the lock-step shell puts
        identical bytes on the wire and counts identical stats - the
        resume hello carries the frames *attempted* (2 of the 4
        computed), and the one replayed chunk counts as replayed and
        as a resumed round in both. So do their engines: round 1, then
        one batch per ``Y_S`` chunk as it lands (``Ahead``), and
        nothing left over for ``finish``. (S's side of the asyncio
        shell is held to the same frames in ``test_server_shell``.)"""
        v_r = ["a", "b", "c", "d", "e"]
        v_s = ["b", "c", "x"]
        config = SessionConfig(
            timeout_s=2.0,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                              max_delay_s=0.05),
            max_reconnects=2,
            fin_grace_s=1.0,
        )

        def outcome(answer, frames, stats):
            flat = stats.as_dict()
            del flat["elapsed_s"]
            return sorted(answer), frames, flat

        def engine(batches):
            return MeteredEngine(SerialEngine(), batches.append)

        def over_a_socket(batches):
            received, cut = [], []
            port_ready = threading.Event()
            bound = {}
            server = threading.Thread(
                target=tcp.serve_resumable_sender,
                args=("intersection", v_s, params, random.Random(1)),
                kwargs=dict(
                    ready_callback=lambda p: (bound.update(port=p),
                                              port_ready.set()),
                    config=config, chunk_size=2,
                    endpoint_wrapper=lambda ep: _TapAndCutOnce(
                        ep, received, cut
                    ),
                ),
                daemon=True,
            )
            server.start()
            assert port_ready.wait(5)
            answer, stats = tcp.connect_resumable_receiver(
                "intersection", v_r, random.Random(2), "127.0.0.1",
                bound["port"], config=config, chunk_size=2,
                engine=engine(batches),
            )
            server.join(timeout=10)
            assert not server.is_alive() and cut == ["cut"]
            return outcome(answer, received, stats)

        def lock_step(batches):
            """Both cores as the resumable drivers build them (the
            session seed drawn first), on one thread."""
            spec = get_spec("intersection")
            r_rng, s_rng = random.Random(2), random.Random(1)
            r_session, s_session = (
                random.Random(rng.getrandbits(64)) for rng in (r_rng, s_rng)
            )
            receiver, _ = open_session(
                "receiver", "intersection",
                lambda wire: spec.make_receiver(
                    v_r, PublicParams.from_wire(tuple(wire)), r_rng,
                    engine=engine(batches),
                ),
                config=config, rng=r_session, chunk_size=2,
            )
            sender, _ = open_session(
                "sender", "intersection",
                lambda: spec.make_sender(v_s, params, s_rng),
                params=params, config=config, rng=s_session, chunk_size=2,
            )
            sent, cut = [], []
            r = Party("R", receiver.steps, dials=True,
                      wrap=lambda end: _LoseOnce(end, sent, cut, 1))
            s = Party("S", sender.steps, dials=False)
            LockStep(accept_timeout_s=config.timeout_s).run(r, s)
            assert r.error is None and s.error is None and cut == ["cut"]
            return outcome(r.result, sent, receiver.stats)

        batches = {"asyncio": [], "lock-step": []}
        on_a_loop = over_a_socket(batches["asyncio"])
        in_lock_step = lock_step(batches["lock-step"])
        assert on_a_loop[0] == in_lock_step[0] == ["b", "c"]
        assert on_a_loop[1] == in_lock_step[1]
        assert on_a_loop[2] == in_lock_step[2]
        assert (on_a_loop[2]["reconnects"], on_a_loop[2]["replayed_frames"],
                on_a_loop[2]["rounds_resumed"]) == (1, 1, 1)
        assert batches["asyncio"] == batches["lock-step"]
        assert batches["asyncio"] == [len(v_r), 2, 1]  # Y_R; Y_S chunk by chunk

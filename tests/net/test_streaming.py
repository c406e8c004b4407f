"""The streaming round pipeline: chunk framing, lookahead, memory bounds.

Covers the layers the million-item streaming path is built from:
the wire chunk frames (:mod:`repro.net.serialization`), the message
chunker/assembler (:mod:`repro.protocols.messages`), the chunk stream
(:mod:`repro.net.streaming`) the session core pulls one chunk ahead
under every shell, and the end-to-end guarantee the whole
stack exists for - peak resident payload per round stays O(chunk_size)
on a one-connection run (``session=None``), in the frames and in the
core's round log, with the producer/consumer overlap visible in the
metrics report.
"""

from __future__ import annotations

import asyncio
import queue
import random
import socket
import threading
import time
from typing import NamedTuple

import pytest

import repro
from repro.analysis.instrumentation import MetricsRecorder, PipelineStats
from repro.net import LockStep, aio, serialization, tcp
from repro.net.crashpoints import SimulatedCrash
from repro.net.journal import open_session
from repro.net.server import ProtocolOffer, ProtocolServer
from repro.net.session import RetryPolicy, SessionConfig, unseal
from repro.net.session_core import Ahead, Compute, ReceiverCore, Send, SenderCore
from repro.net.streaming import DONE, TimedIterator
from repro.net.virtual import Party
from repro.protocols.messages import (
    ChunkAssembler,
    ProtocolViolation,
    CipherList,
    IntersectionReply,
    SizeReply,
    SumReply,
)
from repro.protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from repro.protocols.spec import PROTOCOLS, get_spec

from .shells import run_core
from .test_server_shell import _LoseOnce, _TapAndHangUpOnce


# ----------------------------------------------------------------------
# Wire chunk frames
# ----------------------------------------------------------------------
class TestChunkFrames:
    def test_tags_round_trip_serialization(self):
        frame = serialization.chunk_frame(3, (0, "seg", [1, 2]))
        assert serialization.is_chunk_frame(frame)
        assert not serialization.is_chunk_end(frame)
        decoded = serialization.decode(serialization.encode(frame))
        assert serialization.is_chunk_frame(decoded)

    def test_fold_single_whole_round_frame(self):
        status, payload, used = serialization.fold_chunk_frames([[1, 2, 3]])
        assert (status, payload, used) == ("single", [1, 2, 3], 1)

    def test_fold_complete_chunk_run(self):
        frames = [
            serialization.chunk_frame(0, (0, "seg", [1])),
            serialization.chunk_frame(1, (0, "seg", [2])),
            serialization.chunk_end_frame(2),
        ]
        status, payloads, used = serialization.fold_chunk_frames(frames)
        assert status == "chunked"
        assert payloads == [(0, "seg", [1]), (0, "seg", [2])]
        assert used == 3

    def test_fold_partial_run_waits(self):
        frames = [serialization.chunk_frame(0, (0, "seg", [1]))]
        status, payload, used = serialization.fold_chunk_frames(frames)
        assert (status, payload, used) == ("partial", None, 0)

    def test_fold_count_mismatch_raises(self):
        frames = [
            serialization.chunk_frame(0, (0, "seg", [1])),
            serialization.chunk_end_frame(2),
        ]
        with pytest.raises(ValueError):
            serialization.fold_chunk_frames(frames)

    def test_fold_out_of_order_index_raises(self):
        frames = [
            serialization.chunk_frame(1, (0, "seg", [1])),
            serialization.chunk_end_frame(1),
        ]
        with pytest.raises(ValueError):
            serialization.fold_chunk_frames(frames)

    def test_fold_interleaved_whole_frame_raises(self):
        frames = [
            serialization.chunk_frame(0, (0, "seg", [1])),
            [9, 9, 9],
        ]
        with pytest.raises(ValueError):
            serialization.fold_chunk_frames(frames)

    def test_no_protocol_payload_collides_with_chunk_tags(self):
        """Auto-detection is safe: a whole-round wire payload is a
        tuple of *parts* (lists/tuples), never a tuple opening with the
        chunk tag strings."""
        for message in (
            CipherList(values=[1, 2]),
            IntersectionReply(y_s=[1], pairs=[[2, 3]]),
            SizeReply(y_s=[1], z_r=[2]),
        ):
            wire = message.to_wire()
            assert not serialization.is_chunk_frame(wire)
            assert not serialization.is_chunk_end(wire)


# ----------------------------------------------------------------------
# Message chunking / assembly
# ----------------------------------------------------------------------
class TestMessageChunking:
    @pytest.mark.parametrize("chunk_size", [1, 2, 1000])
    def test_round_trip_every_shape(self, chunk_size):
        messages = [
            CipherList(values=[10, 20, 30]),
            IntersectionReply(y_s=[1, 2, 3], pairs=[[4, 5], [6, 7]]),
            SizeReply(y_s=[1], z_r=[2, 3, 4]),
            SumReply(z_r_pk=([5, 6], 77), pairs=[[8, 9]]),
        ]
        for message in messages:
            payloads = list(message.to_wire_chunks(chunk_size))
            rebuilt = type(message).from_wire_chunks(payloads)
            assert rebuilt == message

    def test_empty_list_part_still_emits_a_chunk(self):
        payloads = list(CipherList(values=[]).to_wire_chunks(4))
        assert payloads == [(0, "seg", [])]
        assert CipherList.from_wire_chunks(payloads) == CipherList(values=[])

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            list(CipherList(values=[1]).to_wire_chunks(0))

    def test_assembler_rejects_reopened_part(self):
        assembler = ChunkAssembler(IntersectionReply)
        assembler.add((0, "seg", [1]))
        assembler.add((1, "seg", [2]))
        with pytest.raises(ValueError):
            assembler.add((0, "seg", [3]))

    def test_sum_reply_requires_its_paillier_modulus(self):
        with pytest.raises(ValueError):
            SumReply.from_wire_chunks([(0, "seg", [1]), (1, "seg", [])])


# ----------------------------------------------------------------------
# The chunk stream: pulled ahead, taken in order
# ----------------------------------------------------------------------
class TestTimedIterator:
    def test_counts_items_and_time(self):
        timed = TimedIterator(iter([1, 2, 3]))
        assert list(timed) == [1, 2, 3]
        assert timed.items == 3
        assert timed.elapsed_s >= 0.0

    def test_take_returns_what_pull_produced_then_done(self):
        timed = TimedIterator(iter([1, 2]))
        for expected in (1, 2, DONE):
            timed.pull()
            assert timed.take() is expected
        assert timed.items == 2

    def test_pull_keeps_what_the_source_raises_for_take(self):
        def source():
            yield 1
            raise SimulatedCrash("producer died")

        timed = TimedIterator(source())
        timed.pull()
        assert timed.take() == 1
        timed.pull()  # raises nothing itself
        with pytest.raises(SimulatedCrash, match="producer died"):
            timed.take()


#: S's ``m2`` under ``CHUNK``: five ``Y_S`` chunks, then four pair chunks.
STREAM_V_R = [f"r{i}" for i in range(3)] + [f"c{i}" for i in range(4)]
STREAM_V_S = [f"s{i}" for i in range(5)] + [f"c{i}" for i in range(4)]
CHUNK = 2
#: "asyncio-offloaded" is the asyncio shell with every declared step
#: too heavy for the loop: the pulls run on its executor.
SHELLS = ["asyncio", "asyncio-offloaded", "lock-step"]


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(128)


class _Thrown(NamedTuple):
    failure: BaseException
    thread: threading.Thread


def _tapped(steps, events, threads):
    """Forward a core's requests, noting each one and each failure
    thrown into it (with the thread it was thrown on), in order, and
    the thread the body starts on."""
    threads.append(threading.current_thread())
    reply = failure = None
    while True:
        try:
            if failure is None:
                request = steps.send(reply)
            else:
                request = steps.throw(failure)
        except StopIteration as stop:
            return stop.value
        events.append(request)
        reply = failure = None
        try:
            reply = yield request
        except (Exception, SimulatedCrash) as exc:
            events.append(_Thrown(exc, threading.current_thread()))
            failure = exc


def _is(request, method):
    return getattr(getattr(request, "fn", None), "__func__", None) is method


class _SlowReader:
    """R's endpoint, 20 ms slow to hand on each frame it has read: S's
    every send waits that long for its ack."""

    def __init__(self, endpoint):
        self.endpoint = endpoint

    async def recv_within(self, timeout):
        frame = await self.endpoint.recv_within(timeout)
        await asyncio.sleep(0.02)
        return frame

    def __getattr__(self, name):
        return getattr(self.endpoint, name)


class TestChunkStream:
    """A streamed round's lookahead is the core's ``Ahead(pull)`` and
    ``Compute(take)``: one intersection query with S's ``m2`` streamed,
    S under each shell (R beside it: on a loop of its own over TCP, or
    lock-step),
    S's requests tapped and its chunk producer instrumented."""

    @pytest.fixture(autouse=True)
    def _instrument(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.events, self.threads = [], []
        self.produced, self.consumed = [], []
        self.on_chunk = lambda k: None
        self.spoil = lambda k, payload: payload  # what S ships as chunk k
        steps = SenderCore.steps
        monkeypatch.setattr(
            SenderCore, "steps",
            lambda core: _tapped(steps(core), self.events, self.threads),
        )
        self.r_cores, self.r_events = [], []
        r_steps = ReceiverCore.steps
        monkeypatch.setattr(
            ReceiverCore, "steps",
            lambda core: (
                self.r_cores.append(core),
                _tapped(r_steps(core), self.r_events, []),
            )[1],
        )
        produce = SenderMachine.produce_chunks

        def produce_chunks(machine, rnd, chunk_size):
            for k, payload in enumerate(produce(machine, rnd, chunk_size)):
                self.on_chunk(k)
                self.produced.append(payload)
                yield self.spoil(k, payload)

        monkeypatch.setattr(SenderMachine, "produce_chunks", produce_chunks)
        consume = ReceiverMachine.consume_chunks

        def consume_chunks(machine, rnd, payloads):
            self.consumed.append(list(payloads))
            return consume(machine, rnd, payloads)

        monkeypatch.setattr(ReceiverMachine, "consume_chunks", consume_chunks)

    def _query(
        self, shell, params, cut_seq=None, timeout_s=5.0, recorder=None,
        r_wrapper=None,
    ):
        """R's answer (or error) and S's error, if S died. ``recorder``
        and ``r_wrapper`` (around R's endpoint) serve the socket shells."""
        config = SessionConfig(
            timeout_s=timeout_s,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                              max_delay_s=0.05),
            max_reconnects=2,
            fin_grace_s=0.2,
        )
        cut: list = []
        if shell == "lock-step":
            spec = get_spec("intersection")
            sender, _ = open_session(
                "sender", "intersection",
                lambda: spec.make_sender(STREAM_V_S, params, random.Random(1)),
                params=params, config=config, rng=random.Random(3),
                chunk_size=CHUNK,
            )
            receiver, _ = open_session(
                "receiver", "intersection",
                lambda wire: spec.make_receiver(
                    STREAM_V_R, PublicParams.from_wire(tuple(wire)),
                    random.Random(2),
                ),
                config=config, rng=random.Random(4), chunk_size=CHUNK,
            )
            wrap = None if cut_seq is None else (
                lambda end: _LoseOnce(end, [], cut, cut_seq)
            )
            s = Party("S", sender.steps, dials=False, wrap=wrap)
            r = Party("R", receiver.steps, dials=True)
            LockStep(accept_timeout_s=config.timeout_s).run(r, s)
            return (r.result if r.error is None else r.error), s.error

        def client(port):
            wrapper = r_wrapper if cut_seq is None else (
                lambda ep: _TapAndHangUpOnce(ep, [], cut, cut_seq)
            )
            try:
                return tcp.connect_resumable_receiver(
                    "intersection", STREAM_V_R, random.Random(2),
                    "127.0.0.1", port, config=config, chunk_size=CHUNK,
                    endpoint_wrapper=wrapper,
                )[0]
            except Exception as exc:
                return exc

        if shell.endswith("offloaded"):
            self.monkeypatch.setattr(aio, "INLINE_WORK", 0)
        offer = ProtocolOffer.from_data(
            "intersection", STREAM_V_S, params, seed="S"
        )
        with ProtocolServer([offer], config=config, chunk_size=CHUNK,
                            recorder=recorder) as server:
            answer = client(server.port)
            assert server.wait_for_sessions(1, timeout=10)
            first = min(server.sessions.values(),
                        key=lambda record: record.started_at)
        return answer, first.error

    def _thrown(self):
        """``(request, failure, thread)`` per failure thrown into S."""
        return [
            (self.events[i - 1], *event)
            for i, event in enumerate(self.events)
            if type(event) is _Thrown
        ]

    @pytest.mark.parametrize("shell", SHELLS)
    def test_chunks_arrive_in_order(self, params, shell):
        producers = []
        self.on_chunk = lambda k: producers.append(threading.current_thread())
        answer, s_error = self._query(shell, params)
        assert s_error is None
        assert answer == set(STREAM_V_R) & set(STREAM_V_S)
        assert len(self.produced) == 9
        assert self.consumed[-1] == self.produced
        assert not self._thrown()
        # Pulled beside the body by an offloading asyncio shell, in
        # place by the others.
        in_place = shell in ("asyncio", "lock-step")
        assert {thread is self.threads[0] for thread in producers} == {in_place}

    def test_a_producer_failure_surfaces_at_one_take(self, params):
        def fail_once(k):
            if k == 2 and not failed:
                failed.append(k)
                raise ValueError("no chunk 2")

        seen = {}
        for shell in SHELLS:
            failed = []
            self.events.clear()
            self.on_chunk = fail_once
            answer, s_error = self._query(shell, params)
            # S drops the link, as after any framing fault, and the
            # restarted stream completes the query.
            assert s_error is None
            assert answer == set(STREAM_V_R) & set(STREAM_V_S)
            request, failure, _ = self._thrown()[0]
            assert type(failure) is ValueError and "no chunk 2" in str(failure)
            assert _is(request, TimedIterator.take)
            at = [type(e) for e in self.events].index(_Thrown) - 1
            takes = [e for e in self.events[:at] if _is(e, TimedIterator.take)]
            assert len(takes) == 2  # chunks 0 and 1 were taken
            seen[shell] = [type(e).__name__ for e in self.events[:at + 1]]
        assert all(kinds == seen["lock-step"] for kinds in seen.values())

    @pytest.mark.parametrize("shell", SHELLS)
    def test_a_producer_crash_kills_the_party(
        self, params, shell, monkeypatch
    ):
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)

        def crash_once(k):
            if k == 2 and not crashed:
                crashed.append(k)
                raise SimulatedCrash("S dies producing chunk 2")

        crashed = []
        self.on_chunk = crash_once
        _answer, s_error = self._query(shell, params, timeout_s=1.0)
        assert isinstance(s_error, SimulatedCrash)
        request, failure, thread = self._thrown()[0]
        # Thrown into S's body at its take, on the thread the body runs
        # on - not raised where the pull ran, which carries on unharmed.
        assert failure is s_error and _is(request, TimedIterator.take)
        assert thread is self.threads[0]
        assert died == []

    @pytest.mark.parametrize("shell", ["asyncio-offloaded"])
    def test_production_overlaps_the_send(self, params, shell):
        """Pulled beside the body, chunk ``k+1`` is produced while chunk
        ``k`` waits for its ack: with both 20 ms a chunk, the round's
        wall clock beats the serial sum of the two."""
        self.on_chunk = lambda k: time.sleep(0.02)
        recorder = MetricsRecorder()
        answer, s_error = self._query(
            shell, params, recorder=recorder, r_wrapper=_SlowReader,
        )
        assert s_error is None
        assert answer == set(STREAM_V_R) & set(STREAM_V_S)
        stats = recorder.pipelines["s.m2"]
        assert stats.chunks == 9
        assert stats.wall_s < 0.9 * (stats.produce_s + stats.send_s), stats

    @pytest.mark.parametrize(
        "body", [["not-a-number", 5], [0, 5]],
        ids=["the-ahead-step-raises", "the-ahead-step-runs"],
    )
    def test_a_bad_chunk_fails_alike_under_every_shell(self, params, body):
        """S's first ``Y_S`` chunk, well framed but wrong. R's eager
        step meets it first - and raises on a leaf that is no int, or
        runs on an element out of range - then the round step refuses
        it. Under every shell R ends on the same ProtocolViolation after
        the same requests, at once, with nothing of the round consumed."""
        self.spoil = lambda k, payload: (0, "seg", body) if k == 0 else payload
        seen = {}
        for shell in SHELLS:
            self.r_cores.clear()
            self.r_events.clear()
            answer, _s_error = self._query(shell, params)
            assert isinstance(answer, ProtocolViolation), (shell, answer)
            (core,) = self.r_cores
            assert core.stats.reconnects == 0
            assert core.log.in_rounds == []
            assert set(core._machine.inbox) == {"m1"}
            at = [type(e) for e in self.r_events].index(_Thrown)
            request, thrown = self.r_events[at - 1], self.r_events[at].failure
            assert thrown is answer and type(request) is Compute
            seen[shell] = (str(answer), [
                (type(e).__name__, getattr(getattr(e, "fn", None), "__qualname__", None))
                for e in self.r_events[:at]
            ])
        assert all(outcome == seen["lock-step"] for outcome in seen.values())
        eager = ("Ahead", "_Machine.eager.<locals>.run")
        assert eager in seen["lock-step"][1]

    def test_lock_step_pulls_exactly_one_chunk_ahead_of_the_send(self, params):
        """The pull for chunk ``k+1`` is requested before chunk ``k``'s
        ``Send``, and never a second one before chunk ``k+1`` is taken."""
        self._query("lock-step", params)
        pulls = takes = 0
        sent = []
        for event in self.events:
            if _is(event, TimedIterator.pull):
                assert type(event) is Ahead
                pulls += 1
            elif _is(event, TimedIterator.take):
                takes += 1
            elif type(event) is Send and event.frame[0] == "msg":
                frame = serialization.decode(unseal(event.frame)[2])
                if serialization.is_chunk_frame(frame):
                    k = frame[1]
                    sent.append(k)
                    assert takes == k + 1 and pulls == k + 2
            assert 0 <= pulls - takes <= 1
        assert sent == list(range(9))
        assert (pulls, takes) == (10, 10)  # the tenth finds the end

    @pytest.mark.parametrize("shell", SHELLS)
    def test_a_lost_link_abandons_the_stream(self, params, shell, monkeypatch):
        spans = []

        def timed(method, name):
            def run(stream):
                start = time.perf_counter()
                try:
                    return method(stream)
                finally:
                    spans.append((name, id(stream), start,
                                  time.perf_counter()))
            return run

        monkeypatch.setattr(
            TimedIterator, "pull", timed(TimedIterator.pull, "pull")
        )
        monkeypatch.setattr(
            TimedIterator, "take", timed(TimedIterator.take, "take")
        )
        self.on_chunk = lambda k: time.sleep(0.01)
        answer, s_error = self._query(shell, params, cut_seq=2)
        assert s_error is None
        assert answer == set(STREAM_V_R) & set(STREAM_V_S)
        streams = list(dict.fromkeys(stream for _, stream, _, _ in spans))
        assert len(streams) == 2  # the one cut, and its restart
        old = [span for span in spans if span[1] == streams[0]]
        new = [span for span in spans if span[1] == streams[1]]
        old_takes = sum(name == "take" for name, *_ in old)
        old_pulls = sum(name == "pull" for name, *_ in old)
        # Abandoned one chunk ahead of the last chunk taken, no further.
        assert old_pulls == old_takes + 1
        assert max(end for *_, end in old) <= min(start for *_, start, _ in new)
        # The restart runs every chunk from the first.
        assert sum(name == "take" for name, *_ in new) == 10  # 9, and DONE
# ----------------------------------------------------------------------
# Pipeline metrics
# ----------------------------------------------------------------------
class TestPipelineStats:
    def test_overlap_math(self):
        stats = PipelineStats(
            name="s.m2", produce_s=1.0, send_s=1.0, wall_s=1.5, chunks=10
        )
        assert stats.overlap_s == pytest.approx(0.5)
        assert stats.overlap_ratio == pytest.approx(0.5 / 1.5)

    def test_no_negative_overlap(self):
        stats = PipelineStats(
            name="s.m2", produce_s=0.1, send_s=0.1, wall_s=1.0, chunks=1
        )
        assert stats.overlap_s == 0.0
        assert stats.overlap_ratio == 0.0

    def test_recorder_accumulates_and_reports(self):
        recorder = MetricsRecorder()
        recorder.add_pipeline("s.m2", 0.5, 0.25, 0.6, chunks=3)
        recorder.add_pipeline("s.m2", 0.5, 0.25, 0.6, chunks=3)
        report = recorder.report()
        entry = report["pipeline"]["s.m2"]
        assert entry["chunks"] == 6
        assert entry["overlap_s"] == pytest.approx(1.5 - 1.2)

    def test_report_omits_pipeline_when_unused(self):
        assert "pipeline" not in MetricsRecorder().report()


# ----------------------------------------------------------------------
# End-to-end memory bound of a one-connection run
# ----------------------------------------------------------------------
class _FrameSizeProbe:
    """Transport wrapper recording the encoded size of every frame."""

    def __init__(self, transport):
        self._transport = transport
        self.max_frame = 0

    def _observe(self, message):
        self.max_frame = max(
            self.max_frame, serialization.encoded_size(message)
        )

    async def send(self, message):
        self._observe(message)
        await self._transport.send(message)

    async def recv_within(self, timeout):
        message = await self._transport.recv_within(timeout)
        self._observe(message)
        return message

    def __getattr__(self, name):
        return getattr(self._transport, name)


def _probe_run(v_r, v_s, chunk_size, s_recorder=None):
    port_box: queue.Queue[int] = queue.Queue()
    probes = []

    def serve_s():
        repro.serve(
            "intersection", v_s, bits=64, rng=random.Random("s"),
            ready_callback=port_box.put, chunk_size=chunk_size,
            recorder=s_recorder,
        )

    thread = threading.Thread(target=serve_s)
    thread.start()
    port = port_box.get(timeout=10)

    def wrap(endpoint):
        probe = _FrameSizeProbe(endpoint)
        probes.append(probe)
        return probe

    answer, _stats = tcp.connect_resumable_receiver(
        "intersection", v_r, random.Random("r"), "127.0.0.1", port,
        config=repro.api._session_config(None, None),
        chunk_size=chunk_size, endpoint_wrapper=wrap,
    )
    thread.join(timeout=10)
    return answer, probes[0].max_frame


def _core_pair(config, chunk_size):
    """Run intersection as two session cores over a socketpair;
    returns the cores, the answer and the hello R would send next."""
    v_r = [f"r{i}" for i in range(24)]
    v_s = v_r[:12] + [f"s{i}" for i in range(12)]
    params = PublicParams.for_bits(64)
    spec = PROTOCOLS["intersection"]
    sender, _ = open_session(
        "sender", "intersection",
        lambda: spec.make_sender(v_s, params, random.Random("s")),
        params=params, config=config, rng=random.Random(1),
        chunk_size=chunk_size,
    )
    receiver, _ = open_session(
        "receiver", "intersection",
        lambda wire: spec.make_receiver(
            v_r, PublicParams.from_wire(tuple(wire)), random.Random("r")
        ),
        config=config, rng=random.Random(2), chunk_size=chunk_size,
    )
    raw_s, raw_r = socket.socketpair()
    links = iter([raw_s])
    thread = threading.Thread(
        target=run_core, args=(sender.steps(), links.__next__)
    )
    thread.start()
    answer = run_core(receiver.steps(), lambda: raw_r)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert answer == set(v_s) & set(v_r)
    return sender, receiver, next(receiver.handshake()).frame


class TestPayloadStaysChunkSized:
    def test_a_one_connection_run_lets_go_of_its_frames(self):
        """``max_reconnects=0`` can never serve a replay, so the round
        log keeps a slot per frame (the cursors are list lengths) and
        no frame; a session that may reconnect keeps them all."""
        one_shot = repro.api._session_config(None, None)
        kept_s, kept_r, kept_hello = _core_pair(SessionConfig(), chunk_size=4)
        freed_s, freed_r, freed_hello = _core_pair(one_shot, chunk_size=4)
        for kept, freed in ((kept_s, freed_s), (kept_r, freed_r)):
            for held in (kept.log.inbound, kept.log.outbound):
                assert held and None not in held
            assert freed.log.inbound == [None] * len(kept.log.inbound)
            assert freed.log.outbound == [None] * len(kept.log.outbound)
            assert freed.log.in_rounds == kept.log.in_rounds
            assert freed.log.out_rounds == kept.log.out_rounds
        assert freed_hello == kept_hello
        assert freed_hello[4:6] == (
            len(kept_r.log.outbound), len(kept_r.log.inbound)
        )

    def test_peak_frame_is_o_chunk_size_not_o_n(self):
        """The point of streaming: with n items and chunk size c, no
        frame of a one-connection run ever holds more than O(c) payload
        - the per-round resident buffer no longer scales with n."""
        n, c = 192, 8
        v_r = [f"r{i}" for i in range(n)]
        v_s = [f"s{i}" for i in range(n // 2)] + v_r[: n // 2]

        whole_rec, chunked_rec = MetricsRecorder(), MetricsRecorder()
        whole_answer, whole_peak = _probe_run(
            v_r, v_s, chunk_size=None, s_recorder=whole_rec
        )
        chunked_answer, chunked_peak = _probe_run(
            v_r, v_s, chunk_size=c, s_recorder=chunked_rec
        )

        assert chunked_answer == whole_answer
        # Chunk accounting over real TCP: a whole-round run reports no
        # pipeline at all, a chunked one an entry for S's streamed m2
        # with at least n / c chunks and a non-negative overlap.
        assert "pipeline" not in whole_rec.report()
        s_m2 = chunked_rec.report()["pipeline"]["s.m2"]
        assert s_m2["chunks"] >= n // c
        assert s_m2["overlap_s"] >= 0.0
        # Generous constant: a chunk frame carries c elements plus tag
        # overhead, so (c+4)/n of the whole-round frame bounds it.
        assert chunked_peak < whole_peak * (c + 4) / n, (
            chunked_peak, whole_peak
        )

    def test_chunk_size_one_is_the_tightest_stream(self):
        n = 48
        v_r = [f"r{i}" for i in range(n)]
        v_s = v_r[: n // 2]
        answer, peak_one = _probe_run(v_r, v_s, chunk_size=1)
        _, peak_four = _probe_run(v_r, v_s, chunk_size=4)
        assert answer == set(v_s)
        assert peak_one <= peak_four

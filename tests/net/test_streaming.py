"""The streaming round pipeline: chunk framing, prefetch, memory bounds.

Covers the layers the million-item streaming path is built from:
the wire chunk frames (:mod:`repro.net.serialization`), the message
chunker/assembler (:mod:`repro.protocols.messages`), the double-buffer
(:mod:`repro.net.streaming`), and the end-to-end guarantee the whole
stack exists for - peak resident payload per round stays O(chunk_size)
on a one-connection run (``session=None``), in the frames and in the
core's round log, with the producer/consumer overlap visible in the
metrics report.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time

import pytest

import repro
from repro.analysis.instrumentation import MetricsRecorder, PipelineStats
from repro.net import serialization, tcp
from repro.net.journal import open_session
from repro.net.session import SessionConfig, run_blocking
from repro.net.streaming import TimedIterator, prefetch
from repro.protocols.messages import (
    ChunkAssembler,
    CipherList,
    IntersectionReply,
    SizeReply,
    SumReply,
)
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS


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
# The double buffer
# ----------------------------------------------------------------------
class TestPrefetch:
    def test_preserves_order(self):
        assert list(prefetch(iter(range(50)))) == list(range(50))

    def test_producer_exception_reaches_consumer(self):
        def faulty():
            yield 1
            raise RuntimeError("producer died")

        it = prefetch(faulty())
        assert next(it) == 1
        with pytest.raises(RuntimeError, match="producer died"):
            list(it)

    def test_abandoned_consumer_stops_producer(self):
        produced = []

        def source():
            for i in range(10_000):
                produced.append(i)
                yield i

        it = prefetch(source())
        next(it)
        it.close()
        time.sleep(0.2)
        # The producer ran at most a few items ahead, then stopped.
        assert len(produced) < 50

    def test_production_overlaps_slow_consumption(self):
        """While the consumer sleeps on item k, the producer fills the
        buffer with k+1 - the wall clock beats the serial sum."""
        delay = 0.02
        n = 8

        def slow_source():
            for i in range(n):
                time.sleep(delay)
                yield i

        timed = TimedIterator(slow_source())
        start = time.perf_counter()
        for _ in prefetch(timed):
            time.sleep(delay)  # consumer-side work
        wall = time.perf_counter() - start
        serial = timed.elapsed_s + n * delay
        assert timed.items == n
        assert wall < serial * 0.9, (wall, serial)


class TestTimedIterator:
    def test_counts_items_and_time(self):
        timed = TimedIterator(iter([1, 2, 3]))
        assert list(timed) == [1, 2, 3]
        assert timed.items == 3
        assert timed.elapsed_s >= 0.0


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

    def send(self, message):
        self._observe(message)
        self._transport.send(message)

    def recv(self):
        message = self._transport.recv()
        self._observe(message)
        return message

    def settimeout(self, timeout):
        self._transport.settimeout(timeout)

    def close(self):
        self._transport.close()


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
    links = iter([tcp.SocketEndpoint(sock=raw_s)])
    thread = threading.Thread(
        target=run_blocking, args=(sender.steps(),),
        kwargs={"open_link": links.__next__},
    )
    thread.start()
    answer = run_blocking(
        receiver.steps(), open_link=lambda: tcp.SocketEndpoint(sock=raw_r)
    )
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

"""Chaos tests: SIGKILL the journaled sender mid-run, restart, recover.

The sender runs as a real subprocess (``_server_main.py``) with an
on-disk journal, armed to hang right after journaling its first
outbound round - durable on disk, never shipped. The test SIGKILLs it
there (the worst crash point: the client has no idea the round
exists), restarts it against the same journal directory, and asserts:

* the receiver still obtains the exact protocol answer, and
* every frame the client saw - including all post-resume frames - is
  byte-identical to an uninterrupted run (the PR 3 golden fixture).

Run for equijoin and equijoin-sum, the two protocols whose sender
round payloads carry per-value state worth losing.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.net import tcp
from repro.net.crashpoints import CrashHook, SimulatedCrash, hooked
from repro.net.journal import DONE_SUFFIX, WAL_SUFFIX, open_session
from repro.net.serialization import (
    decode,
    encode,
    fold_chunk_frames,
    is_chunk_end,
    is_chunk_frame,
)
from repro.net.session import (
    RetryPolicy,
    SessionConfig,
    SessionError,
)
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS

from ..net.shells import run_core

SERVER_MAIN = Path(__file__).with_name("_server_main.py")
FIXTURE = json.loads(
    (Path(__file__).parent.parent / "protocols" / "golden_transcripts.json")
    .read_text()
)
BITS = FIXTURE["bits"]
N = FIXTURE["n"]


def _receiver_inputs(name: str):
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    if name == "equijoin-size":
        return v_r + v_r[:5]
    return v_r


def _canonical_answer(name, answer, match_count=None):
    if name == "intersection":
        return sorted(answer, key=repr)
    if name == "equijoin":
        return [(v, answer[v]) for v in sorted(answer, key=repr)]
    if name == "equijoin-sum":
        return [answer, match_count]
    return answer


def _digest(payload) -> str:
    return hashlib.sha256(encode(payload)).hexdigest()


class _FrameLog:
    """Transport wrapper logging msg-frame payload bytes by sequence."""

    def __init__(self, transport, frames):
        self._transport = transport
        self.frames = frames

    async def send(self, frame):
        if isinstance(frame, tuple) and frame and frame[0] == "msg":
            self.frames.setdefault(("sent", frame[1]), frame[2])
        await self._transport.send(frame)

    async def recv_within(self, timeout):
        frame = await self._transport.recv_within(timeout)
        if isinstance(frame, tuple) and frame and frame[0] == "msg":
            self.frames.setdefault(("received", frame[1]), frame[2])
        return frame

    def __getattr__(self, name):
        return getattr(self._transport, name)


def _spawn_sender(name, journal_dir, port_file, stall_marker=None,
                  chunk_size=None, stall_round=0):
    cmd = [
        sys.executable, str(SERVER_MAIN),
        "--protocol", name,
        "--journal-dir", str(journal_dir),
        "--port-file", str(port_file),
        "--bits", str(BITS),
        "--n", str(N),
    ]
    if chunk_size is not None:
        cmd += ["--chunk-size", str(chunk_size)]
    if stall_marker is not None:
        cmd += ["--stall-marker", str(stall_marker),
                "--stall-round", str(stall_round)]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.mark.parametrize("name", ["equijoin", "equijoin-sum"])
def test_sigkill_mid_run_recovers_byte_identical(name, tmp_path):
    journal_dir = tmp_path / "journal"
    port_file = tmp_path / "port"
    stall_marker = tmp_path / "stall"
    spec = PROTOCOLS[name]
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2),
        max_reconnects=60,
        fin_grace_s=0.1,
    )

    victim = _spawn_sender(name, journal_dir, port_file, stall_marker)
    restarted = None
    try:
        _wait_for(port_file.exists, 30.0, "the sender to bind")

        frames: dict = {}
        session, _ = open_session(
            "receiver", name,
            lambda wire: spec.make_receiver(
                _receiver_inputs(name),
                PublicParams.from_wire(tuple(wire)),
                random.Random("R"),
            ),
            config=config,
            rng=random.Random(2),
        )

        def dial():
            port = int(port_file.read_text())
            return tcp._connect(
                "127.0.0.1", port, config.timeout_s,
                lambda endpoint: _FrameLog(endpoint, frames),
            )

        answer_box: dict = {}

        def client():
            answer_box["answer"] = run_core(session.steps(), dial)

        thread = threading.Thread(target=client)
        thread.start()

        # The sender hangs right after journaling its first outbound
        # round (durable, unshipped): the worst-case crash point.
        _wait_for(stall_marker.exists, 60.0, "the stall marker")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)

        restarted = _spawn_sender(name, journal_dir, port_file)
        thread.join(timeout=120)
        assert not thread.is_alive(), "receiver never completed"
        out, err = restarted.communicate(timeout=60)
        assert restarted.returncode == 0, err
        assert "recovered rounds=" in out, (
            f"restart did not recover from the journal: {out!r}"
        )

        # Exact answer despite the crash.
        record = FIXTURE["protocols"][name]
        answer = answer_box["answer"]
        match_count = getattr(session._machine.state, "match_count", None)
        assert _digest(
            _canonical_answer(name, answer, match_count)
        ) == record["answer"]
        if name == "equijoin":
            half = N // 2
            assert answer == {
                f"c{i}": f"payload:c{i}".encode() for i in range(half)
            }
        assert f"DONE size_v_r={record['size_v_r']}" in out
        assert session.stats.reconnects >= 1

        # Every frame - pre-crash and post-resume - byte-identical to
        # an uninterrupted run.
        digests = {}
        sent = received = 0
        for i, rnd in enumerate(spec.rounds, start=1):
            if rnd.source == "R":
                wire_bytes = frames[("sent", sent)]
                sent += 1
            else:
                wire_bytes = frames[("received", received)]
                received += 1
            digests[f"m{i}"] = hashlib.sha256(wire_bytes).hexdigest()
        assert digests == record["wires"], (
            f"post-resume transcript diverges for {name}"
        )

        # The completed journal rotated out of the recovery scan.
        assert not list(journal_dir.glob(f"sender-*{WAL_SUFFIX}"))
        assert list(journal_dir.glob(f"sender-*{DONE_SUFFIX}"))
    finally:
        for proc in (victim, restarted):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Chunked streams: the resume cursor is (round, chunk), not just round.
# ----------------------------------------------------------------------
def _group_chunk_rounds(frames):
    """Split one direction's decoded frame stream on chunk-end marks."""
    rounds, current = [], []
    for frame in frames:
        if is_chunk_frame(frame):
            current.append(frame)
        elif is_chunk_end(frame):
            current.append(frame)
            rounds.append(current)
            current = []
        else:
            assert not current, "whole frame interleaved with chunks"
            rounds.append([frame])
    assert not current, "chunk run never terminated"
    return rounds


def _stream_digest(frames) -> str:
    stream = hashlib.sha256()
    for frame in frames:
        stream.update(encode(frame))
    return stream.hexdigest()


def test_sigkill_mid_chunk_resumes_byte_identical(tmp_path):
    """SIGKILL the sender *inside* a streaming round - after journaling
    chunk 2 of m2, before shipping it - and restart it. The (round,
    chunk) cursor must pick the stream back up so the client observes
    the exact pinned chunk-frame transcript, chunk for chunk."""
    name = "equijoin"
    chunk_size = FIXTURE["chunk_size"]
    journal_dir = tmp_path / "journal"
    port_file = tmp_path / "port"
    stall_marker = tmp_path / "stall"
    spec = PROTOCOLS[name]
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2),
        max_reconnects=60,
        fin_grace_s=0.1,
    )

    victim = _spawn_sender(
        name, journal_dir, port_file, stall_marker,
        chunk_size=chunk_size, stall_round=2,
    )
    restarted = None
    try:
        _wait_for(port_file.exists, 30.0, "the sender to bind")

        frames: dict = {}
        session, _ = open_session(
            "receiver", name,
            lambda wire: spec.make_receiver(
                _receiver_inputs(name),
                PublicParams.from_wire(tuple(wire)),
                random.Random("R"),
            ),
            config=config,
            rng=random.Random(2),
            chunk_size=chunk_size,
        )

        def dial():
            port = int(port_file.read_text())
            return tcp._connect(
                "127.0.0.1", port, config.timeout_s,
                lambda endpoint: _FrameLog(endpoint, frames),
            )

        answer_box: dict = {}

        def client():
            answer_box["answer"] = run_core(session.steps(), dial)

        thread = threading.Thread(target=client)
        thread.start()

        # The sender hangs after journaling m2 chunk 2 - durable,
        # unshipped, mid-round (equijoin m2 streams 12 chunks at
        # chunk_size=7 for n=40). The crash lands between chunks.
        _wait_for(stall_marker.exists, 60.0, "the stall marker")
        assert stall_marker.read_text() == "2", "stall missed mid-round"
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)

        restarted = _spawn_sender(
            name, journal_dir, port_file, chunk_size=chunk_size
        )
        thread.join(timeout=120)
        assert not thread.is_alive(), "receiver never completed"
        out, err = restarted.communicate(timeout=60)
        assert restarted.returncode == 0, err
        assert "recovered rounds=" in out, (
            f"restart did not recover from the journal: {out!r}"
        )

        # Exact answer despite the mid-stream crash.
        record = FIXTURE["protocols"][name]
        answer = answer_box["answer"]
        assert _digest(_canonical_answer(name, answer)) == record["answer"]
        assert session.stats.reconnects >= 1
        assert session.stats.chunks_sent > 0
        assert session.stats.chunks_received > 0

        # Every chunk frame the client saw - pre-crash and post-resume
        # - reassembles into the pinned logical rounds AND matches the
        # pinned chunk-frame stream byte for byte.
        sent = [
            decode(data) for (_d, _s), data in sorted(
                (key, data) for key, data in frames.items()
                if key[0] == "sent"
            )
        ]
        received = [
            decode(data) for (_d, _s), data in sorted(
                (key, data) for key, data in frames.items()
                if key[0] == "received"
            )
        ]
        sent_iter = iter(_group_chunk_rounds(sent))
        recv_iter = iter(_group_chunk_rounds(received))
        logical, streamed = {}, {}
        for i, rnd in enumerate(spec.rounds, start=1):
            group = next(sent_iter if rnd.source == "R" else recv_iter)
            status, payload, used = fold_chunk_frames(group)
            assert used == len(group)
            wire = (
                payload if status == "single"
                else rnd.message.from_wire_chunks(payload).to_wire()
            )
            logical[f"m{i}"] = _digest(wire)
            streamed[f"m{i}"] = _stream_digest(group)
        assert logical == record["wires"], (
            f"post-resume logical transcript diverges for {name}"
        )
        assert streamed == record["chunked_wires"], (
            f"post-resume chunk stream diverges for {name}"
        )

        # The completed journal rotated out of the recovery scan.
        assert not list(journal_dir.glob(f"sender-*{WAL_SUFFIX}"))
        assert list(journal_dir.glob(f"sender-*{DONE_SUFFIX}"))
    finally:
        for proc in (victim, restarted):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def test_a_stale_sender_journal_does_not_lock_out_the_next_client(tmp_path):
    """A one-shot S that crashed mid-run leaves its ``.wal``, and its
    client gives up. The next S on that directory reads a new client's
    hello first and opens the journal that hello's session id names - a
    fresh one - so the client gets its answer and the stale journal is
    left as it was."""
    params = PublicParams.for_bits(128)
    config = SessionConfig(
        timeout_s=0.5,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=2,
        fin_grace_s=0.05,
    )

    def serve(hook=None):
        ready, box = threading.Event(), {}

        def run():
            try:
                with hooked(hook):
                    box["served"] = tcp.serve_resumable_sender(
                        "intersection", ["b", "c", "d"], params,
                        random.Random(1),
                        ready_callback=lambda port: (
                            box.__setitem__("port", port), ready.set()
                        ),
                        config=config, journal_dir=tmp_path,
                        journal_fsync=False,
                    )
            except BaseException as exc:  # surfaced by the test below
                box["error"] = exc
            ready.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        return thread, box

    def connect(seed, port):
        return tcp.connect_resumable_receiver(
            "intersection", ["a", "b", "c"], random.Random(seed),
            "127.0.0.1", port, config=config,
        )[0]

    thread, box = serve(CrashHook("journal.append.post", hit=3))
    with pytest.raises(SessionError):
        connect(2, box["port"])
    thread.join(timeout=10)
    assert isinstance(box["error"], SimulatedCrash)
    (stale,) = tmp_path.glob(f"sender-*{WAL_SUFFIX}")
    before = stale.read_bytes()

    thread, box = serve()
    assert connect(3, box["port"]) == {"b", "c"}
    thread.join(timeout=10)
    assert "error" not in box and box["served"][0] == 3
    assert stale.read_bytes() == before
    assert len(list(tmp_path.glob(f"sender-*{DONE_SUFFIX}"))) == 1

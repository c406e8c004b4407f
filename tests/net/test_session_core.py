"""The session core under a third, test-only shell: virtual time.

``repro.net.session_core`` decides everything and touches nothing, so a
shell with a virtual clock and an in-memory lossy link can run party R
against party S in lock-step - no socket, no thread, no real sleep -
and assert not just the answer and the stats but the *exact* time of
every frame: the retransmit and backoff schedule the policy implies.

Cases here are the ones only a single I/O-free core makes checkable;
the same faults over real sockets live in ``test_session.py`` and the
chaos suites.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.net.session import RetryPolicy, SessionConfig, SessionStats
from repro.net.session_core import (
    DONE,
    Compute,
    NextChunk,
    Now,
    Open,
    ReceiverCore,
    Recv,
    Send,
    SenderCore,
    SessionError,
    Sleep,
    unseal,
)
from repro.protocols.parties import PublicParams
from repro.protocols.spec import get_spec

V_R = ["a", "b", "c", "d", "e"]
V_S = ["b", "c", "e", "x"]
ANSWER = {"b", "c", "e"}

#: No jitter: every delay below is exact. timeout 1 s; backoff 0.1, 0.2, ...
CONFIG = SessionConfig(
    timeout_s=1.0,
    retry=RetryPolicy(max_attempts=4, base_delay_s=0.1, multiplier=2.0,
                      max_delay_s=5.0, jitter=0.0),
    max_reconnects=3,
    fin_grace_s=0.25,
)


class _Conn:
    """One in-memory connection: a frame queue per direction."""

    def __init__(self):
        self.inbox = {"R": deque(), "S": deque()}
        self.dead = False


class _Party:
    def __init__(self, name, core):
        self.name = name
        self.steps = core.steps()
        self.conn = None
        self.request = None
        self.wake_at = None  # virtual deadline of the pending request
        self.reply = self.failure = None
        self.done = False
        self.result = None


class Sim:
    """Both cores, one virtual clock, one scripted link.

    ``faults`` maps ``(sender, tag, nth)`` - the ``nth`` frame with that
    tag the named party sends - to ``"drop"``, ``"corrupt"`` (CRC
    broken in flight), ``"dup"`` (delivered twice) or ``"cut"`` (the
    frame is lost and the connection dies under both parties).
    Delivery is instantaneous; time only moves when every party is
    blocked, straight to the earliest pending deadline.
    """

    def __init__(self, r_core, s_core, faults=()):
        self.clock = 0.0
        self.r = _Party("R", r_core)
        self.s = _Party("S", s_core)
        self.faults = dict(faults)
        self.sent = {}  # (sender, tag) -> count so far
        self.pending = deque()  # dialed, not yet accepted
        self.wire = []  # (time, sender, unsealed fields) per frame sent
        self.accept_timeout_s = (
            CONFIG.timeout_s * CONFIG.retry.max_attempts
        )

    def run(self):
        parties = (self.r, self.s)
        while not all(p.done for p in parties):
            progressed = False
            for party in parties:
                while not party.done and self._step(party):
                    progressed = True
            if not progressed:
                wake = [p.wake_at for p in parties if not p.done]
                assert wake and None not in wake, "deadlock with no deadline"
                assert min(wake) > self.clock, "blocked past its deadline"
                self.clock = min(wake)
        return self.r.result, self.s.result

    # -- one request of one party; False when it must wait ------------
    def _step(self, party):
        if party.request is None:
            try:
                if party.failure is not None:
                    failure, party.failure = party.failure, None
                    party.request = party.steps.throw(failure)
                else:
                    reply, party.reply = party.reply, None
                    party.request = party.steps.send(reply)
            except StopIteration as stop:
                party.done, party.result = True, stop.value
                if party.conn is not None and party is self.r:
                    party.conn.dead = True  # R hangs up when finished
                return True
            party.wake_at = None
        request, kind = party.request, type(party.request)
        try:
            if kind is Now:
                party.reply = self.clock
            elif kind is Compute:
                party.reply = request.fn()
            elif kind is NextChunk:
                party.reply = next(request.source, DONE)
            elif kind is Send:
                self._send(party, request.frame)
            elif kind is Sleep:
                if not self._due(party, request.seconds):
                    return False
            elif kind is Recv:
                inbox = party.conn.inbox[party.name]
                if inbox:
                    party.reply = inbox.popleft()
                elif party.conn.dead:
                    raise ConnectionResetError("peer hung up")
                elif self._due(party, request.timeout):
                    raise TimeoutError("virtual timeout")
                else:
                    return False
            elif kind is Open:
                if party.conn is not None:
                    party.conn.dead = True
                    party.conn = None
                if party is self.r:
                    party.conn = _Conn()
                    self.pending.append(party.conn)
                elif self.pending:
                    party.conn = self.pending.popleft()
                elif self._due(party, self.accept_timeout_s):
                    raise TimeoutError("nobody dialed")
                else:
                    return False
            else:
                raise AssertionError(f"unknown request {request!r}")
        except Exception as exc:
            party.failure = exc
        party.request = None
        return True

    def _due(self, party, seconds):
        if party.wake_at is None:
            party.wake_at = self.clock + seconds
        return self.clock >= party.wake_at

    def _send(self, party, frame):
        if party.conn.dead:
            raise BrokenPipeError("connection is gone")
        tag = frame[0]
        nth = self.sent.get((party.name, tag), 0)
        self.sent[party.name, tag] = nth + 1
        self.wire.append((self.clock, party.name, unseal(frame)))
        fault = self.faults.get((party.name, tag, nth))
        peer_inbox = party.conn.inbox["S" if party.name == "R" else "R"]
        if fault == "cut":
            party.conn.dead = True
        elif fault == "corrupt":
            peer_inbox.append((*frame[:-1], frame[-1] ^ 1))
        elif fault != "drop":
            peer_inbox.extend([frame] * (2 if fault == "dup" else 1))

    def times(self, sender, tag):
        """When ``sender`` put each ``tag`` frame on the wire."""
        return [t for t, who, fields in self.wire
                if who == sender and fields[0] == tag]

    def frames(self, sender, tag):
        """The fields of every ``tag`` frame ``sender`` sent, in order."""
        return [fields for _, who, fields in self.wire
                if who == sender and fields[0] == tag]


def _cores(chunk_size):
    spec = get_spec("intersection")
    params = PublicParams.for_bits(64)
    r_rng, s_rng = random.Random(2), random.Random(1)
    receiver = ReceiverCore(
        "intersection",
        lambda wire: spec.make_receiver(
            V_R, PublicParams.from_wire(tuple(wire)), r_rng
        ),
        CONFIG, random.Random(7), SessionStats(protocol="intersection"),
        chunk_size=chunk_size,
    )
    sender = SenderCore(
        "intersection", params,
        lambda: spec.make_sender(V_S, params, s_rng),
        CONFIG, random.Random(8), SessionStats(protocol="intersection"),
        chunk_size=chunk_size,
    )
    return receiver, sender


def _run(chunk_size, faults=()):
    receiver, sender = _cores(chunk_size)
    sim = Sim(receiver, sender, faults)
    answer, state = sim.run()
    assert set(answer) == ANSWER
    assert state.size_v_r == len(V_R)
    return sim, receiver.stats, sender.stats


def _counters(stats):
    flat = stats.as_dict()
    del flat["elapsed_s"], flat["protocol"]
    return {k: v for k, v in flat.items() if v}


#: Frames per outbound round: whole, or 2-value chunks plus chunk-end
#: (R ships 5 values; S's reply carries its 4 and R's 5 re-encrypted).
FRAMES = {None: {"R": 1, "S": 1}, 2: {"R": 4, "S": 6}}


@pytest.mark.parametrize("chunk_size", [None, 2])
def test_clean_run_takes_no_time_and_counts_only_frames(chunk_size):
    sim, r, s = _run(chunk_size)
    assert sim.clock == 0.0
    n = FRAMES[chunk_size]
    chunks = {None: {"R": 0, "S": 0}, 2: {"R": 3, "S": 5}}[chunk_size]
    assert _counters(r) == {
        "frames_sent": n["R"], "frames_received": n["S"],
        "rounds_computed": 1,
        **({"chunks_sent": chunks["R"], "chunks_received": chunks["S"]}
           if chunk_size else {}),
    }
    assert _counters(s) == {
        "frames_sent": n["S"], "frames_received": n["R"],
        "rounds_computed": 1,
        **({"chunks_sent": chunks["S"], "chunks_received": chunks["R"]}
           if chunk_size else {}),
    }


@pytest.mark.parametrize("chunk_size", [None, 2])
def test_dropped_frame_is_retransmitted_on_the_backoff_schedule(chunk_size):
    """Frame 0 is lost twice: timeout + 0.1 s, then timeout + 0.2 s."""
    sim, r, s = _run(
        chunk_size, {("R", "msg", 0): "drop", ("R", "msg", 1): "drop"}
    )
    assert sim.times("R", "msg")[:3] == pytest.approx([0.0, 1.1, 2.3])
    assert r.retransmits == 2
    assert r.frames_sent == FRAMES[chunk_size]["R"] + 2
    assert s.duplicates_discarded == 0 and s.naks_sent == 0
    assert sim.clock == pytest.approx(2.3)


@pytest.mark.parametrize("chunk_size", [None, 2])
def test_corrupted_frame_is_naked_and_resent_after_one_backoff(chunk_size):
    """A nak cuts the wait short: the resend leaves at 0.1 s, not 1.1."""
    sim, r, s = _run(chunk_size, {("R", "msg", 0): "corrupt"})
    assert sim.times("S", "nak") == [0.0]
    assert sim.times("R", "msg")[:2] == [0.0, 0.1]
    assert (s.checksum_failures, s.naks_sent, r.retransmits) == (1, 1, 1)
    assert sim.clock == 0.1


def test_duplicated_reply_is_discarded_and_reacked():
    sim, r, s = _run(None, {("S", "msg", 0): "dup"})
    assert r.duplicates_discarded == 1
    assert r.frames_received == 1
    assert sim.frames("R", "ack") == [("ack", 0), ("ack", 0)]
    assert sim.clock == 0.0


def test_lost_welcome_is_answered_again_from_the_live_link():
    """R re-sends its hello after one timeout (no backoff between
    hellos); S, already waiting for round data, repeats the welcome."""
    sim, r, s = _run(None, {("S", "welcome", 0): "drop"})
    assert sim.times("R", "hello") == [0.0, 1.0]
    assert sim.times("S", "welcome") == [0.0, 1.0]
    assert r.retransmits == 1 and r.reconnects == 0
    assert s.reconnects == 0


def test_lost_final_ack_is_covered_by_the_fin():
    """S never hears the ack of its last frame; R's fin says the same
    thing, so S finishes without a single retransmit."""
    sim, r, s = _run(None, {("R", "ack", 0): "drop"})
    assert s.retransmits == 0 and s.frames_sent == 1
    assert sim.times("R", "fin") == [0.0]
    assert sim.times("S", "fin") == [0.0]
    assert sim.clock == 0.0


def test_disconnect_mid_round_resumes_after_one_backoff():
    """The link dies under S's reply. R redials after its first
    backoff (0.1 s) announcing one sent / none received; S serves the
    reply again from its log instead of recomputing the round."""
    sim, r, s = _run(None, {("S", "msg", 0): "cut"})
    assert sim.times("R", "hello") == [0.0, 0.1]
    assert [f[4:] for f in sim.frames("R", "hello")] == [(0, 0), (1, 0)]
    assert r.reconnects == 1 and s.reconnects == 1
    assert r.rounds_computed == 1 and s.rounds_computed == 1
    # R's frame was acknowledged before the cut: nothing of R's replays.
    assert r.replayed_frames == 0 and r.frames_sent == 1
    assert s.replayed_frames == 1 and s.rounds_resumed == 1
    assert sim.clock == 0.1


def test_disconnect_mid_chunked_round_resumes_at_the_chunk():
    """Chunk 1 of R's 3-chunk round is cut. The second hello carries
    send cursor 2 (frames ever attempted), S's welcome asks for frame
    1, and exactly that one frame is a replay - counted, as
    ``ReceiverSession`` always has, once as replayed and once as a
    resumed round."""
    sim, r, s = _run(2, {("R", "msg", 1): "cut"})
    assert [f[4:] for f in sim.frames("R", "hello")] == [(0, 0), (2, 0)]
    assert [f[5] for f in sim.frames("S", "welcome")] == [0, 1]
    assert (r.reconnects, r.replayed_frames, r.rounds_resumed) == (1, 1, 1)
    assert r.rounds_computed == 1
    assert r.chunks_sent == 3 + 1  # the replayed chunk counts again
    assert s.chunks_received == 3 and s.frames_received == 4
    assert sim.clock == 0.1


def test_unanswered_hello_gives_up_with_a_typed_error():
    """Every welcome is lost: 4 hellos a connection, 1 s apart, over
    1 + max_reconnects connections, the redial backoff doubling."""
    receiver, sender = _cores(None)
    sim = Sim(receiver, sender,
              {("S", "welcome", n): "drop" for n in range(64)})
    with pytest.raises(SessionError, match="gave up after 4 failed"):
        sim.run()
    hellos = sim.times("R", "hello")
    assert len(hellos) == 16
    assert hellos[:5] == [0.0, 1.0, 2.0, 3.0, pytest.approx(4.1)]
    assert receiver.stats.reconnects == 4


def test_the_core_module_is_io_free():
    """No socket, loop, thread or clock is even importable from the
    core: whatever it needs of them it must request from a shell."""
    import ast
    import inspect

    from repro.net import session_core

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(session_core))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {
        "socket", "asyncio", "threading", "queue", "select", "time",
    }

"""The session core under its third shell: virtual time.

``repro.net.session_core`` decides everything and touches nothing, so
``repro.net.virtual.LockStep`` - a virtual clock and in-memory links -
runs party R against party S in lock-step, no socket, no thread, no
real sleep, and these tests assert not just the answer and the stats
but the *exact* time of every frame: the retransmit and backoff
schedule the policy implies.

Cases here are the ones only a single I/O-free core makes checkable;
the same faults over real sockets live in ``test_session.py`` and the
chaos suites.
"""

from __future__ import annotations

import random

import pytest

from repro.net import LockStep
from repro.net.virtual import Party
from repro.net.session import RetryPolicy, SessionConfig, SessionStats
from repro.net.session_core import (
    ReceiverCore,
    SenderCore,
    SessionError,
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


class Sim:
    """Both cores under the lock-step shell, one scripted link.

    ``faults`` maps ``(sender, tag, nth)`` - the ``nth`` frame with that
    tag the named party sends - to ``"drop"``, ``"corrupt"`` (CRC
    broken in flight), ``"dup"`` (delivered twice) or ``"cut"`` (the
    frame is lost and the connection dies under both parties). The
    script is each party's connection wrapper, which also logs every
    frame put on a live connection with its virtual send time.
    """

    def __init__(self, r_core, s_core, faults=()):
        self.shell = LockStep(
            accept_timeout_s=CONFIG.timeout_s * CONFIG.retry.max_attempts
        )
        self.faults = dict(faults)
        self.sent = {}  # (sender, tag) -> count so far
        self.wire = []  # (time, sender, unsealed fields) per frame sent
        self.r, self.s = (
            Party(
                name, core.steps, dials=name == "R",
                wrap=lambda end, name=name: _Scripted(self, name, end),
            )
            for name, core in (("R", r_core), ("S", s_core))
        )

    clock = property(lambda self: self.shell.clock)

    def run(self):
        self.shell.run(self.r, self.s)
        for party in (self.r, self.s):
            if party.error is not None:
                raise party.error
        return self.r.result, self.s.result

    def times(self, sender, tag):
        """When ``sender`` put each ``tag`` frame on the wire."""
        return [t for t, who, fields in self.wire
                if who == sender and fields[0] == tag]

    def frames(self, sender, tag):
        """The fields of every ``tag`` frame ``sender`` sent, in order."""
        return [fields for _, who, fields in self.wire
                if who == sender and fields[0] == tag]


class _Scripted:
    """One party's end of a connection, under the simulation's script."""

    def __init__(self, sim, name, end):
        self.sim, self.name, self.end = sim, name, end

    def send(self, frame):
        sim, end = self.sim, self.end
        if end.dead:
            raise BrokenPipeError("connection is gone")
        tag = frame[0]
        nth = sim.sent.get((self.name, tag), 0)
        sim.sent[self.name, tag] = nth + 1
        sim.wire.append((sim.clock, self.name, unseal(frame)))
        fault = sim.faults.get((self.name, tag, nth))
        if fault == "cut":
            end.close()
        elif fault == "corrupt":
            end.send((*frame[:-1], frame[-1] ^ 1))
        elif fault != "drop":
            for _ in range(2 if fault == "dup" else 1):
                end.send(frame)


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
    every shell always has, once as replayed and once as a
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
    core: whatever it needs of them it must request from a shell. The
    lock-step shell and the chaos driver built on it serve those
    requests without them too (the chaos module's worker-crash driver,
    which kills real processes, imports its clock and threads locally)."""
    import ast
    import inspect

    from repro.net import chaos, session_core, virtual

    for subject in (session_core, virtual, chaos.run_schedule, chaos):
        tree = ast.parse(inspect.getsource(subject))
        nodes = tree.body if subject is chaos else ast.walk(tree)
        imported = set()
        for node in nodes:
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert not imported & {
            "socket", "asyncio", "threading", "queue", "select", "time",
        }, subject
    assert "chaos" not in inspect.getsource(session_core)

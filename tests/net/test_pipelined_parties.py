"""Pipelined parties: what runs ahead, when, and that nothing else moved.

Section 3.3 orders neither S's ``f_eS(h(V_S))`` after R's ``Y_R`` nor
R's ``f_eR(Y_S)`` after S's answer to ``Y_R``, so the session core asks
its shell to run both *ahead* (``session_core.Ahead``): S's own set
while it waits for ``m1``, R's re-encryption of each ``Y_S`` chunk as
it lands. Which step is eager is registry data
(``ProtocolSpec.warm``, ``RoundSpec.eager``); the steps only fill a
memo the unchanged round step reads.

On the lock-step shell (one thread, no clock) the *order of requests*
is the whole observable, so the first half asserts exactly that, plus
the exponentiation counts - clean, and through a reconnect in the
middle of ``Y_S``. The second half is the one place a wall clock is
read: the blocking shell over a socketpair with an engine that
*sleeps* per exponentiation (sleep releases the GIL, so the test shows
scheduling, not cores).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import Counter

import pytest

from repro.crypto.engine import MeteredEngine, SerialEngine
from repro.net.serialization import decode, encode, is_chunk_end, is_chunk_frame
from repro.net.session import SessionStats, run_blocking, seal, unseal
from repro.net.streaming import TimedIterator
from repro.net.session_core import (
    Ahead,
    Compute,
    ReceiverCore,
    Recv,
    Send,
    SenderCore,
)
from repro.net.tcp import SocketEndpoint
from repro.protocols.messages import ProtocolViolation
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS, get_spec

from .test_session_core import CONFIG, Sim, _Scripted

PARAMS = PublicParams.for_bits(64)
CHUNK = 2

V_R = [f"r{i}" for i in range(3)] + [f"c{i}" for i in range(4)]
V_S = [f"s{i}" for i in range(5)] + [f"c{i}" for i in range(4)]  # 9: 5 chunks
#: Multiset tables: both sides repeat values, so ``Y_S`` carries
#: duplicates (adjacent after the reorder, some across a chunk edge).
T_R = V_R + ["c0", "c0", "r1"]
T_S = ["s0", "s1", "c0", "c0", "c0", "c1", "c1", "c2", "c3"]  # 9 occurrences

#: protocol -> (R's input, S's input, R's and S's share of the paper's
#: exponentiation count, as each party's batch engine sees it).
CASES = {
    "intersection": (V_R, V_S, len(V_R) + len(V_S), len(V_S) + len(V_R)),
    "intersection-size": (V_R, V_S, len(V_R) + len(V_S), len(V_S) + len(V_R)),
    # 2 n_S + 5 n_R: R strips its layer off two columns of the triples.
    "equijoin": (
        V_R, {v: v.encode() for v in V_S},
        3 * len(V_R), 2 * len(V_S) + 2 * len(V_R),
    ),
    # One exponentiation per distinct own value, one per occurrence of
    # the peer's: what Section 5.2 costs with duplicates hashed once.
    "equijoin-size": (
        T_R, T_S, len(set(T_R)) + len(T_S), len(set(T_S)) + len(T_R),
    ),
    # 2(n_S + n_R): R re-encrypts S's n_S codewords in one batch.
    "equijoin-sum": (
        V_R, {v: i for i, v in enumerate(V_S)},
        len(V_R) + len(V_S), len(V_S) + len(V_R),
    ),
}
#: The protocols whose R re-encrypts ``Y_S``, shipped first in ``m2``.
EAGER = {"intersection", "intersection-size", "equijoin-size"}


def _oracle(protocol):
    v_r, v_s, *_ = CASES[protocol]
    if protocol == "intersection":
        return set(v_r) & set(v_s)
    if protocol == "intersection-size":
        return len(set(v_r) & set(v_s))
    if protocol == "equijoin":
        return {v: v_s[v] for v in v_r if v in v_s}
    if protocol == "equijoin-size":
        r, s = Counter(v_r), Counter(v_s)
        return sum(r[v] * s[v] for v in r)
    return sum(v_s[v] for v in v_r if v in v_s)


def _tapped(steps, events):
    """Forward a core's requests to the shell, noting each request and
    each frame received: the party's side of the run, in order."""
    reply = failure = None
    while True:
        try:
            if failure is not None:
                request = steps.throw(failure)
            else:
                request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        events.append(request)
        reply = failure = None
        try:
            reply = yield request
        except Exception as exc:
            events.append(exc)
            failure = exc
        else:
            if type(request) is Recv:
                events.append(("got", reply))


class Run(Sim):
    """Both cores of one protocol under the lock-step shell - ``Sim``
    with every exponentiation of either party counted, every request
    tapped, and outcomes left on the parties instead of raised."""

    def __init__(self, protocol, chunk_size, faults=(), tamper=None):
        spec = get_spec(protocol)
        v_r, v_s, *_ = CASES[protocol]
        #: Size of every engine batch, in order: both parties', and
        #: each party's own.
        self.batches, self.of = [], {"R": [], "S": []}
        r_engine, s_engine = (
            MeteredEngine(
                SerialEngine(),
                lambda n, name=name: (
                    self.batches.append(n), self.of[name].append(n)
                ),
            )
            for name in "RS"
        )
        r_rng, s_rng = random.Random(2), random.Random(1)
        self.receiver = ReceiverCore(
            protocol,
            lambda wire: spec.make_receiver(
                v_r, PublicParams.from_wire(tuple(wire)), r_rng,
                engine=r_engine,
            ),
            CONFIG, random.Random(7), SessionStats(protocol=protocol),
            chunk_size=chunk_size,
        )
        self.sender = SenderCore(
            protocol, PARAMS,
            lambda: spec.make_sender(v_s, PARAMS, s_rng, engine=s_engine),
            CONFIG, random.Random(8), SessionStats(protocol=protocol),
            chunk_size=chunk_size,
        )
        super().__init__(self.receiver, self.sender, faults)
        self.tamper = tamper
        self.events = {"R": [], "S": []}
        for party, core in ((self.r, self.receiver), (self.s, self.sender)):
            party.start = lambda core=core, name=party.name: _tapped(
                core.steps(), self.events[name]
            )
            party.wrap = lambda end, name=party.name: _Tampering(
                self, name, end
            )

    def run(self):
        self.shell.run(self.r, self.s)
        return self

    def requests(self, name, kind):
        return [e for e in self.events[name] if type(e) is kind]

    def memos(self, name):
        """The party's warm and eager steps: its ``Ahead`` requests but
        a chunk stream's pulls."""
        return [e for e in self.events[name] if _is_memo(e)]


def _is_memo(event):
    return type(event) is Ahead and getattr(
        event.fn, "__func__", None
    ) is not TimedIterator.pull


class _Tampering(_Scripted):
    """The scripted end, plus a hook that may rewrite a data frame's
    payload before it is sealed again - well-framed garbage."""

    def send(self, frame):
        tamper = self.sim.tamper
        if tamper is not None and frame[0] == "msg":
            _, seq, wire = unseal(frame)
            frame = seal("msg", seq, encode(tamper(self.name, decode(wire))))
        super().send(frame)


def _data(event):
    """The decoded payload of a received data frame, else ``None``."""
    if isinstance(event, tuple) and event[:1] == ("got",):
        fields = unseal(event[1])
        if fields[0] == "msg":
            return decode(fields[2])
    return None


def _y_s_chunks(protocol, chunk_size):
    """How many part-0 chunks of ``m2`` R is to re-encrypt ahead."""
    if chunk_size is None or protocol not in EAGER:
        return 0
    n = len(CASES[protocol][1])
    return -(-n // chunk_size)


# ----------------------------------------------------------------------
# (a) the order of requests, and the counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_size", [None, CHUNK])
@pytest.mark.parametrize("protocol", sorted(CASES))
def test_warm_and_eager_steps_are_requested_where_the_registry_says(
    protocol, chunk_size
):
    run = Run(protocol, chunk_size).run()
    assert run.r.error is None and run.s.error is None
    assert run.r.result == _oracle(protocol)
    assert (sum(run.of["R"]), sum(run.of["S"])) == CASES[protocol][2:]

    # S: state built by a waited Compute, then the warm step, then -
    # only then - the first Recv of m1.
    s_events = run.events["S"]
    welcome = next(
        i for i, e in enumerate(s_events)
        if type(e) is Send and e.frame[0] == "welcome"
    )
    first_recv = next(
        i for i, e in enumerate(s_events)
        if i > welcome and type(e) is Recv
    )
    between = [e for e in s_events[welcome + 1 : first_recv]
               if type(e) in (Compute, Ahead)]
    machine = run.sender._machine
    assert [type(e) for e in between] == [Compute, Ahead]
    assert between[0].fn == machine.ensure_state
    assert between[1].fn == machine.warm
    assert len(run.memos("S")) == 1

    # R: one eager step per Y_S chunk, each requested right after its
    # chunk was received and before the round's chunk-end frame.
    r_events = run.events["R"]
    aheads = [i for i, e in enumerate(r_events) if _is_memo(e)]
    assert len(aheads) == _y_s_chunks(protocol, chunk_size)
    if aheads:
        end = next(
            i for i, e in enumerate(r_events)
            if (data := _data(e)) is not None and is_chunk_end(data)
        )
        assert max(aheads) < end
        landed = [
            i for i, e in enumerate(r_events)
            if (data := _data(e)) is not None and is_chunk_frame(data)
            and data[2][0] == 0
        ]
        assert len(landed) == len(aheads)
        # got chunk k -> Send(ack) -> Ahead(chunk k) -> ... got chunk k+1
        assert all(a < b for a, b in zip(aheads, landed[1:]))
        assert all(a > b for a, b in zip(aheads, landed))


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_the_registry_declares_who_is_eager(protocol):
    spec = PROTOCOLS[protocol]
    eager = [rnd.name for rnd in spec.rounds if rnd.eager is not None]
    if spec.delta_of is not None:  # O(|delta|) crypto: nothing to hide
        assert spec.warm is None and eager == []
    else:
        assert spec.warm is not None
        assert eager == (["m2"] if protocol in EAGER else [])


@pytest.mark.parametrize("protocol", sorted(CASES))
def test_a_reconnect_exponentiates_nothing_of_the_memos_twice(protocol):
    """The link dies under S's third ``m2`` frame: R holds 2 of the 5
    ``Y_S`` chunks (where ``Y_S`` ships first). The memos are the
    parties', not the connection's: R's share is exact, and S - asked
    to warm again where ``m2`` was still streaming - finds its own set
    done. What S's restarted stream answers a second time is the
    segments of ``Y_R`` it had answered before the cut, plus the one
    segment it had pulled ahead of the cut frame (the lookahead is one
    chunk)."""
    run = Run(protocol, CHUNK, {("S", "msg", 2): "cut"}).run()
    assert run.r.error is None and run.s.error is None
    assert run.r.result == _oracle(protocol)
    assert run.receiver.stats.reconnects == 1
    r_share, s_share = CASES[protocol][2:]
    assert sum(run.of["R"]) == r_share
    assert len(run.memos("R")) == _y_s_chunks(protocol, CHUNK)
    streamed = protocol != "equijoin-sum"  # whose m2 is computed whole
    assert len(run.memos("S")) == (2 if streamed else 1)
    answered_twice = {
        "intersection": 0,  # Y_S ships first: no pair was computed yet
        # One segment per Y_S chunk sent, and the lookahead segment.
        "intersection-size": 2 * CHUNK + CHUNK,
        "equijoin-size": 2 * CHUNK + CHUNK,
        # Three triples chunks, two keys each, and the lookahead: the
        # last segment, Y_R's seventh value under two keys.
        "equijoin": 3 * 2 * CHUNK + 2 * 1,
        "equijoin-sum": 0,  # no chunk_step: computed whole, once
    }[protocol]
    assert sum(run.of["S"]) == s_share + answered_twice


def test_the_work_moved_in_time_not_away():
    """Chunked intersection, batch by batch: R's round 1, S's own set
    (ahead of m1's arrival), S's answers per ``Y_R`` segment
    interleaved - on this one thread - with R's ``Y_S`` segments, and
    nothing left for ``finish``."""
    run = Run("intersection", CHUNK).run()
    n_r, n_s = len(V_R), len(V_S)
    assert run.batches[0] == n_s or run.batches[1] == n_s  # S warms early
    assert sorted(run.batches[:2]) == sorted([n_r, n_s])
    later = run.batches[2:]
    assert sorted(later) == sorted(
        [2] * (n_r // 2) + [1] * (n_r % 2) + [2] * (n_s // 2) + [1] * (n_s % 2)
    )


# ----------------------------------------------------------------------
# (c) a well-framed, wrong Y_S chunk
# ----------------------------------------------------------------------
def _spoil_first_y_s_chunk(body):
    def tamper(sender, payload):
        if sender == "S" and is_chunk_frame(payload) and payload[1] == 0:
            index, (part, kind, _body) = payload[1], payload[2]
            return ("chunk", index, (part, kind, body))
        return payload

    return tamper


@pytest.mark.parametrize(
    "body, error, where",
    [
        # A list holding a non-integer assembles, and the round's
        # decode refuses it: a leaf that is not an int.
        (["not-a-number", 5], ProtocolViolation, "_recv_round"),
        # A part that is no list never assembles (a ProtocolViolation,
        # which is a ValueError, from the chunk assembler).
        ("not-a-list", ValueError, "_recv_round"),
    ],
)
def test_a_wrong_chunk_fails_where_and_how_it_always_did(body, error, where):
    run = Run(
        "intersection", CHUNK, tamper=_spoil_first_y_s_chunk(body)
    ).run()
    r_events = run.events["R"]
    thrown = [i for i, e in enumerate(r_events) if isinstance(e, error)]
    assert thrown, run.r.error
    request = r_events[thrown[0] - 1]
    assert type(request) is Compute and where in request.fn.__qualname__
    # The eager step on the spoiled chunk raised inside the shell and
    # was dropped there: nothing reached the core from an Ahead.
    for i, event in enumerate(r_events):
        if isinstance(event, Exception):
            assert type(r_events[i - 1]) is not Ahead
    assert len(run.memos("R")) == _y_s_chunks("intersection", CHUNK)
    # Terminal: a reconnect would replay the same round.
    assert isinstance(run.r.error, ProtocolViolation)


# ----------------------------------------------------------------------
# (b) the blocking shell really overlaps: a sleeping engine
# ----------------------------------------------------------------------
class _SleepingEngine(SerialEngine):
    """1 ms of *sleep* per exponentiation, summed per party: the sleep
    releases the GIL, so two parties (and a party's worker thread)
    overlap exactly as far as the shell schedules them to."""

    PER_MODEXP_S = 1e-3

    def __init__(self):
        super().__init__()
        self.busy_s = 0.0

    def pow_many(self, xs, exponent, modulus):
        start = time.perf_counter()
        time.sleep(self.PER_MODEXP_S * len(xs))
        out = super().pow_many(xs, exponent, modulus)
        self.busy_s += time.perf_counter() - start
        return out


def test_blocking_shell_overlaps_the_parties_under_a_sleeping_engine():
    """n = 200 per side, chunks of 25: serial is 4n ms of engine time.
    With S's own set under R's round 1 and R's ``Y_S`` under S's
    answers, the query takes about half of it; the parent, where every
    step waits for the one before, reads >= 0.95."""
    n, chunk = 200, 25
    v_r = [f"r{i}" for i in range(n // 2)] + [f"c{i}" for i in range(n // 2)]
    v_s = [f"s{i}" for i in range(n // 2)] + [f"c{i}" for i in range(n // 2)]
    spec = get_spec("intersection")
    engines = {"R": _SleepingEngine(), "S": _SleepingEngine()}
    receiver = ReceiverCore(
        "intersection",
        lambda wire: spec.make_receiver(
            v_r, PublicParams.from_wire(tuple(wire)), random.Random(2),
            engine=engines["R"],
        ),
        CONFIG, random.Random(7), SessionStats(), chunk_size=chunk,
    )
    sender = SenderCore(
        "intersection", PARAMS,
        lambda: spec.make_sender(
            v_s, PARAMS, random.Random(1), engine=engines["S"]
        ),
        CONFIG, random.Random(8), SessionStats(), chunk_size=chunk,
    )
    left, right = socket.socketpair()
    ends = {"R": SocketEndpoint(sock=left), "S": SocketEndpoint(sock=right)}
    outcome = {}

    def serve():
        try:
            outcome["S"] = run_blocking(
                sender.steps(), open_link=lambda: ends["S"]
            )
        except BaseException as exc:  # reported by the assertion below
            outcome["S"] = exc

    server = threading.Thread(target=serve, daemon=True)
    start = time.perf_counter()
    server.start()
    answer = run_blocking(receiver.steps(), open_link=lambda: ends["R"])
    wall_s = time.perf_counter() - start
    server.join(timeout=30)
    assert not server.is_alive()
    assert answer == set(v_r) & set(v_s)
    assert outcome["S"].size_v_r == n
    engine_s = engines["R"].busy_s + engines["S"].busy_s
    assert engine_s >= 4 * n * _SleepingEngine.PER_MODEXP_S
    assert wall_s <= 0.75 * engine_s, (wall_s, engine_s)

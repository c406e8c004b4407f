"""Chaos tests: every protocol completes over TCP under injected faults.

Each run wires a seeded :class:`FaultInjector` into the resumable
session helpers and asserts (a) the protocol answer is still exactly
correct and (b) the session stats show the faults were actually hit
and recovered from - retransmits for drops and corruption, reconnects
and replayed frames for mid-frame disconnects.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import threading
from collections import Counter

import pytest

from repro.net.chaos import ChaosSchedule, CrashHook, SimulatedCrash, hooked
from repro.net.diskfaults import FaultyJournalIO
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.journal import JournalDir, JournalError
from repro.net.session import RetryPolicy, SessionConfig, SessionError
from repro.net.tcp import (
    connect_resumable_receiver,
    serve_resumable_sender,
)
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS, get_spec

#: protocol -> (R's data, S's data, expected answer for R)
CASES = {
    "intersection": (
        ["a", "b", "c"], ["b", "c", "d"], {"b", "c"},
    ),
    "intersection-size": (
        ["a", "b", "c", "d"], ["c", "d", "e"], 2,
    ),
    "equijoin": (
        ["a", "b", "c"],
        {"b": b"rec-b", "c": b"rec-c", "z": b"rec-z"},
        {"b": b"rec-b", "c": b"rec-c"},
    ),
    "equijoin-size": (
        ["a", "a", "b", "c"], ["a", "b", "b", "e"], 2 * 1 + 1 * 2,
    ),
}

#: fault class -> plan applied to the *client's* sends
FAULT_CLASSES = {
    "none": FaultPlan(),
    "drop": FaultPlan(seed=3, drop_rate=0.4, max_faults=3),
    "corrupt": FaultPlan(seed=4, corrupt_rate=0.4, max_faults=3),
    "delay": FaultPlan(seed=13, delay_rate=1.0, delay_s=0.002, max_faults=2),
    "disconnect": FaultPlan(seed=8, disconnect_rate=0.3, max_faults=2),
    "mixed": FaultPlan(
        seed=13, drop_rate=0.15, corrupt_rate=0.15, disconnect_rate=0.15,
        max_faults=4,
    ),
}


def _config() -> SessionConfig:
    return SessionConfig(
        timeout_s=0.3,
        retry=RetryPolicy(max_attempts=6, base_delay_s=0.01,
                          max_delay_s=0.05),
        max_reconnects=12,
        fin_grace_s=0.1,
    )


def _drive(protocol, case, seed, sender, receiver, supervise=None):
    """Party S on a thread, party R here, over loopback.

    ``sender`` / ``receiver`` are the extra keyword arguments of the
    two public resumable drivers; ``supervise(role, drive)`` runs one
    (default: just call it). Returns ``(R's result, S's result)``;
    whatever escaped S's thread is re-raised here.
    """
    v_r, v_s, _expected = case
    params = PublicParams.for_bits(128)
    ready = threading.Event()
    box: dict = {}
    supervise = supervise or (lambda role, drive: drive())

    def serve():
        return serve_resumable_sender(
            protocol, v_s, params, random.Random(seed + 1),
            port=box.get("port", 0),  # a restarted S listens where it did
            ready_callback=lambda port: (
                box.__setitem__("port", port), ready.set()
            ),
            **sender,
        )

    def sender_thread():
        try:
            box["sender"] = supervise("sender", serve)
        except BaseException as exc:  # surfaced in the main thread below
            box["error"] = exc
        ready.set()

    thread = threading.Thread(target=sender_thread)
    thread.start()
    assert ready.wait(timeout=10)
    if "error" in box:
        raise box["error"]
    result = supervise("receiver", lambda: connect_resumable_receiver(
        protocol, v_r, random.Random(seed + 2), "127.0.0.1", box["port"],
        **receiver,
    ))
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return result, box["sender"]


def _run(protocol, client_injector=None, server_injector=None, seed=0,
         chunk_size=None, case=None):
    case = case or CASES[protocol]
    common = dict(config=_config(), chunk_size=chunk_size)
    (answer, client_stats), (size_v_r, server_stats) = _drive(
        protocol, case, seed,
        dict(common, endpoint_wrapper=server_injector),
        dict(common, endpoint_wrapper=client_injector),
    )
    assert answer == case[2], f"{protocol} answered {answer!r}"
    assert size_v_r == len(set(case[0])) if protocol != "equijoin-size" else True
    return client_stats, server_stats


def _keeping(injector):
    """``injector`` as an endpoint wrapper that also keeps each endpoint
    it wraps, and the list it keeps them in: what the client sends is
    summed over its reconnects."""
    endpoints = []

    def wrap(transport):
        endpoints.append(injector(transport))
        return endpoints[-1]

    return wrap, endpoints


@functools.lru_cache(maxsize=None)
def _clean_sends(protocol):
    """The frames the client offers and the bytes it puts on the wire
    in a fault-free run of ``protocol``."""
    injector = FaultInjector(FaultPlan())
    wrap, endpoints = _keeping(injector)
    client_stats, server_stats = _run(protocol, client_injector=wrap)
    assert client_stats.retransmits == server_stats.retransmits == 0
    assert client_stats.reconnects == 0
    return injector.stats.sent, sum(e.bytes_sent for e in endpoints)


@pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
@pytest.mark.parametrize("protocol", sorted(CASES))
def test_protocol_completes_under_faults(protocol, fault_class):
    plan = FAULT_CLASSES[fault_class]
    injector = FaultInjector(plan)
    wrap, endpoints = _keeping(injector)
    client_stats, server_stats = _run(protocol, client_injector=wrap)
    # A recovery is traffic on top of the protocol's own frames: the
    # client offers at least the clean run's frames and, unless a frame
    # is dropped before the socket (a dropped closing fin is not sent
    # again), puts at least its bytes on the wire.
    clean_frames, clean_bytes = _clean_sends(protocol)
    assert injector.stats.sent >= clean_frames
    if not injector.stats.dropped:
        assert sum(e.bytes_sent for e in endpoints) >= clean_bytes

    if fault_class == "none":
        assert injector.stats.injected == 0
        assert client_stats.reconnects == 0
        assert client_stats.retransmits == 0
        return
    assert injector.stats.injected > 0, "fault plan never fired"
    if fault_class in ("drop", "corrupt", "mixed"):
        recovered = (
            client_stats.retransmits
            + server_stats.retransmits
            + client_stats.reconnects
        )
        assert recovered > 0, "faults injected but no recovery recorded"
    if fault_class == "corrupt":
        assert (
            server_stats.checksum_failures + client_stats.checksum_failures
            > 0
        )
    if fault_class == "delay":
        assert injector.stats.delayed == plan.max_faults
    if fault_class == "disconnect":
        assert injector.stats.disconnects > 0
        assert client_stats.reconnects > 0


class TestScriptedResume:
    """Deterministically place one disconnect and watch the resume."""

    def test_server_m2_disconnect_replays_cached_round(self):
        # skip=2: welcome and the m1-ack deliver cleanly, the third
        # server send (the m2 data frame) dies mid-frame.
        injector = FaultInjector(
            FaultPlan(seed=4, disconnect_rate=1.0, max_faults=1, skip=2)
        )
        client_stats, server_stats = _run(
            "intersection", server_injector=injector
        )
        assert injector.stats.disconnects == 1
        assert server_stats.reconnects == 1
        assert client_stats.reconnects == 1
        assert server_stats.rounds_resumed == 1
        assert server_stats.replayed_frames >= 1
        # The crypto ran once: the resume came from the round log.
        assert server_stats.rounds_computed == 1
        assert client_stats.rounds_computed == 1

    def test_client_m1_disconnect_resumes(self):
        # skip=1: the hello delivers, the m1 data frame dies mid-frame.
        injector = FaultInjector(
            FaultPlan(seed=6, disconnect_rate=1.0, max_faults=1, skip=1)
        )
        client_stats, server_stats = _run(
            "intersection-size", client_injector=injector
        )
        assert injector.stats.disconnects == 1
        assert client_stats.reconnects >= 1
        assert client_stats.rounds_computed == 1
        assert server_stats.rounds_computed == 1

#: chunk size for the streaming chaos runs; 1 puts every element in
#: its own chunk frame, so every injected fault lands on (or inside) a
#: chunk boundary rather than a whole-round frame.
CHUNK_SIZE = 1


@pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
@pytest.mark.parametrize("protocol", ["intersection", "equijoin"])
def test_chunked_stream_completes_under_faults(protocol, fault_class):
    """Every fault class, injected into a chunk-frame stream, still
    yields the exact answer - drops, corruption and disconnects at
    chunk boundaries retransmit or resume mid-round."""
    plan = FAULT_CLASSES[fault_class]
    injector = FaultInjector(plan)
    client_stats, server_stats = _run(
        protocol, client_injector=injector, chunk_size=CHUNK_SIZE
    )

    # The rounds genuinely streamed: both directions shipped multiple
    # chunk frames (m1 alone is 3 values -> 3 chunks at size 1).
    assert client_stats.chunks_sent >= 3
    assert server_stats.chunks_sent >= 3
    assert client_stats.chunks_received >= 3
    assert server_stats.chunks_received >= 3

    if fault_class == "none":
        assert injector.stats.injected == 0
        assert client_stats.reconnects == 0
        assert client_stats.retransmits == 0
        return
    assert injector.stats.injected > 0, "fault plan never fired"
    if fault_class in ("drop", "corrupt", "mixed"):
        recovered = (
            client_stats.retransmits
            + server_stats.retransmits
            + client_stats.reconnects
        )
        assert recovered > 0, "faults injected but no recovery recorded"
    if fault_class == "corrupt":
        assert (
            server_stats.checksum_failures + client_stats.checksum_failures
            > 0
        )
    if fault_class == "disconnect":
        assert injector.stats.disconnects > 0
        assert client_stats.reconnects > 0


class TestScriptedChunkBoundaryResume:
    """Place one disconnect on a specific mid-round chunk frame."""

    def test_server_mid_chunk_disconnect_resumes_stream(self):
        # chunk_size=1 on the 3-element intersection case: the server
        # sends welcome, four m1 acks (3 chunks + chunk-end), then 7 m2
        # frames (3 y_s chunks + 3 pair chunks + chunk-end). skip=6
        # delivers m2 chunk 0 cleanly and kills chunk 1 mid-frame - a
        # crash inside a streaming round, not at a round edge.
        injector = FaultInjector(
            FaultPlan(seed=4, disconnect_rate=1.0, max_faults=1, skip=6)
        )
        client_stats, server_stats = _run(
            "intersection", server_injector=injector, chunk_size=CHUNK_SIZE
        )
        assert injector.stats.disconnects == 1
        assert server_stats.reconnects == 1
        assert client_stats.reconnects == 1
        # The (round, chunk) cursor did its job: the already-shipped
        # chunk replays from the log and the round's crypto ran once.
        assert server_stats.replayed_frames >= 1
        assert server_stats.rounds_computed == 1
        assert client_stats.rounds_computed == 1
        assert server_stats.chunks_sent >= 6

    def test_client_mid_chunk_disconnect_resumes_stream(self):
        # skip=2: hello and m1 chunk 0 deliver, m1 chunk 1 dies.
        injector = FaultInjector(
            FaultPlan(seed=6, disconnect_rate=1.0, max_faults=1, skip=2)
        )
        client_stats, server_stats = _run(
            "intersection-size", client_injector=injector,
            chunk_size=CHUNK_SIZE,
        )
        assert injector.stats.disconnects == 1
        assert client_stats.reconnects >= 1
        assert client_stats.rounds_computed == 1
        assert server_stats.rounds_computed == 1
        assert client_stats.replayed_frames >= 1


#: protocol -> (R's data, S's data, expected answer, m2 chunk count at
#: chunk size 2) for the tail-of-round cut: ten ciphertexts in ``Y_R``.
_TAIL_R = [f"r{i}" for i in range(10)]
TAIL_CASES = {
    "intersection": (
        _TAIL_R, ["r0", "r1", "r2", "x", "y"], {"r0", "r1", "r2"}, 3 + 5,
    ),
    "intersection-size": (_TAIL_R, ["r0", "r1", "r2", "x", "y"], 3, 3 + 5),
    "equijoin": (
        _TAIL_R, {"r0": b"rec-0", "r1": b"rec-1", "x": b"rec-x"},
        {"r0": b"rec-0", "r1": b"rec-1"}, 5 + 2,
    ),
    "equijoin-size": (
        _TAIL_R[:8] + ["r0", "r0"], ["r0", "r1", "r1", "x", "x", "y"],
        3 * 1 + 1 * 2, 3 + 5,
    ),
}


class TestScriptedTailResume:
    """Cut S's link in the last chunks of a streamed ``m2``.

    The shell produces ahead of the wire, so by then the chunk producer
    is exhausted and the round already folded into S's party; the
    restarted stream must not fold it in a second time."""

    @pytest.mark.parametrize("back", [0, 1, 2])
    @pytest.mark.parametrize("protocol", sorted(TAIL_CASES))
    def test_server_tail_disconnect_keeps_committed_state(
        self, protocol, back, monkeypatch
    ):
        v_r, v_s, expected, m2_chunks = TAIL_CASES[protocol]
        spec = get_spec(protocol)
        party = spec.make_sender(
            v_s, PublicParams.for_bits(128), random.Random(1)
        )
        # S serves the party built here, so its state can be read back.
        monkeypatch.setitem(
            PROTOCOLS, protocol,
            dataclasses.replace(spec, make_sender=lambda *a, **k: party),
        )
        # The server sends the welcome, six m1 acks (5 chunks +
        # chunk-end), then the m2 chunks: kill the last one (or one of
        # the two before it) mid-frame.
        injector = FaultInjector(
            FaultPlan(seed=4, disconnect_rate=1.0, max_faults=1,
                      skip=7 + m2_chunks - 1 - back)
        )
        _client_stats, server_stats = _run(
            protocol, server_injector=injector, chunk_size=2,
            case=(v_r, v_s, expected),
        )
        assert injector.stats.disconnects == 1
        assert server_stats.reconnects == 1
        assert server_stats.rounds_computed == 1
        # What S committed is what an undisturbed run commits.
        assert party.size_v_r == len(v_r)
        assert party.values == sorted(set(v_s), key=repr)
        if protocol == "equijoin-size":
            assert party._counts == Counter(v_s)
        assert sorted(party.cache_entries(), key=repr) == party.values


class TestScriptedResumeStats:
    def test_stats_surface_in_as_dict(self):
        injector = FaultInjector(
            FaultPlan(seed=4, disconnect_rate=1.0, max_faults=1, skip=2)
        )
        _client, server_stats = _run(
            "intersection", server_injector=injector
        )
        record = server_stats.as_dict()
        assert record["protocol"] == "intersection"
        assert record["reconnects"] == 1
        assert record["replayed_frames"] >= 1
        assert record["elapsed_s"] > 0


# ----------------------------------------------------------------------
# Composed chaos over real sockets: the sample that keeps the virtual-time
# schedule suite honest about what only a socket and a thread produce
# ----------------------------------------------------------------------
def _run_composed(schedule, tmp_path):
    """Both parties of ``schedule`` through the public drivers: its
    network plans as ``endpoint_wrapper``, its disk plans under the
    journal dirs, its crash points hooked around each party's driver,
    which a supervisor restarts after a simulated crash or a journal
    failure. Each party ends in its driver's result or a typed failure
    (returned); anything untyped propagates."""
    case = CASES[schedule.protocol]
    hooks, kwargs = {}, {}
    for role, net, disk, crash in (
        ("sender", schedule.server_net, schedule.sender_disk,
         schedule.sender_crash),
        ("receiver", schedule.client_net, schedule.receiver_disk,
         schedule.receiver_crash),
    ):
        hooks[role] = CrashHook(*crash) if crash else None
        kwargs[role] = dict(
            config=_config(), chunk_size=schedule.chunk_size,
            endpoint_wrapper=FaultInjector(net) if net else None,
            journal_dir=JournalDir(
                tmp_path / role, io=FaultyJournalIO(disk) if disk else None
            ),
        )

    def supervise(role, drive):
        failure = None
        for _ in range(schedule.max_restarts + 1):
            try:
                with hooked(hooks[role]):
                    return drive()
            except (SimulatedCrash, JournalError) as exc:
                failure = exc
            except SessionError as exc:
                return exc
        return failure

    outcomes = _drive(
        schedule.protocol, case, schedule.seed,
        kwargs["sender"], kwargs["receiver"], supervise,
    )
    if isinstance(outcomes[0], tuple):
        assert outcomes[0][0] == case[2], f"chaos seed {schedule.seed}"
    return outcomes


#: Generated schedules (seed -> protocol ``sorted(CASES)[seed % 4]``)
#: that between them fire a crash on either party, faults on either
#: link and on either disk, over whole-round and chunked wires.
COMPOSED_SEEDS = (7, 9, 10, 20, 25, 36)


@pytest.mark.parametrize("seed", COMPOSED_SEEDS)
def test_composed_schedule_over_real_sockets(seed, tmp_path):
    """Correct answer or typed failure, through the public drivers."""
    _run_composed(
        ChaosSchedule.generate(seed, protocol=sorted(CASES)[seed % 4]),
        tmp_path,
    )


def test_receiver_restarted_after_its_answer_was_journaled(tmp_path):
    """R dies between its completion record and the rotation. The
    restart finds the answer on disk: it replays the journal offline,
    rotates it and returns - it neither refuses the completed journal
    nor dials a second query."""
    receiver, sender = _run_composed(
        ChaosSchedule(
            seed=5, protocol="intersection",
            receiver_crash=("journal.rotate.pre", 1),
        ),
        tmp_path,
    )
    answer, stats = receiver
    assert answer == CASES["intersection"][2]
    assert stats.frames_sent == 0 and stats.rounds_recovered == 2
    assert isinstance(sender, tuple)
    assert [p.suffix for p in (tmp_path / "receiver").iterdir()] == [".done"]

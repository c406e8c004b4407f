"""Party S's hosts, and the supervisor's task cancellation.

:class:`~repro.net.server.ProtocolServer` hosts every session as a task
running the session core under the asyncio shell;
:func:`~repro.net.tcp.serve_resumable_sender` hosts one session the
same way on a loop of its own (:func:`~repro.net.server.host_session`).
The mirror of ``test_aio.TestShellParity`` (which pins party R): same
seed, same forced mid-round disconnect, and the two hosts - and the
lock-step shell beside them - must put the same frames on the wire,
count the same stats and leave byte-identical journals, S's own set
exponentiated ahead of ``m1`` under all three. Then the
supervision that became
``task.cancel()``: idle and past-deadline sessions end ``expired`` and
free their slot, and a zero-second drain does not wait out a session's
frame timeout. Real time, short windows - no clock is faked.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.crypto.engine import MeteredEngine, SerialEngine
from repro.net import LockStep, tcp
from repro.net.journal import JournalDir, open_session
from repro.net.serialization import encode
from repro.net.server import ProtocolOffer, ProtocolServer
from repro.net.session import (
    SESSION_VERSION,
    RetryPolicy,
    SessionAborted,
    SessionConfig,
    seal,
    unseal,
)
from repro.net.virtual import Party
from repro.protocols.parties import PublicParams
from repro.protocols.spec import get_spec

BITS = 128
V_R = ["a", "b", "c", "d", "e"]
V_S = ["b", "c", "x"]


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _config(timeout_s=5.0, fin_grace_s=1.0):
    return SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=2,
        fin_grace_s=fin_grace_s,
    )


class _TapAndHangUpOnce:
    """Client-side endpoint wrapper: logs the bytes of every frame the
    server sends and hangs up once, on reading the server's data frame
    ``cut_seq`` - mid-round, its ack never sent."""

    def __init__(self, endpoint, log, state, cut_seq):
        self.endpoint, self.log, self.state = endpoint, log, state
        self.cut_seq = cut_seq

    async def recv_within(self, timeout):
        frame = await self.endpoint.recv_within(timeout)
        self.log.append(encode(frame))
        if not self.state and frame[:2] == ("msg", self.cut_seq):
            self.state.append("cut")
            await self.endpoint.close()
            raise ConnectionResetError("forced mid-round disconnect")
        return frame

    def __getattr__(self, name):
        return getattr(self.endpoint, name)


class _LoseOnce:
    """The lock-step twin of :class:`_TapAndHangUpOnce` (and of
    ``test_aio._TapAndCutOnce``), on the sending party's end: logs the
    bytes of every frame sent and loses data frame ``cut_seq`` together
    with the connection."""

    def __init__(self, end, log, state, cut_seq):
        self.end, self.log, self.state = end, log, state
        self.cut_seq = cut_seq

    def send(self, frame):
        if self.end.dead:
            raise BrokenPipeError("connection is gone")
        self.log.append(encode(frame))
        if not self.state and frame[:2] == ("msg", self.cut_seq):
            self.state.append("cut")
            self.end.close()
        else:
            self.end.send(frame)


def _sender_rng():
    """S's party rng as ``serve_resumable_sender`` leaves it: the
    session-rng seed is drawn first, then the party factory runs."""
    rng = random.Random(1)
    rng.getrandbits(64)
    return rng


class TestSenderShellParity:
    @pytest.mark.parametrize("chunk_size, cut_seq", [(None, 0), (2, 1)])
    def test_blocking_and_hosted_senders_are_the_same_sender(
        self, params, tmp_path, chunk_size, cut_seq
    ):
        config = _config()

        def client(port, frames, cut):
            return tcp.connect_resumable_receiver(
                "intersection", V_R, random.Random(2), "127.0.0.1", port,
                config=config, chunk_size=chunk_size,
                endpoint_wrapper=lambda ep: _TapAndHangUpOnce(
                    ep, frames, cut, cut_seq
                ),
            )

        def outcome(answer, frames, cut, stats, folder, batches):
            assert cut == ["cut"] and not list(folder.glob("*.wal"))
            flat = stats.as_dict()
            del flat["elapsed_s"]
            journals = {
                path.name: path.read_bytes() for path in folder.iterdir()
            }
            return sorted(answer), frames, flat, journals, batches

        def engine(batches):
            return MeteredEngine(SerialEngine(), batches.append)

        def one_shot():
            folder = tmp_path / "one-shot"
            frames, cut, bound, served, batches = [], [], {}, {}, []
            port_ready = threading.Event()

            def serve():
                served["stats"] = tcp.serve_resumable_sender(
                    "intersection", V_S, params, random.Random(1),
                    ready_callback=lambda p: (bound.update(port=p),
                                              port_ready.set()),
                    config=config, chunk_size=chunk_size,
                    journal_dir=folder, journal_fsync=False,
                    engine=engine(batches),
                )[1]

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            assert port_ready.wait(5)
            answer, _stats = client(bound["port"], frames, cut)
            server.join(timeout=10)
            assert not server.is_alive()
            return outcome(
                answer, frames, cut, served["stats"], folder, batches
            )

        def hosted():
            folder = tmp_path / "hosted"
            frames, cut, batches = [], [], []
            rng = _sender_rng()
            offer = ProtocolOffer(
                "intersection", params,
                lambda session_id: get_spec("intersection").make_sender(
                    V_S, params, rng, engine=engine(batches)
                ),
            )
            with ProtocolServer(
                [offer], config=config, chunk_size=chunk_size,
                journal_dir=JournalDir(folder, fsync=False),
            ) as server:
                answer, _stats = client(server.port, frames, cut)
                assert server.wait_for_sessions(1, timeout=10)
                (record,) = server.sessions.values()
            assert record.status == "done"
            return outcome(
                answer, frames, cut, record.stats, folder, batches
            )

        def lock_step():
            """Both cores as the resumable drivers build them, on one
            thread; S journals like the two hosts above."""
            folder = tmp_path / "lock-step"
            frames, cut, batches = [], [], []
            spec = get_spec("intersection")
            s_rng, r_rng = _sender_rng(), random.Random(2)
            sender, _ = open_session(
                "sender", "intersection",
                lambda: spec.make_sender(
                    V_S, params, s_rng, engine=engine(batches)
                ),
                params=params, journal_dir=JournalDir(folder, fsync=False),
                config=config,
                rng=random.Random(random.Random(1).getrandbits(64)),
                chunk_size=chunk_size,
            )
            receiver, _ = open_session(
                "receiver", "intersection",
                lambda wire: spec.make_receiver(
                    V_R, PublicParams.from_wire(tuple(wire)), r_rng
                ),
                config=config, rng=random.Random(r_rng.getrandbits(64)),
                chunk_size=chunk_size,
            )
            s = Party("S", sender.steps, dials=False,
                      wrap=lambda end: _LoseOnce(end, frames, cut, cut_seq))
            r = Party("R", receiver.steps, dials=True)
            LockStep(accept_timeout_s=config.timeout_s).run(r, s)
            assert r.error is None and s.error is None
            return outcome(
                r.result, frames, cut, sender.stats, folder, batches
            )

        under_one_shot, under_loop = one_shot(), hosted()
        in_lock_step = lock_step()
        assert under_one_shot[0] == under_loop[0] == in_lock_step[0] == ["b", "c"]
        # server -> client frames, S's SessionStats, rotated journal
        # bytes: the same under every shell.
        for observed in (1, 2, 3):
            assert (under_one_shot[observed] == under_loop[observed]
                    == in_lock_step[observed]), observed
        assert len(under_loop[3]) == 1
        # S's engine under every shell: the own set first, whole (it
        # went ahead of m1), then the answers - all of them at least
        # once (an abandoned chunk stream had pulled one chunk ahead of
        # the cut, under every shell alike).
        for batches in (under_one_shot[4], under_loop[4], in_lock_step[4]):
            assert batches[0] == len(V_S)
            assert sum(batches[1:]) >= len(V_R)
        assert under_one_shot[4] == under_loop[4] == in_lock_step[4]
        if chunk_size is None:
            assert under_loop[4] == [len(V_S), len(V_R)]
        stats = under_loop[2]
        assert (stats["reconnects"], stats["replayed_frames"],
                stats["rounds_resumed"]) == (1, 1, 1)


def _hello(port, session_id):
    """A raw client that says a valid hello and nothing else."""
    endpoint = tcp.SocketEndpoint(
        sock=socket.create_connection(("127.0.0.1", port), timeout=5.0)
    )
    endpoint.send(
        seal("hello", SESSION_VERSION, "intersection", session_id, 0, 0)
    )
    assert unseal(endpoint.recv())[0] == "welcome"
    return endpoint


def _await_expired(server, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        expired = [r for r in server.results() if r["status"] == "expired"]
        if len(expired) >= count:
            return
        time.sleep(0.02)
    raise AssertionError(f"reaper expired {len(expired)} of {count} sessions")


class TestTaskCancellation:
    def test_idle_and_past_deadline_sessions_expire_and_free_their_slots(
        self, params
    ):
        server = ProtocolServer(
            {"intersection": (V_S, params)}, max_sessions=2,
            config=_config(fin_grace_s=0.05),
            idle_timeout_s=0.5, session_deadline_s=1.5,
        )
        with server:
            silent = _hello(server.port, 1)
            chatty = _hello(server.port, 2)
            # Retransmitted hellos are answered with the same welcome:
            # frames keep moving, so only the deadline can end this one.
            stop = threading.Event()

            def chatter():
                hello = seal("hello", SESSION_VERSION, "intersection", 2, 0, 0)
                while not stop.wait(0.05):
                    try:
                        chatty.send(hello)
                    except OSError:
                        return

            talker = threading.Thread(target=chatter, daemon=True)
            talker.start()
            try:
                _await_expired(server, 2)
            finally:
                stop.set()
                talker.join(timeout=5)
            errors = {sid: server.sessions[sid].error for sid in (1, 2)}
            assert all(isinstance(e, SessionAborted) for e in errors.values())
            assert "idle timeout" in str(errors[1])
            assert "deadline" in str(errors[2])
            assert server.active_sessions() == 0
            silent.close()
            chatty.close()
            # Both slots are free again: two fresh clients complete.
            for seed in (3, 4):
                answer, _stats = tcp.connect_resumable_receiver(
                    "intersection", V_R, random.Random(seed), "127.0.0.1",
                    server.port, config=_config(fin_grace_s=0.05),
                )
                assert sorted(answer) == ["b", "c"]
        assert server.rejected_busy == 0

    def test_zero_drain_does_not_wait_out_the_frame_timeout(self, params):
        timeout_s = 5.0
        server = ProtocolServer(
            {"intersection": (V_S, params)}, config=_config(timeout_s),
        ).start()
        holder = _hello(server.port, 7)  # welcomed: S now awaits round 1
        started = time.monotonic()
        server.shutdown(drain_timeout_s=0)
        elapsed = time.monotonic() - started
        holder.close()
        assert elapsed < timeout_s / 2
        (record,) = server.sessions.values()
        assert record.status == "expired"
        assert isinstance(record.error, SessionAborted)
        assert "drain timeout" in str(record.error)

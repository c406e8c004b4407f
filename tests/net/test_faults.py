"""Tests for the seeded fault-injection layer."""

from __future__ import annotations

import asyncio
import random
import socket

import pytest

from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    FaultyEndpoint,
    corrupt_message,
)
from repro.net.aio import AsyncFrameEndpoint
from repro.net.tcp import SocketEndpoint


@pytest.fixture
def socket_pair():
    """``make(plan_a, plan_b=None)``: two :class:`FaultyEndpoint` over a
    ``socket.socketpair()``, closed after the test."""
    opened = []

    def make(plan_a, plan_b=None):
        raw_a, raw_b = socket.socketpair()
        opened.extend((raw_a, raw_b))
        return (
            FaultyEndpoint(SocketEndpoint(sock=raw_a), plan_a),
            FaultyEndpoint(SocketEndpoint(sock=raw_b), plan_b or plan_a),
        )

    yield make
    for sock in opened:
        sock.close()


class TestFaultPlan:
    def test_rates_must_sum_below_one(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.7, corrupt_rate=0.5)

    def test_zero_plan_is_clean_passthrough(self, socket_pair):
        a, b = socket_pair(FaultPlan())
        for i in range(20):
            a.send(("frame", i))
        assert [b.recv() for _ in range(20)] == [("frame", i) for i in range(20)]
        assert a.stats.injected == 0
        assert a.stats.delivered == 20


class TestDeterminism:
    def _fates(self, seed, n=40):
        plan = FaultPlan(seed=seed, drop_rate=0.3, corrupt_rate=0.2,
                         delay_rate=0.1)
        endpoint = FaultyEndpoint(_NullTransport(), plan,
                                  sleep=lambda _s: None)
        fates = []
        for _ in range(n):
            before = endpoint.stats.as_dict()
            endpoint.send(("payload", b"x"))
            after = endpoint.stats.as_dict()
            fates.append(tuple(after[k] - before[k] for k in sorted(after)))
        return fates

    def test_same_seed_same_fault_sequence(self):
        assert self._fates(7) == self._fates(7)

    def test_different_seed_different_sequence(self):
        assert self._fates(7) != self._fates(8)


class _NullTransport:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class TestCounters:
    def test_drop_counted_and_not_delivered(self):
        transport = _NullTransport()
        endpoint = FaultyEndpoint(transport, FaultPlan(seed=1, drop_rate=1.0))
        for _ in range(5):
            endpoint.send("m")
        assert endpoint.stats.sent == 5
        assert endpoint.stats.dropped == 5
        assert endpoint.stats.delivered == 0
        assert transport.sent == []

    def test_delay_counted_and_sleeps(self):
        slept = []
        endpoint = FaultyEndpoint(
            _NullTransport(),
            FaultPlan(seed=1, delay_rate=1.0, delay_s=0.125),
            sleep=slept.append,
        )
        endpoint.send("m")
        assert endpoint.stats.delayed == 1
        assert endpoint.stats.delivered == 1
        assert slept == [0.125]

    def test_max_faults_caps_injections(self):
        transport = _NullTransport()
        endpoint = FaultyEndpoint(
            transport, FaultPlan(seed=1, drop_rate=1.0, max_faults=3)
        )
        for _ in range(10):
            endpoint.send("m")
        assert endpoint.stats.dropped == 3
        assert endpoint.stats.delivered == 7

    def test_skip_delivers_prefix_cleanly(self):
        transport = _NullTransport()
        endpoint = FaultyEndpoint(
            transport, FaultPlan(seed=1, drop_rate=1.0, skip=4)
        )
        for _ in range(6):
            endpoint.send("m")
        assert endpoint.stats.delivered == 4
        assert endpoint.stats.dropped == 2

    def test_as_dict_shape(self):
        stats = FaultStats(sent=3, dropped=1, delivered=2)
        d = stats.as_dict()
        assert d["sent"] == 3 and d["dropped"] == 1 and d["delivered"] == 2
        assert set(d) == {
            "sent", "delivered", "dropped", "corrupted", "delayed",
            "disconnects",
        }


class TestCorruptMessage:
    def test_prefers_bytes_leaf(self):
        rng = random.Random(0)
        message = ("msg", 7, b"payload-bytes")
        damaged = corrupt_message(message, rng)
        assert damaged != message
        assert damaged[0] == "msg" and damaged[1] == 7
        assert isinstance(damaged[2], bytes)
        assert len(damaged[2]) == len(b"payload-bytes")

    def test_int_leaf_flips_one_bit(self):
        rng = random.Random(3)
        damaged = corrupt_message((42,), rng)
        assert damaged != (42,)
        assert isinstance(damaged[0], int)

    def test_no_leaf_becomes_marker(self):
        assert corrupt_message((), random.Random(0)) == ("?garbled?",)

    def test_preserves_structure(self):
        rng = random.Random(5)
        message = ["a", (1, [b"xy", "z"]), 9]
        damaged = corrupt_message(message, rng)
        assert isinstance(damaged, list) and len(damaged) == 3
        assert isinstance(damaged[1], tuple)


class TestInMemoryFaults:
    """Each fault class as the peer sees it, over a local socketpair."""

    def test_dropped_frames_never_arrive(self, socket_pair):
        a, b = socket_pair(
            FaultPlan(seed=2, drop_rate=1.0, max_faults=1), FaultPlan()
        )
        a.send("lost")
        a.send("kept")
        assert b.recv() == "kept"

    def test_corrupted_frame_differs(self, socket_pair):
        a, b = socket_pair(
            FaultPlan(seed=2, corrupt_rate=1.0, max_faults=1), FaultPlan()
        )
        a.send(("tag", b"payload"))
        damaged = b.recv()
        assert damaged != ("tag", b"payload")
        assert a.stats.corrupted == 1

    def test_disconnect_closes_channel(self, socket_pair):
        a, b = socket_pair(
            FaultPlan(seed=2, disconnect_rate=1.0), FaultPlan()
        )
        with pytest.raises(ConnectionError):
            a.send("doomed")
        assert a.stats.disconnects == 1
        with pytest.raises(ConnectionError):
            b.recv()


class TestSocketDisconnect:
    def test_mid_frame_cut_truncates_read(self):
        """The peer of a disconnect fault observes a half-sent frame."""
        raw_a, raw_b = socket.socketpair()

        async def cut():
            a = FaultInjector(FaultPlan(seed=0, disconnect_rate=1.0)).wrap(
                AsyncFrameEndpoint(*await asyncio.open_connection(sock=raw_a))
            )
            with pytest.raises(ConnectionError, match="mid-frame"):
                await a.send(("payload", b"x" * 64))

        asyncio.run(cut())
        b = SocketEndpoint(sock=raw_b)
        with pytest.raises(ConnectionError, match="mid-frame"):
            b.recv()
        b.close()

    def test_passthrough_accounting_and_timeout(self):
        raw_a, raw_b = socket.socketpair()
        a = FaultyEndpoint(SocketEndpoint(sock=raw_a), FaultPlan())
        b = FaultyEndpoint(SocketEndpoint(sock=raw_b), FaultPlan())
        a.send([1, 2, 3])
        assert b.recv() == [1, 2, 3]
        assert a.bytes_sent > 0 and b.bytes_received == a.bytes_sent
        raw_b.settimeout(0.01)
        with pytest.raises((TimeoutError, OSError)):
            b.recv()
        a.close()
        b.close()


class TestFaultInjector:
    def test_shared_rng_across_wraps(self):
        """Fresh wrappers continue one fault stream instead of replaying
        the seed - the property that makes reconnects survivable."""
        plan = FaultPlan(seed=9, drop_rate=0.5)
        injector = FaultInjector(plan)

        def fates(endpoint, n):
            out = []
            for _ in range(n):
                before = endpoint.stats.dropped
                endpoint.send("m")
                out.append(endpoint.stats.dropped - before)
            return out

        first = fates(injector.wrap(_NullTransport()), 10)
        second = fates(injector.wrap(_NullTransport()), 10)

        # A naive per-connection FaultyEndpoint restarts at the seed:
        replayed = fates(
            FaultyEndpoint(_NullTransport(), plan,
                           stats=FaultStats()), 10
        )
        assert first == replayed
        assert second != first  # the injector's stream moved on

    def test_stats_accumulate_across_connections(self):
        injector = FaultInjector(FaultPlan(seed=1, drop_rate=1.0))
        injector.wrap(_NullTransport()).send("a")
        injector.wrap(_NullTransport()).send("b")
        assert injector.stats.dropped == 2

    def test_injector_is_callable_as_wrapper(self):
        injector = FaultInjector(FaultPlan())
        endpoint = injector(_NullTransport())
        assert isinstance(endpoint, FaultyEndpoint)


class TestWrappedInMemoryChannel:
    """A zero plan on both ends of a local socketpair."""

    def test_clean_wrap_round_trips(self, socket_pair):
        a, b = socket_pair(FaultPlan())
        a.send(("k", 1, b"v"))
        assert b.recv() == ("k", 1, b"v")

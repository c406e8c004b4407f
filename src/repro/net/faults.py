"""Deterministic fault injection for the framed transports.

The paper's cost model assumes an idealized, lossless channel; a
deployment does not get one. :class:`FaultyEndpoint` wraps any framed
endpoint - an :class:`~repro.net.aio.AsyncFrameEndpoint` R dials or S
accepts (through a :class:`FaultInjector`, which awaits the same fates)
or a :class:`~repro.net.virtual.LockStep` connection - and injects
*seeded, reproducible* faults on the send path:

* **drop** - the frame silently never reaches the peer;
* **corrupt** - one leaf of the message (preferring payload bytes) is
  damaged before transmission, so checksums must catch it;
* **delay** - delivery is stalled by a configurable sleep;
* **disconnect** - the connection dies mid-frame (on a socket, half a
  frame is written first, so the peer observes a truncated read).

Every injected fault increments a per-class counter in
:class:`FaultStats`, which is how the chaos tests and the resilience
benchmark observe what actually happened. ``FaultPlan.max_faults``
caps the total injections so tests can script *exactly N* faults and
stay deterministic regardless of how many retries follow.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import struct
import time
from dataclasses import dataclass
from typing import Any, Callable

from . import serialization

__all__ = [
    "FaultPlan",
    "FaultStats",
    "FaultyEndpoint",
    "FaultInjector",
    "corrupt_message",
]

_LEN = struct.Struct(">I")

#: The :class:`FaultStats` counter of each fault class.
_COUNTERS = {
    "disconnect": "disconnects", "drop": "dropped", "corrupt": "corrupted",
    "delay": "delayed",
}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault probabilities for one direction of a connection.

    Rates are cumulative-exclusive per send (a single uniform draw
    decides: disconnect, else drop, else corrupt, else delay, else
    deliver cleanly), so their sum must stay at or below 1.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.01
    disconnect_rate: float = 0.0
    max_faults: int | None = None
    #: Deliver this many sends cleanly before faults arm - lets a test
    #: place a disconnect exactly mid-run (after a round completed).
    skip: int = 0

    def __post_init__(self) -> None:
        total = (
            self.drop_rate + self.corrupt_rate + self.delay_rate
            + self.disconnect_rate
        )
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"fault rates sum to {total}, must be in [0, 1]")


@dataclass
class FaultStats:
    """Per-fault-class counters (observability for tests and benches)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    disconnects: int = 0

    @property
    def injected(self) -> int:
        """Total faults injected so far."""
        return self.dropped + self.corrupted + self.delayed + self.disconnects

    def as_dict(self) -> dict[str, int]:
        """Flat mapping for JSON benchmark records."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "delayed": self.delayed,
            "disconnects": self.disconnects,
        }


def corrupt_message(message: Any, rng: random.Random) -> Any:
    """Damage exactly one leaf of a message, preferring payload bytes.

    Bytes leaves get one bit-flipped byte; int leaves one flipped bit;
    string leaves one swapped character. Messages with no mutable leaf
    become an unrecognizable marker frame.
    """
    paths: list[tuple[tuple[int, ...], Any]] = []

    def collect(obj: Any, path: tuple[int, ...]) -> None:
        if isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                collect(item, path + (i,))
        elif isinstance(obj, bytes) and obj:
            paths.append((path, obj))
        elif isinstance(obj, str) and obj:
            paths.append((path, obj))
        elif isinstance(obj, int) and not isinstance(obj, bool):
            paths.append((path, obj))

    collect(message, ())
    if not paths:
        return ("?garbled?",)
    byte_paths = [p for p in paths if isinstance(p[1], bytes)]
    pool = byte_paths or paths
    path, leaf = pool[rng.randrange(len(pool))]

    if isinstance(leaf, bytes):
        i = rng.randrange(len(leaf))
        damaged: Any = leaf[:i] + bytes([leaf[i] ^ (1 << rng.randrange(8))]) + leaf[i + 1:]
    elif isinstance(leaf, str):
        i = rng.randrange(len(leaf))
        damaged = leaf[:i] + chr((ord(leaf[i]) + 1) % 0x110000 or 1) + leaf[i + 1:]
    else:
        damaged = leaf ^ (1 << rng.randrange(max(leaf.bit_length(), 8)))

    def rebuild(obj: Any, path: tuple[int, ...]) -> Any:
        if not path:
            return damaged
        items = [
            rebuild(item, path[1:]) if i == path[0] else item
            for i, item in enumerate(obj)
        ]
        return items if isinstance(obj, list) else tuple(items)

    return rebuild(message, path)


class FaultyEndpoint:
    """Wrap a framed endpoint, injecting seeded faults on ``send``.

    Over an :class:`~repro.net.aio.AsyncFrameEndpoint` (a
    :class:`FaultInjector` picks the awaiting subclass) a *disconnect*
    writes half a frame before killing the socket (the peer sees a
    truncated read); a :class:`~repro.net.virtual.LockStep` connection
    is just closed. Receive and byte accounting pass through.
    """

    def __init__(
        self,
        transport: Any,
        plan: FaultPlan,
        stats: FaultStats | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.transport = transport
        self.plan = plan
        self.stats = stats if stats is not None else FaultStats()
        self.rng = rng if rng is not None else random.Random(plan.seed)
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Fault decisions
    # ------------------------------------------------------------------
    def _decide(self) -> str:
        plan = self.plan
        if self.stats.sent <= plan.skip:
            return "deliver"
        if plan.max_faults is not None and self.stats.injected >= plan.max_faults:
            return "deliver"
        r = self.rng.random()
        edge = plan.disconnect_rate
        if r < edge:
            return "disconnect"
        edge += plan.drop_rate
        if r < edge:
            return "drop"
        edge += plan.corrupt_rate
        if r < edge:
            return "corrupt"
        edge += plan.delay_rate
        if r < edge:
            return "delay"
        return "deliver"

    def _fate(self, message: Any) -> tuple[str, Any]:
        """Count one send and decide what happens to it: the fate, and
        the message to ship (damaged, if that is its fate)."""
        self.stats.sent += 1
        fate = self._decide()
        if fate != "deliver":
            counter = _COUNTERS[fate]
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if fate == "corrupt":
            message = corrupt_message(message, self.rng)
        return fate, message

    # ------------------------------------------------------------------
    # Endpoint interface
    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Ship one message, or do something worse to it."""
        fate, message = self._fate(message)
        if fate == "disconnect":
            with contextlib.suppress(OSError):
                self.close()
            raise ConnectionError("fault injection: connection dropped mid-frame")
        if fate == "drop":
            return
        if fate == "delay":
            self._sleep(self.plan.delay_s)
        self.transport.send(message)
        self.stats.delivered += 1

    def recv(self) -> Any:
        """Receive from the wrapped transport (faults are send-side)."""
        return self.transport.recv()

    def close(self) -> Any:
        """Close the wrapped transport (an awaitable, for one whose
        ``close`` is)."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            return close()

    @property
    def bytes_sent(self) -> int:
        return getattr(self.transport, "bytes_sent", 0)

    @property
    def bytes_received(self) -> int:
        return getattr(self.transport, "bytes_received", 0)


class _AsyncFaultyEndpoint(FaultyEndpoint):
    """:class:`FaultyEndpoint` over an
    :class:`~repro.net.aio.AsyncFrameEndpoint` (the connections R dials
    and S accepts): the same seeded fates, awaited on the event loop."""

    async def send(self, message: Any) -> None:
        """Ship one message, or do something worse to it."""
        fate, message = self._fate(message)
        if fate == "disconnect":
            with contextlib.suppress(OSError):
                self.transport.writer.write(_half_frame(message))
            await self.transport.close()
            raise ConnectionError("fault injection: connection dropped mid-frame")
        if fate == "drop":
            return
        if fate == "delay":
            await asyncio.sleep(self.plan.delay_s)
        await self.transport.send(message)
        self.stats.delivered += 1

    def __getattr__(self, name: str) -> Any:
        return getattr(self.transport, name)  # receive side: untouched


def _half_frame(message: Any) -> bytes:
    """The first half of ``message``'s frame: a cut mid-frame leaves
    the peer a truncated read."""
    wire = serialization.encode(message)
    frame = _LEN.pack(len(wire)) + wire
    return frame[: max(1, len(frame) // 2)]


class FaultInjector:
    """One seeded fault stream spanning every connection of a run.

    Constructing a fresh :class:`FaultyEndpoint` per connection would
    restart the fault RNG at the seed - after a fault-induced
    reconnect, the replacement connection would replay the *identical*
    fault sequence and die the identical death, forever. The injector
    owns the RNG and the counters; pass it as the ``endpoint_wrapper``
    of the resumable TCP helpers so faults continue across reconnects
    while the whole run stays reproducible from one seed.
    """

    def __init__(
        self,
        plan: FaultPlan,
        stats: FaultStats | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.plan = plan
        self.stats = stats if stats is not None else FaultStats()
        self.rng = random.Random(plan.seed)
        self._sleep = sleep

    def wrap(self, transport: Any) -> FaultyEndpoint:
        """A faulty wrapper sharing this injector's RNG and counters
        (awaitable for a transport whose ``send`` is)."""
        faulty = (
            _AsyncFaultyEndpoint
            if asyncio.iscoroutinefunction(transport.send) else FaultyEndpoint
        )
        return faulty(
            transport, self.plan, self.stats, sleep=self._sleep, rng=self.rng
        )

    __call__ = wrap

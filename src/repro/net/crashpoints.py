"""Crash points: named places a simulated process death can strike.

The journal, session and server layers call
:func:`crash_point` at every boundary that matters for durability
(pre/post-append, pre/post-rotate, per frame shipped or received, per
streamed chunk). The call is a thread-local lookup and costs nothing
when no hook is installed; under :func:`hooked` a :class:`CrashHook`
raises :class:`SimulatedCrash` (a ``BaseException``, so no retry loop
can swallow it) at the Nth hit of its named point - the in-process
equivalent of ``SIGKILL`` at an exact instruction.

The primitives live apart from the drivers that schedule them
(:mod:`repro.net.chaos`), so the instrumented product modules import
this small file and nothing of the harness.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "SimulatedCrash",
    "crash_point",
    "hooked",
    "CrashHook",
    "RecordingHook",
    "CRASH_POINTS",
]


class SimulatedCrash(BaseException):
    """A simulated process death at a crash point.

    Deliberately a ``BaseException``: the session layer retries broad
    ``Exception`` classes (that is its job), and a simulated crash must
    behave like ``SIGKILL`` - nothing between the crash point and the
    supervisor may catch it and carry on.
    """


#: The crash-point matrix: every named hook wired through the net
#: layer, mapped to the boundary it models.
CRASH_POINTS: dict[str, str] = {
    "journal.append.pre": "record encoded, nothing written yet",
    "journal.append.post": "record durable, caller has not acted on it",
    "journal.rotate.pre": "completion journaled, .wal -> .done rename pending",
    "journal.rotate.post": "journal rotated, caller has not returned",
    "session.ship.frame": "before each data/chunk frame is sent",
    "session.recv.frame": "after each received frame is journaled",
    "streaming.chunk.yield": "between chunks of a streamed round",
    "server.session.run": "supervisor worker about to run a session",
}

_tls = threading.local()


def crash_point(name: str) -> None:
    """Fire the calling thread's crash hook, if one is installed.

    Instrumented code calls this at durability boundaries; with no
    hook installed (the default, and always in production use) it is a
    thread-local attribute read and an ``is None`` test. Hooks are
    per-thread so a chaos run crashes exactly the party under test.
    """
    hook = getattr(_tls, "hook", None)
    if hook is not None:
        hook(name)


@contextmanager
def hooked(hook: Callable[[str], None] | None) -> Iterator[None]:
    """Install a crash hook on this thread for the ``with`` body.

    ``hooked(None)`` is a no-op, so drivers can pass an optional hook
    straight through. The previous hook (usually none) is restored on
    exit, even when the body dies at a crash point.
    """
    if hook is None:
        yield
        return
    previous = getattr(_tls, "hook", None)
    _tls.hook = hook
    try:
        yield
    finally:
        _tls.hook = previous


class CrashHook:
    """Raise :class:`SimulatedCrash` at the Nth hit of one named point.

    Counts every crash point it observes (``counts``), and fires once:
    when ``point`` reaches its ``hit``-th observation the hook raises
    and disarms, so a restarted party replays past the crash site
    instead of dying there forever. Counts persist across restarts -
    the hook models one scheduled death of one process, deterministic
    in the schedule.
    """

    def __init__(self, point: str, hit: int = 1):
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        self.point = point
        self.hit = hit
        self.fired = False
        self.counts: dict[str, int] = {}

    def __call__(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if (
            not self.fired
            and name == self.point
            and self.counts[name] >= self.hit
        ):
            self.fired = True
            raise SimulatedCrash(
                f"crash point {self.point!r} (hit {self.counts[name]})"
            )

    def as_dict(self) -> dict[str, Any]:
        """Flat summary (target, whether it fired, observed counts)."""
        return {
            "point": self.point,
            "hit": self.hit,
            "fired": self.fired,
            "counts": dict(self.counts),
        }


class RecordingHook:
    """A hook that only counts crash-point hits (never raises).

    Useful for discovering a run's crash-point space: record a clean
    run, then schedule a :class:`CrashHook` at any ``(point, hit)``
    the recording observed.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def __call__(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

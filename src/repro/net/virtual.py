"""The session core's third shell: virtual time, one thread, lock-step.

:mod:`repro.net.session_core` decides everything and touches nothing,
so a shell needs no socket, thread or real sleep to run it. This one
executes the ``Send`` / ``Recv`` / ``Sleep`` / ``NOW`` / ``Compute`` /
``Ahead`` / ``OPEN`` requests of every party on the
caller's thread (an ``Ahead`` step simply runs in place: nothing is
concurrent here), over in-memory connections, against a clock that
only moves when every party is blocked - and then straight to the
earliest pending deadline. A run is therefore a pure function of its parties
and their seeds: the exact time of every retransmit can be asserted
(``tests/net/test_session_core.py``), and a chaos schedule costs
milliseconds and replays identically (:func:`repro.net.chaos.run_schedule`).

A *party* is a factory of step generators - ``SenderCore.steps``,
``ReceiverCore.steps``, or any generator yielding the same requests
(a scripted peer). What a real deployment wraps around a process plugs
in per party: ``wrap`` decorates each connection end the party sends
through (:meth:`repro.net.faults.FaultInjector.wrap`, with its
``sleep=`` bound to :meth:`LockStep.sleep`), ``hook`` is installed as
the crash hook around every step, and an exception of a ``restart_on``
class escaping the generator is a process death: the connection drops,
the generator is discarded and the factory is entered again, up to
``max_restarts`` times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator

from .crashpoints import SimulatedCrash, hooked
from .session_core import (
    Ahead,
    Compute,
    Now,
    Open,
    Recv,
    Send,
    Sleep,
)

__all__ = ["LockStep", "Party", "Stuck"]


#: What a party's step may raise and the run survive (an interrupt of
#: the whole process is not among them).
_FAILURES = (Exception, SimulatedCrash)


class Stuck(Exception):
    """The run cannot end: every party is blocked with no deadline, or
    the step budget is spent. Set as the error of each unfinished party."""


class _End:
    """One end of an in-memory connection: what a party sends through.

    Frames travel as objects, instantly; ``close`` from either end
    kills the connection under both.
    """

    def __init__(self) -> None:
        self.inbox: deque = deque()
        self.dead = False
        self.peer: _End = self  # set by whoever makes the pair

    def send(self, frame: Any) -> None:
        """Deliver ``frame`` to the peer's inbox."""
        if self.dead:
            raise BrokenPipeError("connection is gone")
        self.peer.inbox.append(frame)

    def close(self) -> None:
        """Kill the connection under both parties."""
        self.dead = self.peer.dead = True


@dataclass
class Party:
    """One party of a lock-step run: its configuration and its outcome.

    After :meth:`LockStep.run`, exactly one of ``result`` (the
    generator's return value) and ``error`` (what escaped it, or
    :class:`Stuck`) is meaningful; ``restarts`` counts process deaths.
    """

    name: str
    start: Callable[[], Generator[Any, Any, Any]]
    dials: bool
    wrap: Callable[[Any], Any] | None = None
    hook: Callable[[str], None] | None = None
    restart_on: tuple[type[BaseException], ...] = ()
    max_restarts: int = 0
    result: Any = None
    error: BaseException | None = None
    restarts: int = 0
    done: bool = False
    _steps: Generator[Any, Any, Any] | None = None
    _end: _End | None = None
    _link: Any = None  # ``wrap(_end)``
    _request: Any = None
    _wake_at: float | None = None  # deadline of ``_request``
    _reply: Any = None
    _failure: BaseException | None = None

    def _hang_up(self) -> None:
        if self._end is not None:
            self._end.close()
        self._end = self._link = None


class LockStep:
    """Run parties against each other on one thread and a virtual clock.

    Parties that ``dial`` open connections, the others accept them in
    the order dialed (one listener); an accept with nobody dialing
    times out after ``accept_timeout_s``, a dial with no accepting
    party left is refused. Delivery is instantaneous: time moves only
    through :meth:`sleep` and when every party is blocked.
    """

    #: Requests one run may execute - far above any terminating run
    #: (every retry loop of the core is bounded), so exceeding it is a
    #: livelock and reported as :class:`Stuck`.
    STEP_BUDGET = 1_000_000

    def __init__(self, accept_timeout_s: float):
        self.clock = 0.0
        self.accept_timeout_s = accept_timeout_s
        self.parties: tuple[Party, ...] = ()
        self._dialed: deque[_End] = deque()

    def sleep(self, seconds: float) -> None:
        """Advance the clock in place - the ``sleep=`` of a fault
        injector, whose delays happen inside a party's ``Send``."""
        self.clock += seconds

    def run(self, *parties: Party) -> None:
        """Step every party to its end; outcomes land on the parties."""
        self.parties = parties
        stuck = self._run()
        for party in self.parties:
            if not party.done:
                if party._steps is not None:
                    party._steps.close()
                party._hang_up()
                party.done, party.error = True, Stuck(
                    f"{party.name} at t={self.clock}: {stuck}"
                )

    def _run(self) -> str | None:
        """The lock-step loop; returns why it cannot end, if it cannot."""
        budget = self.STEP_BUDGET
        while pending := [p for p in self.parties if not p.done]:
            progressed = False
            for party in pending:
                while not party.done and self._step(party):
                    progressed = True
                    budget -= 1
                    if not budget:
                        return f"no end after {self.STEP_BUDGET} requests"
            if progressed:
                continue
            deadlines = [
                p._wake_at for p in pending if p._wake_at is not None
            ]
            if not deadlines:
                return "every party is blocked with no deadline"
            self.clock = min(deadlines)
        return None

    def _step(self, party: Party) -> bool:
        """Advance ``party`` by one request; False when it must wait."""
        with hooked(party.hook):
            if party._request is None:
                try:
                    if party._steps is None:
                        party._steps = party.start()
                    if party._failure is not None:
                        failure, party._failure = party._failure, None
                        party._request = party._steps.throw(failure)
                    else:
                        reply, party._reply = party._reply, None
                        party._request = party._steps.send(reply)
                except StopIteration as stop:
                    party.done, party.result = True, stop.value
                    party._hang_up()
                    return True
                except _FAILURES as exc:
                    self._died(party, exc)
                    return True
                party._wake_at = None
            try:
                if not self._execute(party, party._request):
                    return False
            except _FAILURES as exc:
                party._failure = exc
        party._request = None
        return True

    def _died(self, party: Party, exc: BaseException) -> None:
        """A process death: sockets close, memory is gone; restart it
        (lazily, at its next step) while its budget lasts."""
        party._hang_up()
        party._steps = party._request = party._reply = None
        if isinstance(exc, party.restart_on):
            party.restarts += 1
            if party.restarts <= party.max_restarts:
                return
        party.done, party.error = True, exc

    def _due(self, party: Party, seconds: float) -> bool:
        if party._wake_at is None:
            party._wake_at = self.clock + seconds
        return self.clock >= party._wake_at

    def _execute(self, party: Party, request: Any) -> bool:
        """Serve one request; False to block, raise to throw it in."""
        kind = type(request)
        if kind is Now:
            party._reply = self.clock
        elif kind is Compute:
            party._reply = request.fn()
        elif kind is Ahead:
            try:
                request.fn()
            except Exception:
                pass  # dropped with the step, as under every shell
        elif kind is Send:
            party._link.send(request.frame)
        elif kind is Sleep:
            return self._due(party, request.seconds)
        elif kind is Recv:
            if party._end.inbox:
                party._reply = party._end.inbox.popleft()
            elif party._end.dead:
                raise ConnectionResetError("peer hung up")
            elif self._due(party, request.timeout):
                raise TimeoutError("virtual timeout")
            else:
                return False
        elif kind is Open:
            party._hang_up()
            if party.dials:
                if all(p.done for p in self.parties if not p.dials):
                    raise ConnectionRefusedError("nobody is listening")
                party._end = _End()
                party._end.peer = theirs = _End()
                theirs.peer = party._end
                self._dialed.append(theirs)
            elif self._dialed:
                party._end = self._dialed.popleft()
            elif self._due(party, self.accept_timeout_s):
                raise TimeoutError("nobody dialed")
            else:
                return False
            party._link = party.wrap(party._end) if party.wrap else party._end
        else:
            raise TypeError(f"unknown session request {request!r}")
        return True

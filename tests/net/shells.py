"""Run a session core's steps under the asyncio shell from a test.

Both parties' real runs execute their cores on
:func:`repro.net.aio.run_async`; the tests that drive a core by hand -
over a ``socketpair``, through a dial of their own, or one link verb
at a time - do the same here.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable

from repro.net.aio import AsyncFrameEndpoint, run_async
from repro.net.session_core import OPEN


async def endpoint(sock: socket.socket) -> AsyncFrameEndpoint:
    """A framed endpoint on the running loop over a connected socket."""
    return AsyncFrameEndpoint(*await asyncio.open_connection(sock=sock))


async def _link(opened: Any) -> Any:
    if isinstance(opened, socket.socket):
        return await endpoint(opened)
    if asyncio.iscoroutine(opened):
        return await opened
    return opened


def _opening(steps: Any) -> Any:
    """``steps`` after an ``OPEN`` of their link: a body that asks for
    none (a handshake, a link verb) gets the one it is handed."""
    yield OPEN
    return (yield from steps)


def run_core(
    steps: Any,
    open_link: Callable[[], Any] | None = None,
    transport: Any = None,
) -> Any:
    """``steps`` to completion under ``run_async`` on an event loop of
    this call's own; returns what they returned, every link they opened
    closed.

    Each ``OPEN`` takes ``open_link()``: a connected socket, an
    endpoint, or a coroutine for one (``tcp._connect(...)``).
    ``transport`` (the same kinds) is the one link of a body that
    issues no ``OPEN`` itself.
    """
    if transport is not None:
        steps, open_link = _opening(steps), lambda: transport
    return asyncio.run(run_async(steps, lambda: _link(open_link())))


class KeptLink:
    """One loop and one framed endpoint over ``sock`` for several runs:
    each :meth:`run` is a ``run_async`` of its own that leaves both
    open, so what a run read ahead stays buffered for the next."""

    def __init__(self, sock: socket.socket):
        self.loop = asyncio.new_event_loop()
        self.endpoint = self.loop.run_until_complete(endpoint(sock))

    def run(self, steps: Any) -> Any:
        async def kept() -> Any:
            return _Kept(self.endpoint)

        return self.loop.run_until_complete(run_async(_opening(steps), kept))


class _Kept:
    """An endpoint whose ``close`` leaves it open."""

    def __init__(self, endpoint: AsyncFrameEndpoint):
        self._endpoint = endpoint

    def __getattr__(self, name: str) -> Any:
        return getattr(self._endpoint, name)

    async def close(self) -> None:
        pass

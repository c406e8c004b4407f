"""Streaming helpers: double-buffered chunk production for pipelining.

The streaming win the chunked wire format (:mod:`repro.net.serialization`)
buys is *overlap*: while chunk ``k`` of a round is on the wire, the
:class:`~repro.crypto.engine.CryptoEngine` should already be
exponentiating chunk ``k+1``. The producer side of every round is an
iterator (:meth:`~repro.protocols.parties._Machine.produce_chunks`), so
overlap reduces to running that iterator one step ahead of the consumer
on a background thread - the classic bounded-queue double buffer
implemented by :func:`prefetch`.

:class:`TimedIterator` measures the time spent *inside* the wrapped
iterator (on whichever thread drives it), which is how the transport
drivers attribute producer-side crypto separately from wire time and
compute the pipeline-overlap ratio reported by
:class:`~repro.analysis.instrumentation.MetricsRecorder`.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from typing import Any, AsyncIterator, Iterable, Iterator

from .crashpoints import crash_point

__all__ = ["DEFAULT_PREFETCH_DEPTH", "aprefetch", "prefetch", "TimedIterator"]

#: Queue depth of the production-side double buffer: one chunk in
#: flight on the wire, one being computed, is the classic double
#: buffer; a depth of 2 tolerates jitter on either side.
DEFAULT_PREFETCH_DEPTH = 2

_DONE = object()
_POLL_S = 0.05


class TimedIterator:
    """Iterator wrapper accumulating time spent producing items.

    ``elapsed_s`` sums the wall time of every ``next()`` call on the
    underlying iterator, measured on the thread that drives it - under
    :func:`prefetch` that is the background producer thread, so the
    total is the genuine production (crypto) cost even when it overlaps
    the consumer's I/O.
    """

    def __init__(self, source: Iterable[Any]):
        self._source = iter(source)
        self.elapsed_s = 0.0
        self.items = 0

    def __iter__(self) -> "TimedIterator":
        return self

    def __next__(self) -> Any:
        start = time.perf_counter()
        try:
            item = next(self._source)
        finally:
            self.elapsed_s += time.perf_counter() - start
        self.items += 1
        return item


def prefetch(source: Iterable[Any]) -> Iterator[Any]:
    """Yield ``source``'s items, produced ahead on a thread.

    A bounded queue (:data:`DEFAULT_PREFETCH_DEPTH` items) decouples production from consumption: while the
    consumer blocks (e.g. in a socket send waiting for the peer), the
    producer thread keeps filling the buffer, so per-item production
    cost overlaps per-item consumption cost instead of adding to it.
    Order is preserved; a producer exception is re-raised at the
    consumer's next pull; abandoning the generator (``close()``/GC)
    stops the producer thread promptly.
    """
    buffer: queue.Queue = queue.Queue(maxsize=DEFAULT_PREFETCH_DEPTH)
    stop = threading.Event()
    failure: list[BaseException] = []

    def _put(item: Any) -> bool:
        # Poll so an abandoned consumer (stop set, queue full) cannot
        # wedge the producer thread forever.
        while not stop.is_set():
            try:
                buffer.put(item, timeout=_POLL_S)
                return True
            except queue.Full:
                continue
        return False

    def _produce() -> None:
        try:
            for item in source:
                if not _put(item):
                    return
        except BaseException as exc:  # re-raised consumer-side
            failure.append(exc)
        finally:
            _put(_DONE)

    worker = threading.Thread(
        target=_produce, name="repro-prefetch", daemon=True
    )
    worker.start()
    try:
        while True:
            item = buffer.get()
            if item is _DONE:
                break
            # Fires on the consumer (session) thread, so a simulated
            # crash kills the party mid-stream, not the prefetcher.
            crash_point("streaming.chunk.yield")
            yield item
        if failure:
            raise failure[0]
        worker.join()
    finally:
        stop.set()


async def aprefetch(
    source: Iterable[Any], executor: Any = None
) -> AsyncIterator[Any]:
    """Async :func:`prefetch`: the double buffer as a producer task.

    Same overlap, different mechanics: instead of a producer *thread*,
    a producer *task* steps the (synchronous, possibly crypto-heavy)
    iterator through ``loop.run_in_executor`` - so production blocks an
    executor worker, never the event loop - and feeds a bounded
    ``asyncio.Queue`` the consumer drains. While the consumer awaits an
    acknowledged send of chunk ``k``, chunk ``k+1`` is already being
    computed. Order is preserved; a producer exception re-raises at the
    consumer's next pull; abandoning the async generator cancels the
    producer task. ``executor=None`` uses the loop's default executor.
    """
    loop = asyncio.get_running_loop()
    iterator = iter(source)

    def _step() -> Any:
        # StopIteration must not cross the executor boundary into a
        # coroutine (it would surface as RuntimeError): fold it into
        # the sentinel here, on the worker thread.
        try:
            return next(iterator)
        except StopIteration:
            return _DONE

    buffer: asyncio.Queue = asyncio.Queue(maxsize=DEFAULT_PREFETCH_DEPTH)
    failure: list[BaseException] = []

    async def _produce() -> None:
        try:
            while True:
                item = await loop.run_in_executor(executor, _step)
                if item is _DONE:
                    break
                await buffer.put(item)
        except asyncio.CancelledError:
            # The consumer abandoned the stream: nobody is waiting for
            # the sentinel, and putting it could block forever.
            raise
        except BaseException as exc:  # re-raised consumer-side
            failure.append(exc)
        await buffer.put(_DONE)

    task = loop.create_task(_produce())
    try:
        while True:
            item = await buffer.get()
            if item is _DONE:
                break
            crash_point("streaming.chunk.yield")
            yield item
        if failure:
            raise failure[0]
    finally:
        task.cancel()

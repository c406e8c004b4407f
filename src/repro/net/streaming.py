"""The chunk stream of a streamed round: pulled one step ahead, timed.

The streaming win the chunked wire format (:mod:`repro.net.serialization`)
buys is *overlap*: while chunk ``k`` of a round is on the wire, the
:class:`~repro.crypto.engine.CryptoEngine` should already be
exponentiating chunk ``k+1``. The producer side of every round is an
iterator (:meth:`~repro.protocols.parties._Machine.produce_chunks`), so
overlap reduces to producing its next item ahead of the consumer. The
session core asks for that with the requests its shells already serve
(:mod:`repro.net.session_core`): an ``Ahead(stream.pull)`` for chunk
``k+1`` before it ships chunk ``k``, and a ``Compute(stream.take)``
for each chunk.

:class:`TimedIterator` also measures the time spent *inside* the
wrapped iterator (on whichever thread pulls), which is how the session
core attributes producer-side crypto separately from wire time and
computes the pipeline-overlap ratio reported by
:class:`~repro.analysis.instrumentation.MetricsRecorder`.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

__all__ = ["DONE", "TimedIterator"]

#: What :meth:`TimedIterator.take` returns once its source is exhausted.
DONE = object()


class TimedIterator:
    """A chunk stream: each item pulled ahead, then taken, and timed.

    ``elapsed_s`` sums the wall time of every ``next()`` call on the
    underlying iterator, measured on the thread that drives it - a
    shell's background thread when it runs :meth:`pull` ahead, so the
    total is the genuine production (crypto) cost even when it overlaps
    the consumer's I/O.
    """

    def __init__(self, source: Iterable[Any]):
        self._source = iter(source)
        self.elapsed_s = 0.0
        self.items = 0
        self._pulled: tuple | BaseException | None = None

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

    def pull(self) -> None:
        """Produce the next item, or :data:`DONE`, for :meth:`take`.

        Raises nothing: whatever the source raises - a
        ``BaseException`` such as a simulated crash included - is kept
        for :meth:`take` to raise on the consumer's side.
        """
        try:
            self._pulled = (next(self, DONE),)
        except BaseException as exc:
            self._pulled = exc

    def take(self) -> Any:
        """The item the last :meth:`pull` produced, or :data:`DONE`.

        Re-raises what that pull raised. Every take follows its own pull.
        """
        pulled, self._pulled = self._pulled, None
        if isinstance(pulled, BaseException):
            raise pulled
        return pulled[0]

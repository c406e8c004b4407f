"""Pluggable execution engines for batched modular exponentiation.

Section 6.2 of the paper assumes "P processors that we can utilize in
parallel" when pricing the protocols; this module is where that
assumption becomes an interchangeable runtime strategy instead of a
bench-only measurement. A :class:`CryptoEngine` executes a batch of
exponentiations ``[x**e mod p for x in xs]`` - the single hot
operation behind every ``encrypt``/``decrypt`` of the commutative
power cipher - and everything above it
(:class:`~repro.crypto.commutative.PowerCipher`, the party state
machines, the TCP drivers) stays engine-agnostic.

Engines:

* :class:`SerialEngine` - the single-processor baseline; zero
  overhead, always correct.
* :class:`ThreadPoolEngine` - cuts a batch into chunks of about
  :data:`CHUNK_WORK` that the calling thread and ``P - 1`` helper
  threads pull from one shared cursor. Each exponentiation is one GMP
  call, which releases the GIL (:mod:`repro.crypto.kernel`), so the
  threads compute at once in this process. The helpers come from one
  lazily made, process-wide executor that a forked child forgets and
  re-makes. Batches that save less than a thread hop
  (:data:`THREAD_HOP`), ``processors <= 1`` and the builtin kernel,
  whose ``pow`` holds the GIL, stay serial; so does a batch whose
  helper thread cannot start.
* :class:`MeteredEngine` - decorator that reports every batch's size
  to a callback, which is how the per-phase metrics layer counts
  modular exponentiations without the engines knowing about metrics.

Order is always preserved: for every engine,
``engine.pow_many(xs, e, p) == [pow(x, e, p) for x in xs]`` - the
protocol transcripts are byte-identical whichever engine runs them.
Engines decide *where* a batch runs; *how* each exponentiation is
computed is :mod:`repro.crypto.kernel`'s.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from . import kernel

__all__ = [
    "THREAD_HOP",
    "CHUNK_WORK",
    "available_cpus",
    "CryptoEngine",
    "SerialEngine",
    "ThreadPoolEngine",
    "MeteredEngine",
    "create_engine",
    "shared_engine",
    "shutdown_shared_engines",
]

#: What handing part of a batch to a helper thread costs, in the unit
#: one modexp is priced in below (``exponent bits x modulus bits^2``):
#: half a 1024-bit exponentiation. A batch is split only when the
#: helpers take more than this off its critical path. Measured on the
#: 2-CPU box of docs/PERFORMANCE.md ("One process for the crypto"):
#: eight 256-bit values take 0.18 ms serially and 0.22 ms on two
#: threads, sixty-four about break even, 128 pay (2.2 -> 1.6 ms).
THREAD_HOP = 1024**3 // 2

#: The work of one chunk in the same unit: about four 1024-bit
#: exponentiations, or about 256 at 256 bits. Two CPUs are not equally free
#: from moment to moment, and threads that pull chunks this size finish
#: within one of each other where two equal slices wait for the slower
#: one; smaller chunks only take the cursor more often (the sweep in
#: docs/PERFORMANCE.md).
CHUNK_WORK = 4 * 1024**3


def available_cpus() -> int:
    """How many CPUs this process may run on.

    Its affinity mask where the platform has one (a container pinned
    to one CPU reads 1), the machine's CPU count elsewhere.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The process-wide helper threads, made on first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(thread_name_prefix="repro-crypto")
        return _helpers


def _forget_executor() -> None:
    """Drop the helper threads' executor; the next batch makes a new one.

    Run in a forked child, where the parent's helper threads do not
    exist (a batch handed to them would wait forever), and after
    :func:`shutdown_shared_engines` stopped them.
    """
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


class CryptoEngine(ABC):
    """Strategy for executing a batch of modular exponentiations."""

    #: Degree of parallelism this engine aims for (the model's ``P``).
    workers: int = 1

    @abstractmethod
    def pow_many(
        self, xs: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """``[pow(x, exponent, modulus) for x in xs]``, order preserved."""

    def warm_up(self) -> None:
        """Pay any one-time startup cost now instead of mid-protocol."""

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def describe(self) -> dict[str, Any]:
        """Flat JSON-able summary for metrics reports."""
        return {
            "engine": type(self).__name__,
            "workers": self.workers,
            "kernel": kernel.describe(),
        }

    def __enter__(self) -> "CryptoEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialEngine(CryptoEngine):
    """The single-processor baseline (the cost model's ``P = 1``)."""

    def pow_many(
        self, xs: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """The batch on one processor, in order."""
        return kernel.pow_many(xs, exponent, modulus)


class ThreadPoolEngine(CryptoEngine):
    """Batches shared by the calling thread and helper threads.

    A batch that pays is cut into chunks of about :data:`CHUNK_WORK`,
    none longer than an equal share; the caller and up to ``P - 1``
    helpers take chunks from one cursor until none is left, and each
    writes its results to the chunk's place in the output. The helpers
    come from one process-wide executor that every engine shares.

    Args:
        processors: thread count ``P``, the caller included (default:
            :func:`available_cpus`).
    """

    def __init__(self, processors: int | None = None):
        self.workers = processors if processors else available_cpus()
        self.serial_batches = 0
        self.parallel_batches = 0
        self.thread_failures = 0

    def _step(self, n: int, exponent: int, modulus: int) -> int:
        """Values per chunk; ``n`` when the batch stays whole.

        Whole unless the helpers take more work off the critical path
        (``n`` in a row against an equal share's ``ceil(n / P)``) than
        a thread hop costs, and unless GMP computes: the builtin
        ``pow`` holds the GIL, so threads would only take turns.
        """
        work = exponent.bit_length() * modulus.bit_length() ** 2
        share = -(-n // self.workers)
        if (n - share) * work <= THREAD_HOP or not kernel.describe().startswith("gmp"):
            return n
        return min(max(1, CHUNK_WORK // work), share)

    def pow_many(
        self, xs: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """The batch over the threads; serial where it does not pay."""
        xs = list(xs)
        step = self._step(len(xs), exponent, modulus)
        if step >= len(xs):
            self.serial_batches += 1
            return kernel.pow_many(xs, exponent, modulus)
        out = [0] * len(xs)
        cursor = iter(range(0, len(xs), step))  # next() is atomic under the GIL

        def drain() -> None:
            for start in cursor:
                end = start + step
                out[start:end] = kernel.pow_many(xs[start:end], exponent, modulus)

        helpers = []
        for _ in range(min(self.workers, -(-len(xs) // step)) - 1):
            try:
                helpers.append(_executor().submit(drain))
            except RuntimeError:  # no thread to be had: go on without
                self.thread_failures += 1
                break
        drain()
        for helper in helpers:
            if not helper.cancel():  # a helper still queued found nothing
                helper.result()
        if helpers:
            self.parallel_batches += 1
        else:
            self.serial_batches += 1
        return out

    def describe(self) -> dict[str, Any]:
        """Engine summary plus batch-routing counters."""
        return {
            **super().describe(),
            "serial_batches": self.serial_batches,
            "parallel_batches": self.parallel_batches,
            "thread_failures": self.thread_failures,
        }


class MeteredEngine(CryptoEngine):
    """Engine decorator reporting each batch's size to a callback.

    The metrics layer passes
    :meth:`~repro.analysis.instrumentation.MetricsRecorder.count_modexp`
    as the callback, attributing every exponentiation to the phase
    active when it ran.
    """

    def __init__(self, inner: CryptoEngine, on_modexp: Callable[[int], None]):
        self.inner = inner
        self.on_modexp = on_modexp

    @property
    def workers(self) -> int:  # type: ignore[override]
        """The wrapped engine's parallelism."""
        return self.inner.workers

    def pow_many(
        self, xs: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """Delegate, then report the batch size."""
        out = self.inner.pow_many(xs, exponent, modulus)
        self.on_modexp(len(out))
        return out

    def warm_up(self) -> None:
        """Delegate to the wrapped engine."""
        self.inner.warm_up()

    def close(self) -> None:
        """Delegate to the wrapped engine."""
        self.inner.close()

    def describe(self) -> dict[str, Any]:
        """The wrapped engine's summary (metering is transparent)."""
        return self.inner.describe()


def create_engine(
    workers: int | None = None,
    on_modexp: Callable[[int], None] | None = None,
) -> CryptoEngine:
    """The right engine for a ``--workers N`` knob.

    ``workers`` of ``None``/``0``/``1`` gives the serial engine;
    anything larger the thread engine. With ``on_modexp`` the engine is
    wrapped in a :class:`MeteredEngine`.
    """
    engine: CryptoEngine
    if workers is None or workers <= 1:
        engine = SerialEngine()
    else:
        engine = ThreadPoolEngine(processors=workers)
    if on_modexp is not None:
        engine = MeteredEngine(engine, on_modexp)
    return engine


_SHARED: dict[int, CryptoEngine] = {}


def shared_engine(processors: int) -> CryptoEngine:
    """A process-wide engine for ``processors``, created once.

    What every :mod:`repro.api` entry point defaults to (sized by
    :func:`available_cpus`), and what
    :func:`repro.crypto.batch.parallel_pow` goes through: one set of
    batch counters per processor count.
    """
    engine = _SHARED.get(processors)
    if engine is None:
        engine = _SHARED[processors] = create_engine(processors)
    return engine


def shutdown_shared_engines() -> None:
    """Forget every process-wide engine and stop the helper threads.

    The next call makes fresh ones.
    """
    _SHARED.clear()
    if _helpers is not None:
        _helpers.shutdown()
    _forget_executor()

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
* :class:`ProcessPoolEngine` - hands each worker of a **shared**
  :class:`~concurrent.futures.ProcessPoolExecutor` one slice of the
  batch (CPython's GIL makes threads useless for bignum math). The
  pool is created lazily on the first batch worth a round trip and
  reused for every later call, so the fork cost is paid once per
  engine, not once per batch. Batches whose estimated work is below
  the crossover (:data:`POOL_ROUND_TRIP`) and ``processors <= 1`` stay
  on the serial path, a pool that cannot be started or breaks mid-run
  degrades to serial instead of failing the protocol, and a pool
  inherited through ``os.fork()`` is forgotten in the child.
* :class:`MeteredEngine` - decorator that reports every batch's size
  to a callback, which is how the per-phase metrics layer counts
  modular exponentiations without the engines knowing about metrics.

Order is always preserved: for every engine,
``engine.pow_many(xs, e, p) == [pow(x, e, p) for x in xs]`` - the
protocol transcripts are byte-identical whichever engine runs them.
Engines decide *where* a batch runs; *how* each exponentiation is
computed is :mod:`repro.crypto.kernel`'s, in every process.
"""

from __future__ import annotations

import atexit
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from . import kernel

__all__ = [
    "POOL_ROUND_TRIP",
    "available_cpus",
    "CryptoEngine",
    "SerialEngine",
    "ProcessPoolEngine",
    "MeteredEngine",
    "create_engine",
    "shared_engine",
    "shutdown_shared_engines",
]

#: What a round trip through the pool costs, in the unit one modexp is
#: priced in below (``exponent bits x modulus bits^2``, schoolbook
#: square-and-multiply): three full 1024-bit exponentiations. A batch
#: goes to the pool only when the slices take more than this off its
#: critical path. Calibrated on the 2-CPU box of docs/PERFORMANCE.md
#: (crossover tables there) with the builtin ``pow``: eight 1024-bit
#: values pay (30 -> 22 ms), sixty-four 256-bit values do not (6.9 ->
#: 8.6 ms). Kept under the GMP kernel, where every batch it sends to the
#: pool is still faster there (eight 1024-bit values 3.3 -> 2.3 ms) and
#: below 1024 bits it errs on the serial side.
POOL_ROUND_TRIP = 3 * 1024**3


def available_cpus() -> int:
    """How many CPUs this process may run on.

    Its affinity mask where the platform has one (a container pinned
    to one CPU reads 1), the machine's CPU count elsewhere.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pow_chunk(args: tuple[list[int], int, int]) -> list[int]:
    """Worker: exponentiate one slice (module-level for pickling)."""
    return kernel.pow_many(*args)


def _stay_busy(seconds: float) -> None:
    """Worker: compute nothing for ``seconds`` (the warm-up task)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


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


class ProcessPoolEngine(CryptoEngine):
    """Batches split one slice per worker over a shared process pool.

    The executor is created lazily on the first batch worth a round
    trip and then *reused* across calls - a protocol performs several
    batched rounds and must not pay pool startup for each. All items of
    a batch share exponent and modulus, so equal slices finish together
    and finer chunks would only add round trips.

    Args:
        processors: worker count ``P`` (default:
            :func:`available_cpus`).
    """

    def __init__(self, processors: int | None = None):
        self.workers = processors if processors else available_cpus()
        self.serial_batches = 0
        self.parallel_batches = 0
        self.pool_failures = 0
        self._pool: ProcessPoolExecutor | None = None
        self._owner = 0  # pid that started ``_pool``
        self._broken = False

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._owner != os.getpid():
            # Inherited through os.fork(): the executor's manager
            # thread lives only in the parent, so a batch submitted here
            # would wait forever. Forget it; it is the parent's to stop.
            self._pool, self._owner = None, os.getpid()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def warm_up(self) -> None:
        """Start every worker.

        One task each, long enough that no worker is idle again in
        time to take a second - and busy, not asleep: workers put to
        sleep right after the fork were seen sharing one CPU for the
        pool's first second (5 of 37 cold starts on the box of
        docs/PERFORMANCE.md, against 0 of 37 kept busy).
        """
        if self.workers <= 1 or self._broken:
            return
        try:
            list(self._ensure_pool().map(_stay_busy, [0.02] * self.workers))
        except (BrokenProcessPool, OSError, RuntimeError):
            self._mark_broken()

    def _mark_broken(self) -> None:
        self.pool_failures += 1
        self._broken = True
        self.close()

    def _pays(self, n: int, exponent: int, modulus: int) -> bool:
        """Whether the modexps the pool takes off the critical path
        (``n`` in a row against the longest slice's ``ceil(n / P)``)
        outweigh a round trip through it."""
        saved = n - -(-n // self.workers)
        work = exponent.bit_length() * modulus.bit_length() ** 2
        return saved * work > POOL_ROUND_TRIP

    def pow_many(
        self, xs: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """The batch over the pool; serial below the crossover."""
        xs = list(xs)
        if self._broken or not self._pays(len(xs), exponent, modulus):
            self.serial_batches += 1
            return kernel.pow_many(xs, exponent, modulus)
        step = -(-len(xs) // self.workers)
        slices = [
            (xs[i : i + step], exponent, modulus)
            for i in range(0, len(xs), step)
        ]
        try:
            parts = list(self._ensure_pool().map(_pow_chunk, slices))
        except (BrokenProcessPool, OSError, RuntimeError):
            # A pool that cannot start (sandbox, fd limits) or died
            # mid-batch must not fail the protocol: degrade to serial.
            self._mark_broken()
            self.serial_batches += 1
            return kernel.pow_many(xs, exponent, modulus)
        self.parallel_batches += 1
        return [y for part in parts for y in part]

    def close(self) -> None:
        """Shut the executor down (idempotent; a later batch restarts it).

        A forked child only forgets its parent's executor.
        """
        pool, self._pool = self._pool, None
        if pool is not None and self._owner == os.getpid():
            pool.shutdown(wait=True)

    def describe(self) -> dict[str, Any]:
        """Engine summary plus batch-routing counters."""
        info = super().describe()
        info.update(
            serial_batches=self.serial_batches,
            parallel_batches=self.parallel_batches,
            pool_failures=self.pool_failures,
        )
        return info


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
    anything larger a process pool. With ``on_modexp`` the engine is
    wrapped in a :class:`MeteredEngine`.
    """
    engine: CryptoEngine
    if workers is None or workers <= 1:
        engine = SerialEngine()
    else:
        engine = ProcessPoolEngine(processors=workers)
    if on_modexp is not None:
        engine = MeteredEngine(engine, on_modexp)
    return engine


_SHARED: dict[int, CryptoEngine] = {}


def shared_engine(processors: int) -> CryptoEngine:
    """A process-wide engine for ``processors``, created once.

    What :func:`repro.run` and locally paired catalogs default to
    (sized by :func:`available_cpus`), and what
    :func:`repro.crypto.batch.parallel_pow` goes through: every caller
    reuses one executor instead of rebuilding the pool per batch.
    """
    engine = _SHARED.get(processors)
    if engine is None:
        engine = _SHARED[processors] = create_engine(processors)
    return engine


def shutdown_shared_engines() -> None:
    """Close every process-wide engine (also runs at interpreter exit)."""
    for engine in _SHARED.values():
        engine.close()
    _SHARED.clear()


atexit.register(shutdown_shared_engines)

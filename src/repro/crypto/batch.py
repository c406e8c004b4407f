"""Parallel batch encryption (the Section 6.2 ``P``-processor model).

Section 6.2: "Encrypting the set of values is trivially parallelizable
in all three protocols. We assume that we have P processors that we can
utilize in parallel." This module makes that assumption executable:
:func:`parallel_pow` fans a batch of modular exponentiations out over a
process pool (CPython's GIL makes threads useless for bignum math), and
:class:`BatchSpeedup` measures the realized speedup so the parallelism
ablation can compare it with the model's ideal ``1/P``.

The pool itself lives in :mod:`repro.crypto.engine`: repeated
:func:`parallel_pow` calls share one process-wide
:class:`~repro.crypto.engine.ProcessPoolEngine` per processor count,
so only the *first* call pays worker startup. :func:`measure_speedup`
reports that startup cost (``pool_startup_s``), the first batch after
it (``cold_s``) and the steady-state parallel time separately, which
is what the crossover analysis in the parallelism ablation needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from . import kernel
from .engine import shared_engine

__all__ = ["parallel_pow", "sequential_pow", "BatchSpeedup", "measure_speedup"]


def sequential_pow(xs: Sequence[int], exponent: int, modulus: int) -> list[int]:
    """Baseline: the batch on one processor."""
    return kernel.pow_many(xs, exponent, modulus)


def parallel_pow(
    xs: Sequence[int], exponent: int, modulus: int, processors: int = 2
) -> list[int]:
    """The batch split over ``processors`` worker processes.

    Order is preserved. Stays on the sequential path for
    ``processors <= 1`` and for batches too small to pay for a round
    trip through the pool. The worker pool is shared across calls with
    the same processor count (see
    :func:`repro.crypto.engine.shared_engine`), so only the first call
    pays startup.
    """
    return shared_engine(processors).pow_many(xs, exponent, modulus)


@dataclass(frozen=True)
class BatchSpeedup:
    """One measured sequential-vs-parallel comparison.

    ``parallel_s`` is the steady-state (warm pool) time and ``cold_s``
    the first batch after the workers started - what a one-shot query
    gets; ``pool_startup_s`` is the one-time worker startup cost,
    reported separately because a shared pool amortizes it across all
    batches of a run.
    """

    batch: int
    processors: int
    sequential_s: float
    parallel_s: float
    pool_startup_s: float = 0.0
    cold_s: float = 0.0

    @property
    def speedup(self) -> float:
        return self.sequential_s / self.parallel_s if self.parallel_s else 0.0

    @property
    def ideal(self) -> float:
        """The Section 6.2 model's assumption."""
        return float(self.processors)


def measure_speedup(
    xs: Sequence[int], exponent: int, modulus: int, processors: int
) -> BatchSpeedup:
    """Time both paths on the same batch.

    The shared pool is restarted first (that startup time is
    ``pool_startup_s``), so the first parallel batch is a cold one and
    the second a warm one.
    """
    start = time.perf_counter()
    expected = sequential_pow(xs, exponent, modulus)
    sequential_s = time.perf_counter() - start

    engine = shared_engine(processors)
    pool_startup_s = 0.0
    if engine.workers > 1:
        engine.close()
        start = time.perf_counter()
        engine.warm_up()
        pool_startup_s = time.perf_counter() - start

    start = time.perf_counter()
    got = parallel_pow(xs, exponent, modulus, processors)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_pow(xs, exponent, modulus, processors)
    parallel_s = time.perf_counter() - start

    if got != expected:  # pragma: no cover - would be a correctness bug
        raise AssertionError("parallel batch disagreed with sequential")
    return BatchSpeedup(
        batch=len(xs),
        processors=processors,
        sequential_s=sequential_s,
        parallel_s=parallel_s,
        pool_startup_s=pool_startup_s,
        cold_s=cold_s,
    )

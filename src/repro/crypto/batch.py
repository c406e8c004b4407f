"""Parallel batch encryption (the Section 6.2 ``P``-processor model).

Section 6.2: "Encrypting the set of values is trivially parallelizable
in all three protocols. We assume that we have P processors that we can
utilize in parallel." This module makes that assumption executable:
:func:`parallel_pow` shares a batch of modular exponentiations among
``P`` threads of this process (each exponentiation is a GMP call that
releases the GIL), and :class:`BatchSpeedup` measures the realized
speedup so the parallelism ablation can compare it with the model's
ideal ``1/P``.

The threads live in :mod:`repro.crypto.engine`: every
:func:`parallel_pow` call goes through the process-wide
:class:`~repro.crypto.engine.ThreadPoolEngine` for its processor count.
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
    """The batch shared by ``processors`` threads.

    Order is preserved. Stays on the sequential path for
    ``processors <= 1`` and for batches too small to pay for a thread
    hop (see :class:`repro.crypto.engine.ThreadPoolEngine`).
    """
    return shared_engine(processors).pow_many(xs, exponent, modulus)


@dataclass(frozen=True)
class BatchSpeedup:
    """One measured sequential-vs-parallel comparison."""

    batch: int
    processors: int
    sequential_s: float
    parallel_s: float

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
    """Time both paths on the same batch."""
    start = time.perf_counter()
    expected = sequential_pow(xs, exponent, modulus)
    sequential_s = time.perf_counter() - start
    start = time.perf_counter()
    got = parallel_pow(xs, exponent, modulus, processors)
    parallel_s = time.perf_counter() - start
    if got != expected:  # pragma: no cover - would be a correctness bug
        raise AssertionError("parallel batch disagreed with sequential")
    return BatchSpeedup(
        batch=len(xs),
        processors=processors,
        sequential_s=sequential_s,
        parallel_s=parallel_s,
    )

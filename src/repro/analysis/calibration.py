"""Measure this machine's primitive costs (``C_e``, ``C_h``, ``C_K``, ``C_s``).

The paper's constants come from 2001 hardware ([36]: 0.02 s per
1024-bit exponentiation on a Pentium III). To compare the model against
runs on the present machine, :func:`calibrate` times the actual
primitives - modular exponentiation in the chosen group, the domain
hash, one ``K`` encryption, and comparison-sort throughput - and
returns a :class:`~repro.analysis.costmodel.CostConstants` with the
measured values.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..crypto import kernel
from ..crypto.ext_cipher import MultiplicativeExtCipher
from ..crypto.groups import QRGroup
from ..crypto.hashing import TryIncrementHash
from .costmodel import CostConstants, LinkModel, T1_LINE

__all__ = ["Calibration", "calibrate"]


def _time_per_call(fn, calls: int) -> float:
    """Average seconds per call over ``calls`` invocations."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


@dataclass(frozen=True)
class Calibration:
    """Measured constants plus context about how they were measured."""

    constants: CostConstants
    bits: int
    samples: int

    def exponentiations_per_hour(self) -> float:
        """Comparable to the paper's '2e5 exponentiations per hour'."""
        return 3600.0 / self.constants.ce_seconds


def calibrate(
    bits: int = 1024,
    samples: int = 30,
    seed: int = 20030609,
    processors: int = 1,
    link: LinkModel = T1_LINE,
) -> Calibration:
    """Measure ``C_e``, ``C_h``, ``C_K`` and ``C_s`` on this machine.

    Args:
        bits: modulus size to calibrate for (matches the suite in use).
        samples: timing repetitions per primitive.
        seed: randomness seed (deterministic inputs, not timings).
        processors: value to record in the returned constants.
        link: link model to record in the returned constants.
    """
    rng = random.Random(seed)
    group = QRGroup.for_bits(bits)
    hash_fn = TryIncrementHash(group)
    k_cipher = MultiplicativeExtCipher(group)

    base = group.random_element(rng)
    exponent = group.random_exponent(rng)
    ce = _time_per_call(
        lambda: kernel.pow_many([base], exponent, group.p), samples
    )

    values = [f"calibration-{rng.randrange(10**9)}" for _ in range(samples)]
    values_iter = iter(values * 2)
    ch = _time_per_call(lambda: hash_fn.hash_value(next(values_iter)), samples)

    kappa = group.random_element(rng)
    payload = b"x" * min(32, k_cipher.capacity_bytes)
    ck = _time_per_call(lambda: k_cipher.encrypt(kappa, payload), samples)

    # C_s is defined through "sorting n items costs n lg n C_s".
    n = 4096
    items = [rng.randrange(group.p) for _ in range(n)]
    per_sort = _time_per_call(lambda: sorted(items), max(3, samples // 10))
    import math

    cs = per_sort / (n * math.log2(n))

    constants = CostConstants(
        ce_seconds=ce,
        ch_seconds=ch,
        ck_seconds=ck,
        cs_seconds=cs,
        k_bits=bits,
        k_prime_bits=bits,
        processors=processors,
        link=link,
    )
    return Calibration(constants=constants, bits=bits, samples=samples)

"""The Section 6.1 cost model for the paper's protocols.

Formulas (with ``n_S = |V_S|``, ``n_R = |V_R|``, codewords ``k`` bits):

Computation
    Intersection / intersection size / equijoin size:
        ``(C_h + 2 C_e)(n_S + n_R) + 2 C_s n_S lg n_S + 3 C_s n_R lg n_R``
        (approximately ``2 C_e (n_S + n_R)``)
    Equijoin:
        ``C_h (n_S + n_R) + 2 C_e n_S + 5 C_e n_R + C_K (n_S + n_∩)
        + 2 C_s n_S lg n_S + 3 C_s n_R lg n_R``
        (approximately ``2 C_e n_S + 5 C_e n_R``)

Communication
    Intersection (and both size protocols): ``(n_S + 2 n_R) k`` bits.
    Equijoin: ``(n_S + 3 n_R) k + n_S k'`` bits, ``k'`` the encrypted
    ``ext(v)`` size.

Constants: the paper takes ``C_e`` = 0.02 s (1024-bit modexp, Pentium
III, 2001, [36]), a T1 line (1.544 Mbit/s), and ``P = 10`` processors
for the embarrassingly parallel encryption work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "LinkModel",
    "T1_LINE",
    "CostConstants",
    "PAPER_CONSTANTS",
    "OperationCounts",
    "ProtocolCostModel",
]


@dataclass(frozen=True)
class LinkModel:
    """A simple bandwidth/latency link model.

    Attributes:
        bandwidth_bps: usable bandwidth in bits per second.
        latency_s: one-way latency added per message.
    """

    bandwidth_bps: float = 1.544e6
    latency_s: float = 0.0

    def transfer_time(self, bits: float, messages: int = 1) -> float:
        """Seconds to push ``bits`` over the link in ``messages`` sends."""
        return bits / self.bandwidth_bps + messages * self.latency_s


#: The T1 line assumed throughout Section 6 (1.544 Mbit/s ~ 5 Gbit/hour).
T1_LINE = LinkModel(bandwidth_bps=1.544e6)


@dataclass(frozen=True)
class CostConstants:
    """Unit costs in seconds plus environment parameters.

    The paper's analysis keeps only the ``C_e`` terms ("we can assume
    ``C_e >> C_h``, ``C_e >> C_K`` and ``n C_e >> n lg n C_s``"); the
    defaults therefore zero the minor constants. Calibration
    (:mod:`repro.analysis.calibration`) fills in measured values.
    """

    ce_seconds: float = 0.02
    ch_seconds: float = 0.0
    ck_seconds: float = 0.0
    cs_seconds: float = 0.0
    k_bits: int = 1024
    k_prime_bits: int = 1024
    processors: int = 10
    link: LinkModel = field(default_factory=lambda: T1_LINE)

    def with_processors(self, processors: int) -> "CostConstants":
        """Copy of these constants with a different parallelism ``P``."""
        return replace(self, processors=processors)


#: The exact constants Section 6 plugs in.
PAPER_CONSTANTS = CostConstants()


def _nlogn(n: int) -> float:
    """``n lg n`` with the n=0,1 edge cases flattened to 0."""
    return n * math.log2(n) if n > 1 else 0.0


@dataclass(frozen=True)
class OperationCounts:
    """Primitive-operation counts for one protocol run.

    Counting operations (rather than only seconds) lets the benchmarks
    validate the model *exactly* against instrumented runs, independent
    of machine speed.
    """

    encryptions: int
    hashes: int
    k_encryptions: int
    sort_items_weighted: float  # sum of n lg n terms, C_s weight

    def seconds(self, constants: CostConstants) -> float:
        """Total sequential computation time under given constants."""
        return (
            self.encryptions * constants.ce_seconds
            + self.hashes * constants.ch_seconds
            + self.k_encryptions * constants.ck_seconds
            + self.sort_items_weighted * constants.cs_seconds
        )


@dataclass
class ProtocolCostModel:
    """Evaluates Section 6.1's formulas for given set sizes."""

    constants: CostConstants = field(default_factory=lambda: PAPER_CONSTANTS)

    # ------------------------------------------------------------------
    # Operation counts (exact formulas)
    # ------------------------------------------------------------------
    def intersection_ops(self, n_s: int, n_r: int) -> OperationCounts:
        """Intersection, intersection-size and equijoin-size count."""
        return OperationCounts(
            encryptions=2 * (n_s + n_r),
            hashes=n_s + n_r,
            k_encryptions=0,
            sort_items_weighted=2 * _nlogn(n_s) + 3 * _nlogn(n_r),
        )

    def join_ops(self, n_s: int, n_r: int, n_common: int | None = None) -> OperationCounts:
        """Equijoin count; ``n_common`` defaults to ``min(n_s, n_r)``."""
        if n_common is None:
            n_common = min(n_s, n_r)
        return OperationCounts(
            encryptions=2 * n_s + 5 * n_r,
            hashes=n_s + n_r,
            k_encryptions=n_s + n_common,
            sort_items_weighted=2 * _nlogn(n_s) + 3 * _nlogn(n_r),
        )

    # ------------------------------------------------------------------
    # Computation time
    # ------------------------------------------------------------------
    def intersection_seconds(self, n_s: int, n_r: int, exact: bool = True) -> float:
        """Sequential seconds for the intersection-style protocols."""
        if exact:
            return self.intersection_ops(n_s, n_r).seconds(self.constants)
        return 2 * self.constants.ce_seconds * (n_s + n_r)

    def join_seconds(
        self, n_s: int, n_r: int, n_common: int | None = None, exact: bool = True
    ) -> float:
        """Sequential seconds for the equijoin protocol."""
        if exact:
            return self.join_ops(n_s, n_r, n_common).seconds(self.constants)
        return (2 * n_s + 5 * n_r) * self.constants.ce_seconds

    def parallel_seconds(self, sequential_seconds: float) -> float:
        """Wall-clock with the Section 6.2 ``P``-processor assumption."""
        return sequential_seconds / self.constants.processors

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def intersection_bits(self, n_s: int, n_r: int) -> float:
        """``(n_S + 2 n_R) k`` bits; also the size protocols' traffic."""
        return (n_s + 2 * n_r) * self.constants.k_bits

    def join_bits(self, n_s: int, n_r: int) -> float:
        """``(n_S + 3 n_R) k + n_S k'`` bits."""
        return (n_s + 3 * n_r) * self.constants.k_bits + n_s * self.constants.k_prime_bits

    def transfer_seconds(self, bits: float) -> float:
        """Modelled link time for a bit volume."""
        return self.constants.link.transfer_time(bits, messages=0)

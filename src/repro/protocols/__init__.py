"""The paper's protocols: intersection (S3), equijoin (S4),
intersection size (S5.1), equijoin size (S5.2), the broken naive-hash
baseline (S3.1), executable proof simulators and the disclosure audit."""

from .aggregate import EquijoinSumResult, run_equijoin_sum
from .audit import AuditCheck, AuditReport, audit_view
from .base import (
    DEFAULT_BITS,
    EquijoinResult,
    EquijoinSizeResult,
    HashCollisionError,
    IntersectionResult,
    IntersectionSizeResult,
    ProtocolSuite,
)
from .equijoin import join_tables, run_equijoin
from .messages import ProtocolViolation
from .equijoin_size import join_size_tables, run_equijoin_size
from .intersection import run_intersection
from .intersection_size import run_intersection_size
from .parties import (
    IntersectionReceiver,
    IntersectionSender,
    IntersectionSizeReceiver,
    IntersectionSizeSender,
    PublicParams,
)
from .selection import SelectionResult, run_selection
from .naive_hash import (
    NaiveIntersectionResult,
    dictionary_attack,
    run_naive_intersection,
)
from .simulators import (
    simulate_r_view_equijoin,
    simulate_r_view_intersection,
    simulate_r_view_intersection_size,
    simulate_s_view_intersection,
)

__all__ = [
    "ProtocolSuite",
    "DEFAULT_BITS",
    "HashCollisionError",
    "ProtocolViolation",
    "run_intersection",
    "IntersectionResult",
    "run_intersection_size",
    "IntersectionSizeResult",
    "run_equijoin",
    "join_tables",
    "EquijoinResult",
    "run_equijoin_size",
    "join_size_tables",
    "EquijoinSizeResult",
    "run_equijoin_sum",
    "EquijoinSumResult",
    "run_selection",
    "SelectionResult",
    "PublicParams",
    "IntersectionReceiver",
    "IntersectionSender",
    "IntersectionSizeReceiver",
    "IntersectionSizeSender",
    "run_naive_intersection",
    "NaiveIntersectionResult",
    "dictionary_attack",
    "simulate_s_view_intersection",
    "simulate_r_view_intersection",
    "simulate_r_view_equijoin",
    "simulate_r_view_intersection_size",
    "audit_view",
    "AuditReport",
    "AuditCheck",
]

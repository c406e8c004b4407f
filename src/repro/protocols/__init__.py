"""The paper's protocols: intersection (S3), equijoin (S4),
intersection size (S5.1), equijoin size (S5.2), the broken naive-hash
baseline (S3.1), executable proof simulators and the disclosure audit.

Each of the five two-party protocols is one registered spec
(:data:`~repro.protocols.spec.PROTOCOLS`); :func:`repro.run` runs one
in process, through :func:`~repro.protocols.spec.run_pair`."""

from .audit import AuditCheck, AuditReport, audit_view
from .base import HashCollisionError
from .equijoin import join_size_tables, join_tables
from .messages import ProtocolViolation
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
    "HashCollisionError",
    "ProtocolViolation",
    "join_tables",
    "join_size_tables",
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

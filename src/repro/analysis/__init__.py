"""Cost analysis (Section 6), machine calibration, application
estimates and equijoin-size leakage characterization (Section 5.2)."""

from .calibration import Calibration, calibrate
from .composition import CompositionAnalyzer, MembershipKnowledge
from .costmodel import (
    CostConstants,
    LinkModel,
    OperationCounts,
    PAPER_CONSTANTS,
    ProtocolCostModel,
    T1_LINE,
)
from .instrumentation import CountingSuite, OperationCounter, counting_suite
from .estimates import (
    ApplicationEstimate,
    document_sharing_estimate,
    medical_research_estimate,
)
from .leakage import (
    EquijoinSizeLeak,
    LeakageProfile,
    duplicate_distribution,
    equijoin_size_leak,
    leakage_profile,
    overlap_matrix,
)

__all__ = [
    "LinkModel",
    "T1_LINE",
    "CostConstants",
    "PAPER_CONSTANTS",
    "OperationCounts",
    "ProtocolCostModel",
    "ApplicationEstimate",
    "document_sharing_estimate",
    "medical_research_estimate",
    "Calibration",
    "calibrate",
    "LeakageProfile",
    "leakage_profile",
    "overlap_matrix",
    "EquijoinSizeLeak",
    "equijoin_size_leak",
    "duplicate_distribution",
    "OperationCounter",
    "CountingSuite",
    "counting_suite",
    "CompositionAnalyzer",
    "MembershipKnowledge",
]

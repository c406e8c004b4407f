"""The intersection-size protocol (Section 5.1).

Identical to the intersection protocol except for Step 4(b): S returns
only the lexicographically reordered double encryptions ``Z_R``,
*without* pairing them to the ``y`` values, so R can count matches but
cannot tell *which* of its values matched (Statements 5 and 6).

The steps live in :class:`~repro.protocols.parties.IntersectionSizeReceiver`
/ ``IntersectionSizeSender``; this driver runs the registered
``"intersection-size"`` spec in process and records it.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .base import IntersectionSizeResult, ProtocolSuite
from .spec import run_recorded

__all__ = ["run_intersection_size"]


def run_intersection_size(
    v_r: Sequence[Hashable],
    v_s: Sequence[Hashable],
    suite: ProtocolSuite | None = None,
) -> IntersectionSizeResult:
    """Execute the Section 5.1.1 protocol; R learns ``|V_S ∩ V_R|``."""
    size, r_state, s_state, run = run_recorded(
        "intersection-size", v_r, v_s, suite
    )
    return IntersectionSizeResult(
        size=size,
        size_v_s=r_state.size_v_s,
        size_v_r=s_state.size_v_r,
        run=run,
    )

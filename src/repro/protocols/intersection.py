"""The intersection protocol (Section 3.3).

Party R (receiver) and party S (sender) hold value sets ``V_R`` and
``V_S``. At the end R learns ``V_S ∩ V_R`` and ``|V_S|``; S learns only
``|V_R|`` (Statements 1 and 2).

The six steps of Section 3.3 live in the party state machines
(:class:`~repro.protocols.parties.IntersectionReceiver` /
``IntersectionSender``); this driver runs the registered
``"intersection"`` spec in process and records it, so simulation, TCP
and resumable execution all share one code path. The step labels on
the wire messages match the paper's numbering so the recorded views
can be compared against the proof's simulators.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .base import IntersectionResult, ProtocolSuite
from .spec import run_recorded

__all__ = ["run_intersection"]


def run_intersection(
    v_r: Sequence[Hashable],
    v_s: Sequence[Hashable],
    suite: ProtocolSuite | None = None,
) -> IntersectionResult:
    """Execute the Section 3.3 protocol.

    Args:
        v_r: R's value set (duplicates are removed, as the paper's
            ``V_R`` is a set).
        v_s: S's value set.
        suite: agreed parameters; a fresh 1024-bit default when omitted.

    Returns:
        The intersection together with the sizes each side learned and
        the recorded run.
    """
    answer, r_state, s_state, run = run_recorded("intersection", v_r, v_s, suite)
    # Both parties also learn the set sizes (the allowed information I).
    return IntersectionResult(
        intersection=answer,
        size_v_s=r_state.size_v_s,
        size_v_r=s_state.size_v_r,
        run=run,
    )

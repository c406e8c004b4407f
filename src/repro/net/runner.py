"""Two- and three-party run records: wire bytes plus views.

A :class:`ProtocolRun` is what a protocol driver hands each message
to: :meth:`~ProtocolRun.to_s` / :meth:`~ProtocolRun.to_r` encode the
payload once, count its bytes and record the *decoded* copy in the
receiving party's :class:`~repro.net.transcript.View`, so a party only
ever holds what crossed the wire (no shared mutable state).  The
hand-written protocols (naive hash, selection, the medical application)
call them as they go; the five registered ones run through
:meth:`~repro.protocols.spec.ProtocolSpec.exchange` - the only
in-process round loop - and ``spec.run_recorded`` records the wires it
returns, part by part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import serialization
from .transcript import View

__all__ = ["ProtocolRun", "ThreePartyRun"]


@dataclass
class ProtocolRun:
    """One two-party protocol run: each party's view, and wire bytes.

    ``total_bytes`` counts every message as
    :func:`~repro.net.serialization.encode` puts it on the wire.
    """

    protocol: str
    r_view: View = field(init=False)
    s_view: View = field(init=False)
    total_bytes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.r_view = View(party="R", protocol=self.protocol)
        self.s_view = View(party="S", protocol=self.protocol)

    def _deliver(self, view: View, step: str, payload: Any) -> Any:
        wire = serialization.encode(payload)
        self.total_bytes += len(wire)
        return view.record(step, serialization.decode(wire))

    def to_s(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from R to S; returns what S received."""
        return self._deliver(self.s_view, step, payload)

    def to_r(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from S to R; returns what R received."""
        return self._deliver(self.r_view, step, payload)


@dataclass
class ThreePartyRun(ProtocolRun):
    """R, S and a researcher T (the medical application's recipient).

    The modified intersection-size protocol of Section 6.2.2 sends the
    doubly encrypted sets to ``T`` instead of back to R and S.
    """

    t_view: View = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.t_view = View(party="T", protocol=self.protocol)

    def to_t(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from R or S to T; returns what T received."""
        return self._deliver(self.t_view, step, payload)

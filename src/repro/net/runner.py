"""Two- and three-party run records: accounted channels plus views.

A :class:`ProtocolRun` is what a protocol driver ships its messages
through, one :class:`~repro.net.channel.Channel` per direction, so
every bit a party learns crosses an accounted wire and is recorded in
its :class:`~repro.net.transcript.View`.  The hand-written protocols
(naive hash, selection, the medical application) call :meth:`to_s` /
:meth:`to_r` as they go; the five registered ones run through
:meth:`~repro.protocols.spec.ProtocolSpec.exchange` - the only
in-process round loop - and ``spec.run_recorded`` ships the wires it
returns, part by part.

The run exposes the statistics the benchmarks need (bytes per
direction, modelled transfer times).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .channel import Endpoint, LinkModel, T1_LINE, duplex_pair
from .transcript import View

__all__ = ["ProtocolRun", "ThreePartyRun"]


@dataclass
class ProtocolRun:
    """Execution context for one two-party protocol run.

    Creates a duplex R<->S connection and the per-party views; the
    protocol driver sends every message through :meth:`to_s` /
    :meth:`to_r` so the run's statistics are byte-exact.
    """

    protocol: str
    r_endpoint: Endpoint = field(init=False)
    s_endpoint: Endpoint = field(init=False)
    r_view: View = field(init=False)
    s_view: View = field(init=False)
    started_at: float = field(default_factory=time.perf_counter)
    finished_at: float | None = None

    def __post_init__(self) -> None:
        self.r_endpoint, self.s_endpoint = duplex_pair("R", "S")
        self.r_view = View(party="R", protocol=self.protocol)
        self.s_view = View(party="S", protocol=self.protocol)

    # ------------------------------------------------------------------
    # Message movement (R -> S and S -> R)
    # ------------------------------------------------------------------
    def to_s(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from R to S; returns what S received."""
        self.r_endpoint.send(payload)
        return self.s_view.record(step, self.s_endpoint.recv())

    def to_r(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from S to R; returns what R received."""
        self.s_endpoint.send(payload)
        return self.r_view.record(step, self.r_endpoint.recv())

    def finish(self) -> None:
        """Freeze the run's elapsed-time clock."""
        self.finished_at = time.perf_counter()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        end = self.finished_at if self.finished_at is not None else time.perf_counter()
        return end - self.started_at

    @property
    def bytes_r_to_s(self) -> int:
        return self.r_endpoint.outbound.bytes_sent

    @property
    def bytes_s_to_r(self) -> int:
        return self.s_endpoint.outbound.bytes_sent

    @property
    def total_bytes(self) -> int:
        return self.bytes_r_to_s + self.bytes_s_to_r

    @property
    def total_bits(self) -> int:
        return 8 * self.total_bytes

    def transfer_time(self, link: LinkModel = T1_LINE) -> float:
        """Modelled time to move this run's traffic over ``link``."""
        messages = (
            self.r_endpoint.outbound.messages_sent
            + self.s_endpoint.outbound.messages_sent
        )
        return link.transfer_time(self.total_bits, messages)


@dataclass
class ThreePartyRun:
    """R, S and a researcher T (the medical application's recipient).

    The modified intersection-size protocol of Section 6.2.2 sends the
    doubly encrypted sets to ``T`` instead of back to R and S.
    """

    protocol: str
    r_to_s: ProtocolRun = field(init=False)
    t_view: View = field(init=False)
    r_to_t: Endpoint = field(init=False)
    s_to_t: Endpoint = field(init=False)
    _t_from_r: Endpoint = field(init=False)
    _t_from_s: Endpoint = field(init=False)

    def __post_init__(self) -> None:
        self.r_to_s = ProtocolRun(protocol=self.protocol)
        self.t_view = View(party="T", protocol=self.protocol)
        self.r_to_t, self._t_from_r = duplex_pair("R", "T")
        self.s_to_t, self._t_from_s = duplex_pair("S", "T")

    def r_sends_t(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from R to the researcher T."""
        self.r_to_t.send(payload)
        return self.t_view.record(step, self._t_from_r.recv())

    def s_sends_t(self, step: str, payload: Any) -> Any:
        """Ship ``payload`` from S to the researcher T."""
        self.s_to_t.send(payload)
        return self.t_view.record(step, self._t_from_s.recv())

    @property
    def total_bytes(self) -> int:
        return (
            self.r_to_s.total_bytes
            + self.r_to_t.outbound.bytes_sent
            + self.s_to_t.outbound.bytes_sent
        )

    @property
    def total_bits(self) -> int:
        return 8 * self.total_bytes

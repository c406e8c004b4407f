"""Tests for the two-way link a protocol run record gives R and S."""

from __future__ import annotations

from repro.net.runner import ProtocolRun
from repro.net.serialization import encoded_size


class TestDuplexPair:
    def test_cross_wiring(self):
        run = ProtocolRun(protocol="demo")
        run.to_s("a", "from-r")
        run.to_r("b", "from-s")
        assert list(run.s_view.payloads()) == ["from-r"]
        assert list(run.r_view.payloads()) == ["from-s"]

    def test_total_bytes_sums_both_directions(self):
        run = ProtocolRun(protocol="demo")
        run.to_s("a", [1] * 10)
        run.to_r("b", "x")
        assert run.total_bytes == encoded_size([1] * 10) + encoded_size("x")

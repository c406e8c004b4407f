"""Tests for the protocol run records."""

from __future__ import annotations

from repro.net.runner import ProtocolRun, ThreePartyRun
from repro.net.serialization import encoded_size


class TestProtocolRun:
    def test_message_movement_and_views(self):
        run = ProtocolRun(protocol="demo")
        got = run.to_s("1:msg", [1, 2, 3])
        assert got == [1, 2, 3]
        got = run.to_r("2:msg", "reply")
        assert got == "reply"
        assert [m.step for m in run.s_view.received] == ["1:msg"]
        assert [m.step for m in run.r_view.received] == ["2:msg"]

    def test_views_record_in_order(self):
        run = ProtocolRun(protocol="demo")
        run.to_s("1", [1, 2])
        run.to_s("2", "second")
        assert list(run.s_view.payloads()) == [[1, 2], "second"]

    def test_byte_accounting_by_direction(self):
        run = ProtocolRun(protocol="demo")
        a = [2**100] * 4
        b = [2**100] * 7
        run.to_s("x", a)
        assert run.total_bytes == encoded_size(a)
        run.to_r("y", b)
        assert run.total_bytes == encoded_size(a) + encoded_size(b)

    def test_byte_accounting_exact(self):
        run = ProtocolRun(protocol="demo")
        payloads = [[2**100, 2**100 + 1], "text", b"\x00" * 10]
        for p in payloads:
            run.to_r("m", p)
        assert run.total_bytes == sum(encoded_size(p) for p in payloads)

    def test_receiver_sees_serialized_copy(self):
        """No shared mutable state between the parties."""
        run = ProtocolRun(protocol="demo")
        original = [1, 2, 3]
        got = run.to_s("m", original)
        original.append(4)
        assert got == [1, 2, 3] and got is not original
        assert next(run.s_view.payloads("m")) == [1, 2, 3]

    def test_views_labelled_by_party(self):
        run = ProtocolRun(protocol="demo")
        assert run.r_view.party == "R"
        assert run.s_view.party == "S"
        assert run.r_view.protocol == "demo"


class TestThreePartyRun:
    def test_t_receives_from_both(self):
        run = ThreePartyRun(protocol="medical")
        run.to_t("zs", [1, 2])
        run.to_t("zr", [3])
        steps = [m.step for m in run.t_view.received]
        assert steps == ["zs", "zr"]
        assert run.t_view.party == "T"
        assert not run.r_view.received and not run.s_view.received

    def test_total_bytes_includes_all_links(self):
        run = ThreePartyRun(protocol="medical")
        payloads = [[1] * 5, [2] * 3, [3] * 2, b"z" * 9]
        run.to_s("a", payloads[0])
        run.to_r("b", payloads[1])
        run.to_t("c", payloads[2])
        run.to_t("d", payloads[3])
        assert run.total_bytes == sum(encoded_size(p) for p in payloads)

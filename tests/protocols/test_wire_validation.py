"""A received round is checked at the wire boundary: the declared
nesting, an ``int`` at every leaf (``bool`` excluded) and every group
element in ``[1, p)``. Anything else is one typed
:class:`~repro.ProtocolViolation` - in memory and over a session - never
a bare ``ValueError`` / ``TypeError`` from a step, and never an answer.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro
from repro.net import LockStep
from repro.net.session import RetryPolicy, SessionConfig, SessionStats
from repro.net.session_core import ReceiverCore, SenderCore
from repro.net.virtual import Party
from repro.protocols import spec as spec_module
from repro.protocols.messages import IntersectionReply, ProtocolViolation
from repro.protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from repro.protocols.spec import PROTOCOLS, get_spec

PARAMS = PublicParams.for_bits(256)
V_R, V_S = ["a", "b", "c", "d"], ["c", "d", "e"]

#: The probe's rows that the shape and range check turns into a
#: ProtocolViolation: S's ``Y_S`` with an element appended.
ROWS = {"zero": 0, "str": "x", "p": PARAMS.p, "bool": True}


def _inputs(name):
    if get_spec(name).sender_input == "ext":
        return V_R, {v: f"ext:{v}".encode() for v in V_S}
    if get_spec(name).sender_input == "amounts":
        return V_R, {v: 3 for v in V_S}
    return V_R, V_S


def _machines(name):
    r_data, s_data = _inputs(name)
    spec = PROTOCOLS[name]
    return (
        ReceiverMachine(spec, r_data, PARAMS, random.Random("R")),
        SenderMachine(spec, s_data, PARAMS, random.Random("S")),
    )


def _honest_m2(name="intersection"):
    """R, and S's honest ``m2`` wire after an honest ``m1``."""
    spec = PROTOCOLS[name]
    receiver, sender = _machines(name)
    m1, m2 = spec.rounds[:2]
    sender.consume(m1, receiver.produce(m1).to_wire())
    return receiver, sender.produce(m2)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_bad_element_in_y_s_is_a_violation_in_memory(row):
    m2 = get_spec("intersection").rounds[1]
    receiver, reply = _honest_m2()
    bad = IntersectionReply(reply.y_s + [ROWS[row]], reply.pairs)
    with pytest.raises(ProtocolViolation, match="IntersectionReply.y_s"):
        receiver.consume(m2, bad.to_wire())
    receiver, _ = _honest_m2()
    with pytest.raises(ProtocolViolation, match="IntersectionReply.y_s"):
        receiver.consume_chunks(m2, list(bad.to_wire_chunks(2)))
    assert "m2" not in receiver.inbox


def test_the_honest_reply_passes_and_answers():
    m2 = get_spec("intersection").rounds[1]
    receiver, reply = _honest_m2()
    receiver.consume(m2, reply.to_wire())
    assert receiver.finish() == {"c", "d"}


def _leaves(wire, path=()):
    """Every ``(path, leaf)`` of a wire payload, depth first."""
    if isinstance(wire, (list, tuple)):
        for index, item in enumerate(wire):
            yield from _leaves(item, (*path, index))
    else:
        yield path, wire


def _replace(wire, path, value):
    if not path:
        return value
    items = list(wire)
    items[path[0]] = _replace(items[path[0]], path[1:], value)
    return type(wire)(items)


@pytest.mark.parametrize("name", sorted(n for n, s in PROTOCOLS.items() if not s.delta_of))
def test_every_round_of_every_protocol_checks_its_leaves(name):
    """Each round's first leaf of each part, swapped for a ``str`` or a
    ``bool``, or its part re-nested, is a violation; the honest round
    passes."""
    spec = PROTOCOLS[name]
    receiver, sender = _machines(name)
    for rnd in spec.rounds:
        producer, consumer = (
            (receiver, sender) if rnd.source == "R" else (sender, receiver)
        )
        wire = producer.produce(rnd).to_wire()
        parts = (wire,) if len(rnd.parts) == 1 else wire
        for index in range(len(rnd.parts)):
            leaf = next(_leaves(parts[index]), None)
            if leaf is None:
                continue
            path = leaf[0] if len(rnd.parts) == 1 else (index, *leaf[0])
            for bad in ("x", True, 2.0):
                with pytest.raises(ProtocolViolation):
                    consumer.consume(rnd, _replace(wire, path, bad))
            if path:  # the leaf's list as a tuple, or its tuple as a list
                container = _walk(wire, path[:-1])
                flipped = (tuple if isinstance(container, list) else list)(container)
                with pytest.raises(ProtocolViolation):
                    consumer.consume(rnd, _replace(wire, path[:-1], flipped))
        consumer.consume(rnd, wire)
    receiver.finish()


def _walk(wire, path):
    for index in path:
        wire = wire[index]
    return wire


def test_a_multi_part_round_must_have_every_part():
    m2 = get_spec("intersection").rounds[1]
    receiver, reply = _honest_m2()
    y_s, pairs = reply.to_wire()
    for bad in ((y_s,), (y_s, pairs, []), [y_s, pairs], y_s):
        with pytest.raises(ProtocolViolation, match="expected 2 parts"):
            receiver.consume(m2, bad)


def test_a_malformed_chunk_is_a_violation():
    m2 = get_spec("intersection").rounds[1]
    receiver, reply = _honest_m2()
    chunks = list(reply.to_wire_chunks(2))
    for bad in ([("oops",)], [(5, "seg", [])], [(0, 7, [])], [*chunks[-1:], *chunks]):
        with pytest.raises(ProtocolViolation):
            receiver.consume_chunks(m2, bad)


def test_violation_is_exported_and_still_a_value_error():
    assert repro.ProtocolViolation is ProtocolViolation
    assert issubclass(ProtocolViolation, ValueError)


# ----------------------------------------------------------------------
# The same rows over a session on virtual time
# ----------------------------------------------------------------------
CONFIG = SessionConfig(
    timeout_s=1.0,
    retry=RetryPolicy(max_attempts=4, base_delay_s=0.1, multiplier=2.0,
                      max_delay_s=5.0, jitter=0.0),
    max_reconnects=3,
)


def _tampered(extra):
    """The intersection spec, with S appending ``extra`` to ``Y_S``."""
    spec = get_spec("intersection")
    m1, m2 = spec.rounds
    honest = m2.step

    def step(state, inbox):
        reply = IntersectionReply.coerce(honest(state, inbox))
        return IntersectionReply(reply.y_s + [extra], reply.pairs)

    bad_m2 = dataclasses.replace(m2, step=step, chunk_step=None)
    return dataclasses.replace(spec, rounds=(m1, bad_m2))


@pytest.mark.parametrize("chunk_size", [None, 2])
@pytest.mark.parametrize("row", ["zero", "str"])
def test_a_bad_element_in_y_s_is_a_violation_over_lock_step(row, chunk_size):
    spec = get_spec("intersection")
    receiver = ReceiverCore(
        "intersection",
        lambda wire: spec.make_receiver(
            V_R, PublicParams.from_wire(tuple(wire)), random.Random("R")
        ),
        CONFIG, random.Random(7), SessionStats(protocol="intersection"),
        chunk_size=chunk_size,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spec_module, "get_spec", lambda _: _tampered(ROWS[row]))
        sender = SenderCore(
            "intersection", PARAMS,
            lambda: spec.make_sender(V_S, PARAMS, random.Random("S")),
            CONFIG, random.Random(8), SessionStats(protocol="intersection"),
            chunk_size=chunk_size,
        )
    r_party = Party("R", receiver.steps, dials=True)
    s_party = Party("S", sender.steps, dials=False)
    LockStep(accept_timeout_s=5.0).run(r_party, s_party)
    assert isinstance(r_party.error, ProtocolViolation), r_party.error
    assert r_party.result is None
    # R gave up at once: a retry would replay the same round.
    assert receiver.stats.reconnects == 0

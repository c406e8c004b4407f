"""A received round is checked at the wire boundary: the declared
nesting, an ``int`` at every leaf (``bool`` excluded) and every group
element in ``[1, p)``. Anything else is one typed
:class:`~repro.ProtocolViolation` - in memory and over a session - never
a bare ``ValueError`` / ``TypeError`` from a step, and never an answer.
So is a well-formed reply that breaks R's count invariants: one answer
per ciphertext R sent, keyed on it, and no codeword repeated where a
set's cannot be.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import repro
from repro.net import LockStep
from repro.net.session import RetryPolicy, SessionConfig, SessionStats
from repro.net.session_core import ReceiverCore, SenderCore
from repro.net.virtual import Party
from repro.protocols import spec as spec_module
from repro.protocols.delta import DeltaExchange
from repro.protocols.messages import BlindedSum, IntersectionReply, ProtocolViolation
from repro.protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from repro.protocols.spec import PROTOCOLS, get_spec

PARAMS = PublicParams.for_bits(256)
V_R, V_S = ["a", "b", "c", "d"], ["c", "d", "e"]

#: The probe's rows that the shape and range check turns into a
#: ProtocolViolation: S's ``Y_S`` with an element appended.
ROWS = {"zero": 0, "str": "x", "p": PARAMS.p, "bool": True}

#: S's ``m2``, well-formed but breaking one of R's count invariants:
#: row -> (protocol, tampering). Unchecked, R answers a value S does
#: not hold, drops a match, or accepts the repeat.
COUNTS = {
    "one-double-for-all": ("intersection", lambda r: dataclasses.replace(
        r, pairs=[(y, r.pairs[0][1]) for y, _ in r.pairs])),
    "one-pair": ("intersection", lambda r: dataclasses.replace(
        r, pairs=r.pairs[-1:])),
    "a-pair-twice": ("intersection", lambda r: dataclasses.replace(
        r, pairs=r.pairs + r.pairs[:1])),
    "y-s-twice": ("intersection", lambda r: dataclasses.replace(
        r, y_s=r.y_s + r.y_s[:1])),
    "one-triple": ("equijoin", lambda r: dataclasses.replace(
        r, triples=r.triples[-1:])),
    "one-codeword-for-all": ("equijoin", lambda r: dataclasses.replace(
        r, triples=[(y, r.triples[0][1], k) for y, _, k in r.triples])),
    "a-codeword-twice": ("equijoin", lambda r: dataclasses.replace(
        r, pairs=r.pairs + [(r.pairs[0][0], r.pairs[1][1])])),
    "size-z-short": ("intersection-size", lambda r: dataclasses.replace(
        r, z_r=r.z_r[:-1])),
    "size-y-s-twice": ("intersection-size", lambda r: dataclasses.replace(
        r, y_s=r.y_s + r.y_s[:1])),
    "multiset-z-long": ("equijoin-size", lambda r: dataclasses.replace(
        r, z_r=r.z_r + r.z_r[:1])),
}

#: What R answers S's honest ``m2`` (intersection: the test below).
HONEST = {
    "equijoin": {"c": b"ext:c", "d": b"ext:d"},
    "intersection-size": 2,
    "equijoin-size": 2,
}


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


@pytest.mark.parametrize("name", sorted(HONEST))
def test_each_protocols_honest_reply_passes_and_answers(name):
    m2 = get_spec(name).rounds[1]
    receiver, reply = _honest_m2(name)
    receiver.consume(m2, reply.to_wire())
    assert receiver.finish() == HONEST[name]


@pytest.mark.parametrize("row", sorted(COUNTS))
def test_a_reply_that_breaks_a_count_is_a_violation_in_memory(row):
    name, tamper = COUNTS[row]
    m2 = get_spec(name).rounds[1]
    receiver, reply = _honest_m2(name)
    receiver.consume(m2, tamper(reply).to_wire())
    with pytest.raises(ProtocolViolation):
        receiver.finish()


def test_a_codeword_twice_among_s_sum_pairs_is_a_violation():
    """Two amounts under one of S's codewords are no table's: R refuses
    before it sums either."""
    m2, m3 = get_spec("equijoin-sum").rounds[1:3]
    receiver, reply = _honest_m2("equijoin-sum")
    pairs = reply.pairs + [(reply.pairs[0][0], reply.pairs[1][1])]
    receiver.consume(m2, dataclasses.replace(reply, pairs=pairs).to_wire())
    with pytest.raises(ProtocolViolation, match="pairs"):
        receiver.produce(m3)


#: The intersection rows on a delta patch, whose parts answer only the
#: churn: R inserts {e, f}, S inserts {f, g}.
DELTA_COUNTS = {
    "one-pair": lambda p: dataclasses.replace(
        p, pairs_added=p.pairs_added[-1:]),
    "a-pair-twice": lambda p: dataclasses.replace(
        p, pairs_added=p.pairs_added + p.pairs_added[:1]),
    "y-s-twice": lambda p: dataclasses.replace(
        p, y_s_added=p.y_s_added + p.y_s_added[:1]),
}


@pytest.mark.parametrize("row", sorted(DELTA_COUNTS))
def test_a_rejected_delta_leaves_the_committed_party_as_it_was(row):
    """A tampered delta patch is refused; the same churn, answered
    honestly next, answers as if the refused one never came."""
    receiver, sender = _machines("intersection")
    PROTOCOLS["intersection"].exchange(receiver, sender)
    assert receiver.finish() == {"c", "d"}
    delta = PROTOCOLS["intersection+delta"]
    m1, m2 = delta.rounds

    def run(tamper):
        r = ReceiverMachine(delta, DeltaExchange(
            state=receiver.state, inserts=(("e", None), ("f", None)),
        ), PARAMS, random.Random("R"))
        s = SenderMachine(delta, DeltaExchange(
            state=sender.state, inserts=(("f", None), ("g", None)),
        ), PARAMS, random.Random("S"))
        s.consume(m1, r.produce(m1).to_wire())
        r.consume(m2, tamper(s.produce(m2)).to_wire())
        return r.finish()

    with pytest.raises(ProtocolViolation):
        run(DELTA_COUNTS[row])
    assert run(lambda patch: patch) == {"c", "d", "e", "f"}


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


def _tampered(name, tamper):
    """``name``'s spec, with S passing its ``m2`` through ``tamper``."""
    spec = get_spec(name)
    m1, m2, *rest = spec.rounds
    honest = m2.step

    def step(state, inbox):
        return tamper(m2.message.coerce(honest(state, inbox)))

    bad_m2 = dataclasses.replace(m2, step=step, chunk_step=None)
    return dataclasses.replace(spec, rounds=(m1, bad_m2, *rest))


def _refused_over_lock_step(name, tamper, chunk_size):
    """Run ``name`` over a session with S's ``m2`` tampered: R must end
    on a ProtocolViolation with no answer and no retry."""
    spec = get_spec(name)
    r_data, s_data = _inputs(name)
    receiver = ReceiverCore(
        name,
        lambda wire: spec.make_receiver(
            r_data, PublicParams.from_wire(tuple(wire)), random.Random("R")
        ),
        CONFIG, random.Random(7), SessionStats(protocol=name),
        chunk_size=chunk_size,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spec_module, "get_spec", lambda _: _tampered(name, tamper))
        sender = SenderCore(
            name, PARAMS,
            lambda: spec.make_sender(s_data, PARAMS, random.Random("S")),
            CONFIG, random.Random(8), SessionStats(protocol=name),
            chunk_size=chunk_size,
        )
    r_party = Party("R", receiver.steps, dials=True)
    s_party = Party("S", sender.steps, dials=False)
    LockStep(accept_timeout_s=5.0).run(r_party, s_party)
    assert isinstance(r_party.error, ProtocolViolation), r_party.error
    assert r_party.result is None
    # R gave up at once: a retry would replay the same round.
    assert receiver.stats.reconnects == 0


@pytest.mark.parametrize("chunk_size", [None, 2])
@pytest.mark.parametrize("row", ["zero", "str"])
def test_a_bad_element_in_y_s_is_a_violation_over_lock_step(row, chunk_size):
    extra = ROWS[row]
    _refused_over_lock_step(
        "intersection",
        lambda reply: dataclasses.replace(reply, y_s=reply.y_s + [extra]),
        chunk_size,
    )


@pytest.mark.parametrize("chunk_size", [None, 2])
@pytest.mark.parametrize("row", sorted(COUNTS))
def test_a_reply_that_breaks_a_count_is_a_violation_over_lock_step(row, chunk_size):
    _refused_over_lock_step(*COUNTS[row], chunk_size)


# ----------------------------------------------------------------------
# equijoin-sum: S's Paillier material, checked before R's state moves
# ----------------------------------------------------------------------
def _with_ciphertext(reply, c):
    (codeword, _), *rest = reply.pairs
    return dataclasses.replace(reply, pairs=[(codeword, c), *rest])


#: S's ``m2`` with its Paillier modulus or one ciphertext out of place.
PAILLIER = {
    "short-modulus": lambda r: dataclasses.replace(r, z_r_pk=(r.z_r, r.n >> 16)),
    "long-modulus": lambda r: dataclasses.replace(r, z_r_pk=(r.z_r, r.n << 2 | 1)),
    "ciphertext-n-squared": lambda r: _with_ciphertext(r, r.n * r.n),
    "ciphertext-above": lambda r: _with_ciphertext(r, r.n * r.n + 5),
    "ciphertext-zero": lambda r: _with_ciphertext(r, 0),
    "ciphertext-n": lambda r: _with_ciphertext(r, r.n),
    "ciphertext-3n": lambda r: _with_ciphertext(r, 3 * r.n),
}


@pytest.mark.parametrize("row", sorted(PAILLIER))
def test_bad_paillier_material_is_a_violation_before_r_moves(row):
    spec = get_spec("equijoin-sum")
    m2, m3 = spec.rounds[1:3]
    receiver, reply = _honest_m2("equijoin-sum")
    receiver.consume(m2, PAILLIER[row](reply).to_wire())
    with pytest.raises(ProtocolViolation, match="Paillier"):
        receiver.produce(m3)
    assert receiver.state._pk is None and receiver.state.size_v_s is None


def test_the_honest_paillier_material_passes():
    spec = get_spec("equijoin-sum")
    receiver, sender = _machines("equijoin-sum")
    spec.exchange(receiver, sender)
    assert receiver.finish() == 3 * 2  # c and d, 3 each


def test_a_full_query_checks_each_paillier_ciphertext_once(monkeypatch):
    """R checks each of S's pairs once, S its one blinded sum."""
    from repro.protocols import parties

    checked = []
    check = parties._check_paillier
    monkeypatch.setattr(
        parties, "_check_paillier", lambda pk, cs: check(pk, checked.extend(cs) or cs)
    )
    spec = get_spec("equijoin-sum")
    receiver, sender = _machines("equijoin-sum")
    spec.exchange(receiver, sender)
    assert receiver.finish() == 3 * 2
    assert len(checked) == len(V_S) + 1


#: R's ``m3``, its blinded sum outside ``Z*_{n²}``, by S's modulus.
BLINDED = {
    "zero": lambda n: 0,
    "n-squared": lambda n: n * n,
    "2**600": lambda n: 2**600,
    "a-multiple-of-n": lambda n: 5 * n,
}


@pytest.mark.parametrize("row", sorted(BLINDED))
def test_a_blinded_sum_outside_z_star_is_a_violation_before_s_decrypts(row):
    spec = get_spec("equijoin-sum")
    m1, m2, m3, m4 = spec.rounds
    receiver, sender = _machines("equijoin-sum")
    sender.consume(m1, receiver.produce(m1).to_wire())
    receiver.consume(m2, sender.produce(m2).to_wire())
    blinded = BLINDED[row](sender.state._public.n)
    sender.consume(m3, BlindedSum(blinded).to_wire())
    with pytest.raises(ProtocolViolation, match="Paillier"):
        sender.produce(m4)


@pytest.mark.parametrize("row", sorted(BLINDED))
def test_a_blinded_sum_outside_z_star_is_a_violation_over_lock_step(row):
    """R's ``m3`` replaced on the wire: S ends on a ProtocolViolation,
    R with no answer."""
    name = "equijoin-sum"
    spec = get_spec(name)
    r_data, s_data = _inputs(name)
    m1, m2, m3, m4 = spec.rounds
    bad_m3 = dataclasses.replace(
        m3, step=lambda state, inbox: BlindedSum(BLINDED[row](inbox["m2"].n))
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            spec_module, "get_spec",
            lambda _: dataclasses.replace(spec, rounds=(m1, m2, bad_m3, m4)),
        )
        receiver = ReceiverCore(
            name,
            lambda wire: spec.make_receiver(
                r_data, PublicParams.from_wire(tuple(wire)), random.Random("R")
            ),
            CONFIG, random.Random(7), SessionStats(protocol=name),
        )
    sender = SenderCore(
        name, PARAMS, lambda: spec.make_sender(s_data, PARAMS, random.Random("S")),
        CONFIG, random.Random(8), SessionStats(protocol=name),
    )
    r_party = Party("R", receiver.steps, dials=True)
    s_party = Party("S", sender.steps, dials=False)
    LockStep(accept_timeout_s=5.0).run(r_party, s_party)
    assert isinstance(s_party.error, ProtocolViolation), s_party.error
    assert "Paillier" in str(s_party.error)
    assert r_party.result is None


def test_a_bad_ciphertext_in_a_delta_patch_leaves_r_as_it_was():
    receiver, sender = _machines("equijoin-sum")
    PROTOCOLS["equijoin-sum"].exchange(receiver, sender)
    committed = dict(vars(receiver.state))
    delta = PROTOCOLS["equijoin-sum+delta"]
    m1, m2, m3 = delta.rounds[:3]
    r = ReceiverMachine(delta, DeltaExchange(state=receiver.state), PARAMS,
                        random.Random("R"))
    s = SenderMachine(delta, DeltaExchange(
        state=sender.state, inserts=(("a", 4),),
    ), PARAMS, random.Random("S"))
    s.consume(m1, r.produce(m1).to_wire())
    patch = s.produce(m2)
    (codeword, _), = patch.pairs_added
    r.consume(m2, dataclasses.replace(patch, pairs_added=[(codeword, 0)]).to_wire())
    with pytest.raises(ProtocolViolation, match="Paillier"):
        r.produce(m3)
    assert vars(receiver.state) == committed


# ----------------------------------------------------------------------
# Well-framed wrong replies against a catalog's cache and committed link
# ----------------------------------------------------------------------
#: Leaves the shape or range check refuses, whatever part they land in.
BAD_LEAVES = [0, -1, PARAMS.p, PARAMS.p + 5, "x", b"x", None, True]

#: What S's ``m2`` (or delta patch) can be made into, by ``(mutation,
#: index, other index, bad leaf)``: a reordered part - the same reply to
#: R -, or a change R must refuse: an element or a tuple repeated (a
#: second ``Y_S`` codeword, one double more than R sent), a tuple
#: dropped, keyed on a ciphertext R did not send or sharing another's
#: answers, or a leaf out of shape or range. A change R cannot see
#: (another ``Y_S`` element) is no reply to refuse. A tuple is a pair or
#: an equijoin triple; a mutated one keeps its arity.
MUTATIONS = ["shuffle", "repeat", "drop-pair", "foreign-pair", "repeat-double", "bad-leaf"]
mutations = st.lists(
    st.tuples(
        st.sampled_from(MUTATIONS), st.integers(0, 40), st.integers(0, 40),
        st.sampled_from(BAD_LEAVES),
    ),
    max_size=4,
)


def _mutate(reply, ops):
    # A composite part (SumReply's ``(Z_R, modulus)``) is mutated in its
    # list and keeps its other fields: made a list whole, it would be a
    # shape R refuses whatever the ops.
    whole = reply.to_parts()
    parts = [list(part[0] if isinstance(part, tuple) else part) for part in whole]
    for name, at, other, leaf in ops:
        part = parts[at % len(parts)]
        pairs = bool(part) and isinstance(part[0], tuple)
        if not part:
            continue
        i, j = at % len(part), other % len(part)
        if name == "shuffle":
            random.Random(other).shuffle(part)
        elif name == "repeat":
            part.append(part[j])
        elif name == "drop-pair" and pairs:
            del part[i]
        elif name == "foreign-pair" and pairs:
            part[i] = (part[i][1], *part[i][1:])
        elif name == "repeat-double" and pairs and i != j:
            part[i] = (part[i][0], *part[j][1:])
        elif name == "bad-leaf":
            part[i] = (part[i][0], leaf, *part[i][2:]) if pairs else leaf
    return type(reply).from_parts(tuple(
        (part, *was[1:]) if isinstance(was, tuple) else part
        for part, was in zip(parts, whole)
    ))


def _held(catalog, root):
    """What a tampered query must leave alone: the committed link's
    containers and cursor, and every cache file's bytes."""
    links = {
        key: (link["cursor"], {
            name: copy.deepcopy(value) for name, value in vars(link["party"]).items()
            if isinstance(value, (dict, list, tuple, int, type(None)))
        })
        for key, link in catalog._links.items()
    }
    return links, {path.name: path.read_bytes() for path in sorted(root.rglob("*.cat"))}


def _plaintext(name, r_data, s_data):
    """R's answer over the two tables, computed in the clear."""
    common = set(r_data) & set(s_data)
    if name == "intersection":
        return common
    if name == "intersection-size":
        return len(common)
    if name == "equijoin":
        return {v: s_data[v] for v in common}
    if name == "equijoin-size":
        return sum(r_data.count(v) * s_data.count(v) for v in common)
    return sum(s_data[v] for v in common)


#: Where S's reply carries S's own table with payloads or multiplicities,
#: by ``(protocol, kind)``: part -> what it holds - its ``(codeword,
#: payload)`` pairs, their tombstones, or a multiset's codewords.
#: Rewriting those parts (beyond reordering them) is S answering for
#: another table, a change R cannot see - unless a codeword of the pairs
#: or tombstones comes twice, which no table's reply does.
OWN_PARTS = {
    ("equijoin", "full"): {1: "pairs"},
    ("equijoin", "delta"): {1: "pairs", 2: "tombstones"},
    ("equijoin-size", "full"): {0: "multiset"},
    ("equijoin-size", "delta"): {0: "multiset", 1: "multiset"},
    ("equijoin-sum", "full"): {1: "pairs"},
    ("equijoin-sum", "delta"): {2: "pairs", 3: "tombstones"},
}


def _own_table(name, kind, honest, mutated):
    """What ``mutated`` makes of S's own table in ``honest``: ``None``
    (it is untouched, or only reordered), ``"another"`` or ``"none"``
    (no table's reply: a codeword twice)."""
    before, after = honest.to_parts(), mutated.to_parts()
    verdict = None
    for index, holds in OWN_PARTS.get((name, kind), {}).items():
        keys = [
            repr(item[0] if holds == "pairs" and isinstance(item, tuple) else item)
            for item in after[index]
        ]
        if holds != "multiset" and len(set(keys)) != len(keys):
            return "none"
        if sorted(map(repr, before[index])) != sorted(map(repr, after[index])):
            verdict = "another"
    return verdict


def _reachable(name, answer, r_data, s_tables):
    """Whether ``answer`` is one some table of S's gives, its values
    among those S held: all an answer to a rewritten own table can be
    held to (S decrypts equijoin-sum's total itself, so any ``int``)."""
    if name == "equijoin":
        held = set(r_data) & set().union(*s_tables)
        return set(answer) <= held and all(
            isinstance(ext, bytes) for ext in answer.values()
        )
    return isinstance(answer, int) and (name == "equijoin-sum" or answer >= 0)


#: S's churn for a delta query, by the shape of its table: a value
#: inserted and one deleted.
S_CHURN = {
    "values": lambda cat: cat.insert("f").insert("g").delete("e"),
    "ext": lambda cat: cat.insert("f", b"ext:f").insert("g", b"ext:g").delete("e"),
    "amounts": lambda cat: cat.insert("f", 5).insert("g", 7).delete("e"),
}


def _a_wrong_reply(name, kind, ops):
    """S's ``m2`` - on a reopen over the warm cache, or a delta patch
    on the committed link - mutated by ``ops`` over a session: R ends
    on the plaintext answer or a ProtocolViolation, and a refused
    reply leaves R's committed party and both cache files as they
    were. A reply that rewrites S's own table is S answering for
    another one: R ends on an answer some table of S's gives, or a
    ProtocolViolation - the one outcome of a reply no table gives.
    Returns ``"refused"`` or ``"answered"``."""
    spec = get_spec(name)
    v_r, v_s = _inputs(name)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def open_pair():
            return [
                repro.open_catalog(copy.copy(data), params=PARAMS, seed=side, cache_dir=root / side)
                for side, data in (("r", v_r), ("s", v_s))
            ]

        cat_r, cat_s = open_pair()
        cat_r.pair(cat_s).query(spec)
        s_tables = [copy.copy(cat_s.data)]
        if kind == "full":
            cat_r, cat_s = open_pair()
        else:
            cat_r.insert("e").insert("f").delete("a")
            S_CHURN[spec.sender_input](cat_s)
        expected = _plaintext(name, cat_r.data, cat_s.data)
        s_tables.append(cat_s.data)
        before = _held(cat_r, root)
        own = []

        def tamper(reply):
            mutated = _mutate(reply, ops)
            own.append(_own_table(name, kind, reply, mutated))
            return mutated

        wire_spec, make_r, _ = cat_r._plan(spec, "receiver", kind)
        _, make_s, _ = cat_s._plan(spec, "sender", kind)
        receiver = ReceiverCore(
            wire_spec.name, lambda wire: make_r(PublicParams.from_wire(tuple(wire))),
            CONFIG, random.Random(7), SessionStats(protocol=wire_spec.name),
        )
        with pytest.MonkeyPatch.context() as patch:
            tampered = _tampered(wire_spec.name, tamper)
            patch.setattr(spec_module, "get_spec", lambda _: tampered)
            sender = SenderCore(
                wire_spec.name, PARAMS, lambda: make_s(PARAMS),
                CONFIG, random.Random(8), SessionStats(protocol=wire_spec.name),
            )
        r_party = Party("R", receiver.steps, dials=True)
        LockStep(accept_timeout_s=5.0).run(r_party, Party("S", sender.steps, dials=False))
        if r_party.error is None:
            assert "none" not in own, "R answered a reply no table gives"
        if r_party.error is None and "another" in own:
            assert _reachable(name, r_party.result, cat_r.data, s_tables)
        elif r_party.error is None:
            assert r_party.result == expected
        else:
            assert isinstance(r_party.error, ProtocolViolation), r_party.error
            assert _held(cat_r, root) == before
        return "refused" if r_party.error else "answered"


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from([
        "intersection", "intersection-size", "equijoin", "equijoin-size",
        "equijoin-sum",
    ]),
    kind=st.sampled_from(["full", "delta"]), ops=mutations,
)
def test_a_well_framed_wrong_reply_answers_right_or_is_refused_and_moves_nothing(name, kind, ops):
    """Any mutation of S's reply: see :func:`_a_wrong_reply`."""
    event(f"{name} {kind}: {_a_wrong_reply(name, kind, ops)}")


#: A scripted malicious S: one misbehaviour per row, as ``_mutate``
#: ops, and what R must make of it (``None``: either outcome, held to
#: :func:`_a_wrong_reply`'s rules). Part 0 and part 1 of every reply in
#: the equijoin family are lists of group elements or of tuples of them.
SCRIPT = {
    "reordered": ([("shuffle", 0, 3, None), ("shuffle", 1, 5, None)], "answered"),
    "zero-leaf": ([("bad-leaf", 0, 0, 0)], "refused"),
    "p-leaf": ([("bad-leaf", 0, 1, PARAMS.p)], "refused"),
    "str-leaf": ([("bad-leaf", 1, 0, "x")], "refused"),
    "repeated": ([("repeat", 0, 1, None)], None),
    "dropped": ([("drop-pair", 1, 0, None)], None),
    "foreign": ([("foreign-pair", 1, 1, None)], None),
    "repeated-double": ([("repeat-double", 1, 0, None)], None),
}


@pytest.mark.parametrize("row", sorted(SCRIPT))
@pytest.mark.parametrize("kind", ["full", "delta"])
@pytest.mark.parametrize("name", ["equijoin", "equijoin-size", "equijoin-sum"])
def test_a_scripted_malicious_s_is_answered_right_or_refused(name, kind, row):
    """The equijoin family, ``full`` and ``+delta``, against a scripted
    malicious S over ``LockStep``: the oracle answer (or one some table
    of S's gives) or a ProtocolViolation that moves no committed state
    - never an untyped exception."""
    ops, outcome = SCRIPT[row]
    got = _a_wrong_reply(name, kind, ops)
    assert outcome in (None, got)

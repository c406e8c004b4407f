"""Regenerate the golden-transcript fixture for the spec refactor tests.

Runs every protocol in memory through ``repro.protocols.spec.run_pair``
(and, as a cross-check, the separable party state machines) on fixed
inputs with seeded randomness - R on ``Random("R")``, S on
``Random("S")`` - and records a SHA-256 digest of the serialization of every wire
payload: each recorded view part, each assembled round message, and
the answer. ``tests/protocols/test_golden_transcripts.py`` asserts
that spec-driven runs - in-memory, plain TCP and resumable, serial and
pooled - reproduce these bytes exactly.

The ``"deltas"`` section pins the five ``"<name>+delta"`` schedules the
same way: after a full run on the shared inputs, each replays
:func:`fixture_churn` and then an empty delta, and every part, round
and answer of both exchanges is digested.

The fixture was first captured against the pre-refactor per-protocol
drivers, so it pins byte-identity across the refactor, not merely
self-consistency. Regenerate (only when a protocol's wire format is
*intentionally* changed) with:

    PYTHONPATH=src python tests/protocols/make_golden_fixture.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.analysis.leakage import equijoin_size_leak
from repro.net.serialization import encode
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS, run_pair

FIXTURE_PATH = Path(__file__).with_name("golden_transcripts.json")

BITS = 128
N = 40  # batches of a size the pooled test runs send through their pools
CHUNK_SIZE = 7  # the chunked column's fixed streaming slice


def fixture_values() -> tuple[list[str], list[str]]:
    """The shared value sets: half private per side, half common."""
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def fixture_multisets() -> tuple[list[str], list[str]]:
    """Equijoin-size inputs: the shared sets plus duplicates."""
    v_r, v_s = fixture_values()
    return v_r + v_r[:5], v_s + v_s[:3]


def fixture_ext() -> dict[str, bytes]:
    """Equijoin sender payloads."""
    _, v_s = fixture_values()
    return {v: f"payload:{v}".encode() for v in v_s}


def fixture_amounts() -> dict[str, int]:
    """Equijoin-sum sender amounts."""
    _, v_s = fixture_values()
    return {v: (i * 7) % 23 for i, v in enumerate(v_s)}


def digest(payload) -> str:
    """SHA-256 of the canonical wire encoding of ``payload``."""
    return hashlib.sha256(encode(payload)).hexdigest()


def _view_payloads(run) -> dict[str, object]:
    """Every recorded part payload across both views, keyed by label."""
    payloads: dict[str, object] = {}
    for view in (run.s_view, run.r_view):
        for message in view.received:
            payloads[message.step] = message.payload
    return payloads


#: protocol -> (part labels per round, in order); single-part rounds
#: ship the bare payload, multi-part rounds ship the tuple of parts.
ROUND_PARTS = {
    "intersection": [["3:Y_R"], ["4a:Y_S", "4b:pairs"]],
    "intersection-size": [["3:Y_R"], ["4a:Y_S", "4b:Z_R"]],
    "equijoin": [["3:Y_R"], ["4:triples", "5:pairs"]],
    "equijoin-size": [["3:Y_R"], ["4a:Y_S", "4b:Z_R"]],
    "equijoin-sum": [["1:Y_R"], ["2:Z_R+pk", "3:pairs"], ["4:blinded"],
                     ["5:blinded_sum"]],
}


def _round_wires(protocol: str, payloads: dict[str, object]) -> list[object]:
    wires = []
    for labels in ROUND_PARTS[protocol]:
        parts = [payloads[label] for label in labels]
        wires.append(parts[0] if len(parts) == 1 else tuple(parts))
    return wires


def fixture_run(protocol: str, rng_r=None, rng_s=None, chunk_size=None):
    """One full in-memory run on the fixture inputs, R on ``rng_r`` and
    S on ``rng_s`` (``Random("R")`` and ``Random("S")`` by default);
    returns ``(receiver, sender, wires)`` as
    :func:`~repro.protocols.spec.run_pair` does."""
    r_data, s_data = _chunk_inputs(protocol)
    return run_pair(
        protocol, r_data, s_data, PublicParams.for_bits(BITS),
        rng_r or random.Random("R"), rng_s or random.Random("S"),
        chunk_size=chunk_size,
    )


def capture(protocol: str) -> dict[str, object]:
    """One protocol's golden record from the in-memory run."""
    spec = PROTOCOLS[protocol]
    receiver, sender, wires = fixture_run(protocol)
    run = spec.transcript(wires)
    payloads = _view_payloads(run)
    record: dict[str, object] = {
        "parts": {label: digest(payload) for label, payload in payloads.items()},
        "wires": {
            f"m{i + 1}": digest(wire)
            for i, wire in enumerate(_round_wires(protocol, payloads))
        },
        "answer": digest(delta_answer(spec, receiver.finish(), receiver.state)),
        "size_v_r": sender.state.size_v_r,
        "size_v_s": receiver.state.size_v_s,
    }
    if protocol == "equijoin-size":
        leak = equijoin_size_leak(receiver, sender, run)
        record["diagnostics"] = {
            "r_learns_s_duplicates": repr(leak.r_learns_s_duplicates),
            "s_learns_r_duplicates": repr(leak.s_learns_r_duplicates),
            "partition_overlap": repr(sorted(leak.partition_overlap.items())),
        }
    return record


def _chunk_inputs(protocol: str) -> tuple[object, object]:
    """(receiver data, sender data) for the machine-driven capture."""
    v_r, v_s = fixture_values()
    if protocol == "equijoin":
        return v_r, fixture_ext()
    if protocol == "equijoin-size":
        return fixture_multisets()
    if protocol == "equijoin-sum":
        return v_r, fixture_amounts()
    return v_r, v_s


def capture_chunked(protocol: str) -> dict[str, str]:
    """Per-round digests of the chunk-frame stream at ``CHUNK_SIZE``.

    The legacy columns pin the pre-refactor whole-round bytes; this
    one pins the *streamed* wire format - the exact chunk frames (plus
    terminal chunk-end frame) a ``chunk_size=CHUNK_SIZE`` transport
    puts on the wire, hashed in order per round. Non-chunkable rounds
    ship their single legacy frame, so their digest doubles as proof
    the stream leaves them untouched.
    """
    from repro.net.serialization import chunk_end_frame, chunk_frame

    spec = PROTOCOLS[protocol]
    digests: dict[str, str] = {}
    _, _, wires = fixture_run(protocol, chunk_size=CHUNK_SIZE)
    for i, (rnd, (_, wire)) in enumerate(zip(spec.rounds, wires), start=1):
        frames = [wire]
        if rnd.chunkable:  # came back as the round's chunk payloads
            frames = [chunk_frame(j, payload) for j, payload in enumerate(wire)]
            frames.append(chunk_end_frame(len(wire)))
        stream = hashlib.sha256()
        for frame in frames:
            stream.update(encode(frame))
        digests[f"m{i}"] = stream.hexdigest()
    return digests


def _cross_check_parties(fixture: dict) -> None:
    """The party state machines must emit the same bytes as the drivers."""
    from repro.protocols.parties import (
        EquijoinReceiver,
        EquijoinSender,
        EquijoinSizeReceiver,
        EquijoinSizeSender,
        IntersectionReceiver,
        IntersectionSender,
        IntersectionSizeReceiver,
        IntersectionSizeSender,
        PublicParams,
    )

    params = PublicParams.for_bits(BITS)
    v_r, v_s = fixture_values()
    ms_r, ms_s = fixture_multisets()
    cases = {
        "intersection": (IntersectionReceiver, IntersectionSender, v_r, v_s),
        "intersection-size": (
            IntersectionSizeReceiver, IntersectionSizeSender, v_r, v_s,
        ),
        "equijoin": (EquijoinReceiver, EquijoinSender, v_r, fixture_ext()),
        "equijoin-size": (
            EquijoinSizeReceiver, EquijoinSizeSender, ms_r, ms_s,
        ),
    }
    for protocol, (receiver_cls, sender_cls, r_data, s_data) in cases.items():
        receiver = receiver_cls(r_data, params, random.Random("R"))
        sender = sender_cls(s_data, params, random.Random("S"))
        m1 = receiver.round1()
        m2 = sender.round1(m1)
        receiver.finish(m2)
        wires = fixture["protocols"][protocol]["wires"]
        got_m1, got_m2 = digest(_as_wire(m1)), digest(_as_wire(m2))
        if (got_m1, got_m2) != (wires["m1"], wires["m2"]):
            raise AssertionError(
                f"party transcript diverges from driver for {protocol}"
            )


def _as_wire(message) -> object:
    to_wire = getattr(message, "to_wire", None)
    return to_wire() if callable(to_wire) else message


def fixture_churn(protocol: str) -> tuple[tuple, tuple, tuple, tuple]:
    """``(R inserts, R deletes, S inserts, S deletes)`` of the pinned
    delta, in :class:`~repro.protocols.delta.DeltaExchange` form.

    Both sides insert a private value and one the peer already holds,
    and delete a private and a common value. The set protocols add a
    re-insert of a present value and a delete of an absent one (both
    normalised away); the payload protocols instead replace ``c4``'s
    payload; equijoin-size churns occurrences and drains ``c1``,
    ``c2`` and ``s1``.
    """
    if protocol == "equijoin-size":
        return (
            (("r0", None), ("c0", None), ("r-new", None), ("r-new", None)),
            ("r1", "c1"),
            (("c0", None), ("c0", None), ("s-new", None)),
            ("s0", "s1", "s1", "c2"),
        )
    if protocol == "equijoin":
        s_inserts = tuple(
            (v, f"churned:{v}".encode()) for v in ("s-new", "r5", "c4")
        )
    elif protocol == "equijoin-sum":
        s_inserts = (("s-new", 5), ("r5", 11), ("c4", 99))
    else:
        s_inserts = (("s-new", None), ("r5", None), ("c3", None))
    return (
        (("r-new", None), ("s3", None), ("c3", None)),
        ("r0", "c1", "absent"),
        s_inserts,
        ("s0", "c2", "absent"),
    )


def drive(spec, receiver, sender) -> dict[str, object]:
    """Exchange ``spec``'s rounds between two in-process machines and
    digest every part, every assembled round and the answer."""
    return record(spec, receiver, sender, spec.exchange(receiver, sender))


def record(spec, receiver, sender, wires) -> dict[str, object]:
    """Digest every part, every assembled round and R's answer of the
    run that exchanged ``wires`` between ``receiver`` and ``sender``."""
    out: dict[str, object] = {"parts": {}, "wires": {}}
    for i, (rnd, (_, wire)) in enumerate(zip(spec.rounds, wires), start=1):
        parts = rnd.message.from_wire(wire).to_parts()
        out["parts"].update(zip(rnd.parts, map(digest, parts)))
        out["wires"][f"m{i}"] = digest(wire)
    answer = receiver.finish()
    out["answer"] = digest(delta_answer(spec, answer, receiver.state))
    out["size_v_r"] = sender.state.size_v_r
    out["size_v_s"] = receiver.state.size_v_s
    return out


def delta_answer(spec, answer, receiver_state) -> object:
    """R's answer of a (delta) run as a deterministic, encodable object."""
    if spec.answer_kind == "set":
        return sorted(answer, key=repr)
    if spec.answer_kind == "ext-map":
        return [(v, answer[v]) for v in sorted(answer, key=repr)]
    if (spec.delta_of or spec.name) == "equijoin-sum":
        return [answer, receiver_state.match_count]
    return answer


def delta_exchanges(protocol: str, r_state, s_state) -> dict[str, tuple]:
    """The two pinned exchanges, ``label -> (R exchange, S exchange)``:
    the fixed churn, then (once that is committed) an empty delta."""
    from repro.protocols.delta import DeltaExchange

    r_ins, r_del, s_ins, s_del = fixture_churn(protocol)
    return {
        "churn": (
            DeltaExchange(state=r_state, inserts=r_ins, deletes=r_del),
            DeltaExchange(state=s_state, inserts=s_ins, deletes=s_del),
        ),
        "empty": (DeltaExchange(state=r_state), DeltaExchange(state=s_state)),
    }


def full_run_states(protocol: str, params, rng_r, rng_s, engines=(None, None)):
    """Complete one full run on the fixture inputs; both party states.

    Builds the two machines itself: each party gets its own engine,
    where :func:`~repro.protocols.spec.run_pair` hands both the same."""
    from repro.protocols.parties import ReceiverMachine, SenderMachine

    spec = PROTOCOLS[protocol]
    r_data, s_data = _chunk_inputs(protocol)
    receiver = ReceiverMachine(spec, r_data, params, rng_r, engine=engines[0])
    sender = SenderMachine(spec, s_data, params, rng_s, engine=engines[1])
    drive(spec, receiver, sender)
    return receiver.state, sender.state


def capture_delta(protocol: str) -> dict[str, object]:
    """One ``"<protocol>+delta"`` golden record: the churn exchange and
    the empty one, each committed before the next runs."""
    dspec = PROTOCOLS[protocol + "+delta"]
    params = PublicParams.for_bits(BITS)
    # The delta parties draw from the same rngs as the full run did,
    # which is what the Catalog layer does (one rng per catalog).
    rng_r, rng_s = random.Random("R"), random.Random("S")
    receiver, sender, _ = fixture_run(protocol, rng_r, rng_s)
    records = {}
    for label, (r_exchange, s_exchange) in delta_exchanges(
        protocol, receiver.state, sender.state
    ).items():
        staged_r, staged_s, wires = run_pair(
            dspec, r_exchange, s_exchange, params, rng_r, rng_s
        )
        records[label] = record(dspec, staged_r, staged_s, wires)
        staged_r.state.commit()
        staged_s.state.commit()
    return records


def main() -> None:
    fixture = {
        "bits": BITS,
        "n": N,
        "chunk_size": CHUNK_SIZE,
        "protocols": {name: capture(name) for name in ROUND_PARTS},
        "deltas": {
            f"{name}+delta": capture_delta(name) for name in ROUND_PARTS
        },
    }
    for name, record in fixture["protocols"].items():
        record["chunked_wires"] = capture_chunked(name)
    _cross_check_parties(fixture)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()

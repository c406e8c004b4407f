"""Unit tests for the crash-durable session journal.

Covers the record codec (scan, torn-tail truncation, rotation), the
validated fold into :class:`JournalState`, and session recovery - the
replay-determinism invariant in both its accepting and rejecting
directions.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest

from repro.net.journal import (
    DONE_SUFFIX,
    JOURNAL_MAGIC,
    JournalDir,
    JournalError,
    SessionJournal,
    open_session,
    peek_state,
    replay_state,
)
from repro.net.serialization import encode, seal
from repro.net.session import RetryPolicy, SessionConfig
from repro.protocols.parties import (
    PublicParams,
    ReceiverMachine,
    SenderMachine,
)
from repro.protocols.spec import PROTOCOLS

from .test_catalog_cache import _sealed
from .shells import run_core
from .test_catalog_durability import CountingIO

BITS = 128
N = 12


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


def _inputs(name):
    half = N // 2
    v_r = [f"r{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(N - half)] + [f"c{i}" for i in range(half)]
    if name == "equijoin":
        return v_r, {v: f"payload:{v}".encode() for v in v_s}
    if name == "equijoin-sum":
        return v_r, {v: (i * 7) % 23 for i, v in enumerate(v_s)}
    return v_r, v_s


def _machine_wires(name, params):
    """All round wires of one deterministic run, in schedule order."""
    spec = PROTOCOLS[name]
    r_data, s_data = _inputs(name)
    receiver = ReceiverMachine(spec, r_data, params, random.Random("R"))
    sender = SenderMachine(spec, s_data, params, random.Random("S"))
    wires = spec.exchange(receiver, sender)
    return wires, receiver.finish()


def _write_party_journal(path, role, name, session_id, params, wires,
                         rounds, emits):
    """A hand-built journal for a party that processed ``rounds`` rounds."""
    journal = SessionJournal(path, fsync=False)
    journal.record_open(role, name)
    journal.record_meta("session_id", session_id)
    if role == "receiver":
        journal.record_meta("params", tuple(params.to_wire()))
    inb = out = 0
    for source, wire in wires[:rounds]:
        if source == emits:
            journal.record_outbound(out, encode(wire))
            out += 1
        else:
            journal.record_inbound(inb, encode(wire))
            inb += 1
    journal.close()
    return journal


# ----------------------------------------------------------------------
# Record codec: scan, truncation, rotation
# ----------------------------------------------------------------------
def test_append_and_reopen_round_trips(tmp_path):
    path = tmp_path / "s.wal"
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_meta("session_id", 7)
    journal.record_inbound(0, b"\x01\x02")
    journal.record_outbound(0, b"\x03")
    journal.close()

    reopened = SessionJournal(path, fsync=False)
    assert reopened.records == [
        ("open", 1, "sender", "intersection"),
        ("meta", "session_id", 7),
        ("in", 0, b"\x01\x02"),
        ("out", 0, b"\x03"),
    ]
    assert reopened.truncated_bytes == 0
    assert not reopened.complete
    reopened.record_complete()
    assert reopened.complete
    reopened.close()


def test_torn_tail_is_truncated_on_open(tmp_path):
    path = tmp_path / "s.wal"
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_inbound(0, b"xy")
    journal.close()
    intact = path.read_bytes()

    # A record cut short mid-write by the crash.
    next_record = encode(("out", 0, b"zz"))
    path.write_bytes(intact + len(next_record).to_bytes(4, "big")
                     + next_record[:3])
    reopened = SessionJournal(path, fsync=False)
    assert reopened.truncated_bytes == 4 + 3
    assert len(reopened.records) == 2
    assert path.read_bytes() == intact  # file physically truncated
    reopened.close()


def test_corrupt_crc_truncates_from_that_record(tmp_path):
    path = tmp_path / "s.wal"
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.close()
    good = path.read_bytes()
    journal = SessionJournal(path, fsync=False)
    journal.record_inbound(0, b"victim")
    journal.close()
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a crc bit of the last record
    path.write_bytes(bytes(blob))

    reopened = SessionJournal(path, fsync=False)
    assert len(reopened.records) == 1
    assert reopened.truncated_bytes > 0
    assert path.read_bytes() == good
    reopened.close()


def _open_meta_journal(path, tail: bytes) -> bytes:
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_meta("session_id", 1)
    journal.close()
    path.write_bytes(path.read_bytes() + tail)
    return path.read_bytes()


@pytest.mark.parametrize("payload", [
    b"Z",
    encode(("meta", "chunk_size", 2)) + b"\x00",  # longer than its value
    encode(["meta", "chunk_size", 2]),
    encode((2, "chunk_size")),
    encode(()),
], ids=["undecodable", "trailing-byte", "list", "int-tagged", "empty-tuple"])
def test_a_crc_valid_non_record_is_corruption_not_a_torn_tail(tmp_path, payload):
    """A record that passes its CRC was written whole: opening must not
    cut it - and every intact record after it - away as a torn tail."""
    path = tmp_path / "s.wal"
    before = _open_meta_journal(
        path, _sealed(payload) + seal(("meta", "chunk_size", 2))
    )
    with pytest.raises(JournalError, match="corrupt"):
        SessionJournal(path, fsync=False)
    with pytest.raises(JournalError, match="corrupt"):
        peek_state(path)
    assert path.read_bytes() == before


def test_a_zero_filled_tail_is_torn(tmp_path):
    """Zeros read as a zero-length record with a valid CRC; no record
    is empty, so they are a crash's leftover, cut like any torn tail."""
    path = tmp_path / "s.wal"
    intact = _open_meta_journal(path, b"")
    path.write_bytes(intact + bytes(16))
    assert len(peek_state(path).inbound) == 0
    reopened = SessionJournal(path, fsync=False)
    assert reopened.records == [
        ("open", 1, "sender", "intersection"), ("meta", "session_id", 1)
    ]
    assert reopened.truncated_bytes == 16
    assert path.read_bytes() == intact
    reopened.close()


def test_foreign_file_is_rejected(tmp_path):
    path = tmp_path / "notes.wal"
    path.write_bytes(b"these are not journal bytes at all")
    with pytest.raises(JournalError):
        SessionJournal(path)


def test_crash_mid_creation_is_reset(tmp_path):
    path = tmp_path / "s.wal"
    path.write_bytes(JOURNAL_MAGIC[:3])  # torn header
    journal = SessionJournal(path, fsync=False)
    assert journal.records == []
    journal.record_open("sender", "intersection")
    journal.close()
    assert SessionJournal(path, fsync=False).records[0][0] == "open"


def test_rotate_is_atomic_and_idempotent(tmp_path):
    path = tmp_path / "s.wal"
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_complete()
    rotated = journal.rotate()
    assert rotated.suffix == DONE_SUFFIX
    assert not path.exists()
    assert journal.rotate() == rotated  # second rotation is a no-op
    assert rotated.exists()


@pytest.mark.parametrize(
    "fsync, expected",
    [
        # The magic, the two records and the close; the create and
        # the rename.
        (True, {"fsyncs": 4, "dir_fsyncs": 2}),
        # No data durability asked, no name durability bought.
        (False, {"fsyncs": 0, "dir_fsyncs": 0}),
    ],
)
def test_directory_barrier_follows_the_fsync_switch(tmp_path, fsync, expected):
    io = CountingIO()
    journal = SessionJournal(tmp_path / "s.wal", fsync=fsync, io=io)
    journal.record_open("sender", "intersection")
    journal.record_complete()
    assert journal.rotate().suffix == DONE_SUFFIX
    assert {kind: io.counts[kind] for kind in expected} == expected
    assert journal.dir_fsync_failures == 0


# ----------------------------------------------------------------------
# replay_state validation
# ----------------------------------------------------------------------
def test_replay_state_requires_open_record(tmp_path):
    journal = SessionJournal(tmp_path / "x.wal", fsync=False)
    journal.append(("meta", "session_id", 1))
    with pytest.raises(JournalError, match="missing open record"):
        replay_state(journal)
    journal.close()


def test_replay_state_rejects_out_of_order_rounds(tmp_path):
    journal = SessionJournal(tmp_path / "x.wal", fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_inbound(1, b"skipped index 0")
    with pytest.raises(JournalError, match="out of order"):
        replay_state(journal)
    journal.close()


def test_replay_state_rejects_records_after_done(tmp_path):
    journal = SessionJournal(tmp_path / "x.wal", fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_complete()
    journal.record_inbound(0, b"late")
    with pytest.raises(JournalError, match="after completion"):
        replay_state(journal)
    journal.close()


def test_journal_dir_naming_and_incomplete_scan(tmp_path, params):
    jdir = JournalDir(tmp_path, fsync=False)
    live = jdir.open_session("sender", "intersection", 0xAB)
    assert live.path.name == f"sender-intersection-{0xAB:016x}.wal"
    live.close()

    done = jdir.open_session("sender", "intersection", 0xCD)
    done.record_complete()
    done.rotate()

    # Complete-but-unrotated (crash between the marker and the rename).
    marked = jdir.open_session("sender", "intersection", 0xEF)
    marked.record_complete()
    marked.close()

    other_role = jdir.open_session("receiver", "intersection", 0xAB)
    other_role.close()

    stale = jdir.incomplete("sender", "intersection")
    assert stale == [jdir.path_for("sender", "intersection", 0xAB)]


# ----------------------------------------------------------------------
# peek_state: the strictly read-only scan
# ----------------------------------------------------------------------
def test_peek_state_reads_without_repairing(tmp_path):
    path = tmp_path / "s.wal"
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_inbound(0, b"xy")
    journal.close()
    # A half-flushed append, as a live concurrent writer would leave it.
    next_record = encode(("out", 0, b"zz"))
    torn = (
        path.read_bytes()
        + len(next_record).to_bytes(4, "big")
        + next_record[:3]
    )
    path.write_bytes(torn)

    state = peek_state(path)
    assert state.role == "sender"
    assert state.inbound == [b"xy"]
    assert state.outbound == []
    assert path.read_bytes() == torn  # not truncated: the scan is read-only


def test_peek_state_handles_blank_missing_and_foreign_files(tmp_path):
    blank = tmp_path / "blank.wal"
    blank.write_bytes(JOURNAL_MAGIC[:3])  # crash mid-creation
    assert peek_state(blank) is None
    empty = tmp_path / "empty.wal"
    empty.write_bytes(JOURNAL_MAGIC)  # header only, no records yet
    assert peek_state(empty) is None
    foreign = tmp_path / "foreign.wal"
    foreign.write_bytes(b"these are not journal bytes at all")
    with pytest.raises(JournalError, match="foreign"):
        peek_state(foreign)
    with pytest.raises(JournalError, match="unreadable"):
        peek_state(tmp_path / "missing.wal")


def test_incomplete_scan_leaves_live_journals_untouched(tmp_path):
    """The directory scan must never repair: a journal whose owner is
    mid-append (half-flushed tail) is reported one record shorter, not
    truncated out from under its O_APPEND writer."""
    jdir = JournalDir(tmp_path, fsync=False)
    live = jdir.open_session("sender", "intersection", 0x11)
    live.record_inbound(0, b"committed")
    # Simulate the scanner racing a half-flushed append by the owner.
    half = encode(("out", 0, b"half-flushed"))
    with open(live.path, "ab") as fh:
        fh.write(len(half).to_bytes(4, "big") + half[: len(half) // 2])
    before = live.path.read_bytes()

    assert jdir.incomplete("sender", "intersection") == [live.path]
    assert live.path.read_bytes() == before  # the scan changed nothing
    # Every committed record is still visible to the read-only peek.
    assert peek_state(live.path).inbound == [b"committed"]
    live.close()


# ----------------------------------------------------------------------
# Recovery: the replay-determinism invariant
# ----------------------------------------------------------------------
def test_recover_sender_restores_cursor_and_caches(tmp_path, params):
    wires, _ = _machine_wires("intersection", params)
    path = tmp_path / "sender-intersection-0000000000000001.wal"
    # Crash window: first two rounds processed, nothing shipped after.
    _write_party_journal(
        path, "sender", "intersection", 1, params, wires, rounds=2, emits="S"
    )
    _, s_data = _inputs("intersection")
    session, _ = open_session(
        "sender", "intersection",
        lambda: PROTOCOLS["intersection"].make_sender(
            s_data, params, random.Random("S")
        ),
        params=params, journal_dir=JournalDir(tmp_path, fsync=False),
    )
    assert session.stats.rounds_recovered == 2
    assert session._session_id == 1
    assert len(session._inbound) + len(session._outbound) == 2
    assert session._attempted_sends == set(range(len(session._outbound)))
    session.journal.close()


def test_recover_sender_rejects_divergent_seed(tmp_path, params):
    wires, _ = _machine_wires("intersection", params)
    path = tmp_path / "sender-intersection-0000000000000002.wal"
    _write_party_journal(
        path, "sender", "intersection", 2, params, wires, rounds=2, emits="S"
    )
    _, s_data = _inputs("intersection")
    with pytest.raises(JournalError, match="diverges"):
        open_session(
            "sender", "intersection",
            lambda: PROTOCOLS["intersection"].make_sender(
                s_data, params, random.Random("WRONG-SEED")
            ),
            params=params, journal_dir=JournalDir(tmp_path, fsync=False),
        )


def test_recover_receiver_restores_session_id_and_params(tmp_path, params):
    wires, _ = _machine_wires("intersection", params)
    path = tmp_path / "receiver-intersection-0000000000000003.wal"
    _write_party_journal(
        path, "receiver", "intersection", 3, params, wires, rounds=1,
        emits="R",
    )
    r_data, _ = _inputs("intersection")
    session, _ = open_session(
        "receiver", "intersection",
        lambda wire: PROTOCOLS["intersection"].make_receiver(
            r_data, PublicParams.from_wire(tuple(wire)), random.Random("R")
        ),
        journal_dir=JournalDir(tmp_path, fsync=False),
    )
    assert session.session_id == 3
    assert session._params_wire == tuple(params.to_wire())
    assert session.stats.rounds_recovered == 1
    session.journal.close()


def test_recover_receiver_rejects_rounds_before_params(tmp_path):
    jdir = JournalDir(tmp_path, fsync=False)
    journal = jdir.open_session("receiver", "intersection", 4)
    journal.record_outbound(0, encode(("a round", "with no params")))
    journal.close()
    with pytest.raises(JournalError, match="before the"):
        open_session(
            "receiver", "intersection", lambda wire: None, journal_dir=jdir
        )


def test_recovered_pair_completes_the_run(tmp_path, params):
    """Both parties crash mid-run; both recover and finish correctly."""
    name = "equijoin"
    spec = PROTOCOLS[name]
    wires, expected = _machine_wires(name, params)
    r_data, s_data = _inputs(name)
    sid = 0x51
    s_path = tmp_path / f"sender-{name}-{sid:016x}.wal"
    r_path = tmp_path / f"receiver-{name}-{sid:016x}.wal"
    # S journaled two rounds; the second (its first outbound) was never
    # shipped. R journaled only its own first round.
    _write_party_journal(
        s_path, "sender", name, sid, params, wires, rounds=2, emits="S"
    )
    _write_party_journal(
        r_path, "receiver", name, sid, params, wires, rounds=1, emits="R"
    )

    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=1,
        fin_grace_s=0.05,
    )
    jdir = JournalDir(tmp_path, fsync=False)
    sender_session, _ = open_session(
        "sender", name,
        lambda: spec.make_sender(s_data, params, random.Random("S")),
        params=params, journal_dir=jdir, config=config,
    )
    receiver_session, _ = open_session(
        "receiver", name,
        lambda wire: spec.make_receiver(
            r_data, PublicParams.from_wire(tuple(wire)), random.Random("R")
        ),
        journal_dir=jdir, config=config,
    )
    raw_s, raw_r = socket.socketpair()
    raw_s.settimeout(10.0)
    raw_r.settimeout(10.0)
    connections = iter([raw_s])
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(
            state=run_core(sender_session.steps(), connections.__next__)
        )
    )
    thread.start()
    answer = run_core(receiver_session.steps(), lambda: raw_r)
    thread.join(timeout=10)
    assert not thread.is_alive()

    assert answer == expected
    assert sender_session.stats.rounds_recovered == 2
    assert receiver_session.stats.rounds_recovered == 1
    # Both journals completed and rotated.
    assert sender_session.journal.path.suffix == DONE_SUFFIX
    assert receiver_session.journal.path.suffix == DONE_SUFFIX
    assert not list(tmp_path.glob("*.wal"))


def test_fresh_journaled_sessions_rotate_on_completion(tmp_path, params):
    """A clean run under ``journal_dir=JournalDir(...)`` leaves only .done."""
    name = "intersection"
    spec = PROTOCOLS[name]
    r_data, s_data = _inputs(name)
    jdir = JournalDir(tmp_path, fsync=False)
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=1,
        fin_grace_s=0.05,
    )
    sender_session, _ = open_session(
        "sender", name,
        lambda: spec.make_sender(s_data, params, random.Random("S")),
        params=params, journal_dir=jdir, config=config, rng=random.Random(1),
    )
    receiver_session, _ = open_session(
        "receiver", name,
        lambda wire: spec.make_receiver(
            r_data, PublicParams.from_wire(tuple(wire)), random.Random("R")
        ),
        journal_dir=jdir, config=config, rng=random.Random(2),
    )
    raw_s, raw_r = socket.socketpair()
    raw_s.settimeout(10.0)
    raw_r.settimeout(10.0)
    connections = iter([raw_s])
    thread = threading.Thread(
        target=lambda: run_core(sender_session.steps(), connections.__next__)
    )
    thread.start()
    answer = run_core(receiver_session.steps(), lambda: raw_r)
    thread.join(timeout=10)
    assert not thread.is_alive()

    half = N // 2
    assert answer == {f"c{i}" for i in range(half)}
    assert not list(tmp_path.glob("*.wal"))
    assert len(list(tmp_path.glob(f"*{DONE_SUFFIX}"))) == 2
    assert jdir.incomplete() == []


# ----------------------------------------------------------------------
# open_session: what each kind of leftover journal turns into
# ----------------------------------------------------------------------
def _open(role, params, jdir, seed=None, **options):
    """``open_session`` for an intersection party seeded like the run
    :func:`_machine_wires` journals (or, with ``seed``, unlike it)."""
    spec = PROTOCOLS["intersection"]
    r_data, s_data = _inputs("intersection")
    if role == "sender":
        make = lambda: spec.make_sender(  # noqa: E731
            s_data, params, random.Random(seed or "S")
        )
    else:
        make = lambda wire: spec.make_receiver(  # noqa: E731
            r_data, PublicParams.from_wire(tuple(wire)), random.Random(seed or "R")
        )
    return open_session(
        role, "intersection", make, params=params, journal_dir=jdir,
        rng=random.Random(5), **options,
    )


def _leave_behind(tmp_path, role, params, rounds, complete=False):
    """A ``role`` journal of ``rounds`` rounds; the path and the answer."""
    wires, expected = _machine_wires("intersection", params)
    path = tmp_path / f"{role}-intersection-{9:016x}.wal"
    _write_party_journal(
        path, role, "intersection", 9, params, wires, rounds, role[0].upper()
    )
    if complete:
        journal = SessionJournal(path, fsync=False)
        journal.record_complete()
        journal.close()
    return path, expected


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize(
    "left_behind", ["no-dir", "empty", "stub", "incomplete", "complete"]
)
def test_open_session_table(tmp_path, params, role, left_behind):
    jdir = None if left_behind == "no-dir" else JournalDir(tmp_path, fsync=False)
    # S crashed with its reply journaled and unshipped, R with Y_R out.
    rounds = {"sender": 2, "receiver": 1}[role]
    path = expected = None
    if left_behind == "stub":
        stub = jdir.open_session(role, "intersection", 9)
        stub.close()
        path = stub.path
    elif left_behind != "no-dir" and left_behind != "empty":
        path, expected = _leave_behind(
            tmp_path, role, params,
            2 if left_behind == "complete" else rounds,
            complete=left_behind == "complete",
        )

    core, answer = _open(role, params, jdir)

    if left_behind == "incomplete":  # recovered at the exact cursor
        assert answer is None and core.journal.path == path
        assert core.stats.rounds_recovered == rounds
        assert (len(core.log.inbound), len(core.log.outbound)) == (rounds - 1, 1)
        assert core.log.attempted_sends == {0}
        assert 9 == (core._session_id if role == "sender" else core.session_id)
    elif left_behind == "complete" and role == "receiver":
        # Answered from the journal: nothing to run, nothing dialed.
        assert answer == expected and core.stats.frames_sent == 0
    else:  # fresh
        assert answer is None and core.stats.rounds_recovered == 0
        assert core.log.inbound == core.log.outbound == []
        assert (core.journal is None) == (jdir is None or role == "sender")
    if path is not None and left_behind != "incomplete":
        # The stub is deleted, the completed journal rotated.
        assert not path.exists()
        assert path.with_suffix(DONE_SUFFIX).exists() == (left_behind == "complete")
    if core.journal is not None:
        core.journal.close()


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize("wrong,match", [
    ({"chunk_size": 3}, "chunk_size"), ({"seed": "WRONG-SEED"}, "diverges"),
])
def test_open_session_refuses_a_journal_it_cannot_replay(
    tmp_path, params, role, wrong, match
):
    _leave_behind(tmp_path, role, params, {"sender": 2, "receiver": 1}[role])
    with pytest.raises(JournalError, match=match):
        _open(role, params, JournalDir(tmp_path, fsync=False), **wrong)

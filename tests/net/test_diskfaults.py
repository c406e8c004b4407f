"""Unit tests for seeded disk faults and the journal's fail-stop rule.

Covers the injector itself (per-class counters, skip/cap gating, seeded
determinism), the journal's poisoning on write/fsync failure (the
fsyncgate rule: a failed handle is never reused), rename-failure
classification, and torn-tail recovery at *every* byte offset of a
multi-record journal.
"""

from __future__ import annotations

import errno

import pytest

from repro.net.diskfaults import (
    DiskFaultPlan,
    DiskFaultStats,
    FaultyFile,
    FaultyJournalIO,
    JournalIO,
)
from repro.net.journal import (
    DONE_SUFFIX,
    JOURNAL_MAGIC,
    JournalDir,
    JournalError,
    SessionJournal,
    peek_state,
)
from repro.net.serialization import scan_sealed


def _journal(path, io=None, **records):
    journal = SessionJournal(path, fsync=False, io=io)
    journal.record_open("sender", "intersection")
    journal.record_meta("session_id", 7)
    return journal


# ----------------------------------------------------------------------
# Plan and injector mechanics
# ----------------------------------------------------------------------
class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="fsync_error_rate"):
            DiskFaultPlan(fsync_error_rate=1.5)
        with pytest.raises(ValueError, match="torn_write_rate"):
            DiskFaultPlan(torn_write_rate=-0.1)

    def test_write_rates_must_sum_below_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiskFaultPlan(torn_write_rate=0.7, enospc_rate=0.7)
        DiskFaultPlan(torn_write_rate=0.5, enospc_rate=0.5)  # boundary ok


class TestInjectorMechanics:
    def test_same_seed_same_fault_sequence(self, tmp_path):
        def run(seed):
            io = FaultyJournalIO(DiskFaultPlan(
                seed=seed, torn_write_rate=0.3, enospc_rate=0.3,
                fsync_error_rate=0.2,
            ))
            outcomes = []
            for i in range(30):
                fh = open(tmp_path / f"f{seed}-{i}", "wb")
                try:
                    io.write(fh, b"x" * 64)
                    outcomes.append("ok")
                except OSError as exc:
                    outcomes.append(errno.errorcode[exc.errno])
                finally:
                    fh.close()
            return outcomes, io.stats.as_dict()

        first = run(42)
        again = run(42)
        other = run(43)
        assert first == again
        assert first != other
        assert first[1]["torn_writes"] + first[1]["enospc_errors"] > 0

    def test_skip_and_max_faults_gate_injection(self, tmp_path):
        io = FaultyJournalIO(DiskFaultPlan(
            seed=1, enospc_rate=1.0, skip=3, max_faults=2,
        ))
        results = []
        with open(tmp_path / "f", "wb") as fh:
            for _ in range(10):
                try:
                    io.write(fh, b"abc")
                    results.append("ok")
                except OSError:
                    results.append("fault")
        # First 3 ops skipped, then exactly max_faults=2 injected.
        assert results == ["ok"] * 3 + ["fault"] * 2 + ["ok"] * 5
        assert io.stats.injected == 2
        assert io.stats.ops == 10

    def test_torn_write_leaves_a_prefix(self, tmp_path):
        io = FaultyJournalIO(DiskFaultPlan(seed=5, torn_write_rate=1.0))
        path = tmp_path / "torn"
        with open(path, "wb") as fh:
            with pytest.raises(OSError) as exc_info:
                io.write(fh, b"0123456789")
        assert exc_info.value.errno == errno.EIO
        assert len(path.read_bytes()) < 10  # a strict prefix landed
        assert path.read_bytes() == b"0123456789"[: len(path.read_bytes())]
        assert io.stats.torn_writes == 1

    def test_stats_dict_shape(self):
        stats = DiskFaultStats(ops=3, torn_writes=1, fsync_errors=2)
        assert stats.injected == 3
        assert stats.as_dict()["torn_writes"] == 1
        assert stats.as_dict()["ops"] == 3

    def test_faulty_file_routes_through_injector(self, tmp_path):
        io = FaultyJournalIO(DiskFaultPlan(seed=0, fsync_error_rate=1.0))
        raw = open(tmp_path / "ff", "wb")
        wrapped = FaultyFile(raw, io)
        assert wrapped.write(b"abc") == 3  # write op 1: no write faults
        wrapped.flush()  # never faulted
        with pytest.raises(OSError):
            wrapped.sync()
        assert io.stats.fsync_errors == 1
        assert wrapped.fileno() == raw.fileno()
        assert wrapped.name == raw.name  # __getattr__ delegation
        wrapped.close()

    def test_real_io_seam_is_faithful(self, tmp_path):
        io = JournalIO()
        path = tmp_path / "real"
        fh = io.open_append(path)
        io.write(fh, b"hello world")
        io.flush(fh)
        io.fsync(fh)
        fh.close()
        io.truncate(path, 5)
        assert path.read_bytes() == b"hello"
        io.replace(path, tmp_path / "moved")
        io.fsync_dir(tmp_path)
        assert (tmp_path / "moved").exists()


# ----------------------------------------------------------------------
# Journal fail-stop (the fsyncgate rule)
# ----------------------------------------------------------------------
class TestJournalFailStop:
    def test_fsync_failure_poisons_the_journal(self, tmp_path):
        # Ops: magic write(1), fsync(2), dir fsync(3); open write(4),
        # fsync(5); meta write(6), fsync(7) <- the scripted fault.
        io = FaultyJournalIO(DiskFaultPlan(
            seed=2, fsync_error_rate=1.0, skip=6, max_faults=1,
        ))
        journal = SessionJournal(tmp_path / "j.wal", io=io)
        journal.record_open("sender", "intersection")
        with pytest.raises(JournalError, match="fail-stop"):
            journal.record_meta("session_id", 1)
        assert journal.poisoned is not None
        assert journal._file is None  # the fd is gone, never reused
        assert journal.io_stats()["fsync_failures"] == 1
        # Every later operation stays refused.
        with pytest.raises(JournalError, match="fail-stop"):
            journal.record_inbound(0, b"x")
        journal.close()  # teardown is safe

    def test_write_failure_poisons_the_journal(self, tmp_path):
        # fsync=False ops (no fsync, no dir fsync): magic write(1); open
        # write(2); meta write(3); inbound write(4) <- the scripted fault.
        io = FaultyJournalIO(DiskFaultPlan(
            seed=3, enospc_rate=1.0, skip=3, max_faults=1,
        ))
        journal = _journal(tmp_path / "j.wal", io=io)
        with pytest.raises(JournalError, match="fail-stop"):
            journal.record_inbound(0, b"payload")
        assert journal.write_failures == 1
        assert journal.poisoned is not None

    def test_torn_append_is_repaired_on_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        io = FaultyJournalIO(DiskFaultPlan(
            seed=11, torn_write_rate=1.0, skip=3, max_faults=1,
        ))
        journal = _journal(path, io=io)
        good = path.read_bytes()
        with pytest.raises(JournalError, match="fail-stop"):
            journal.record_inbound(0, b"payload-that-tears")
        journal.close()
        assert len(path.read_bytes()) >= len(good)  # prefix may have landed
        reopened = SessionJournal(path, fsync=False)
        assert reopened.records == [
            ("open", 1, "sender", "intersection"),
            ("meta", "session_id", 7),
        ]
        assert path.read_bytes() == good  # torn tail physically dropped
        reopened.record_inbound(0, b"payload-that-tears")  # and life goes on
        reopened.close()

    def test_close_never_raises_but_poisons(self, tmp_path):
        # Ops: magic write(1), fsync(2), dir fsync(3); open write(4),
        # fsync(5); close fsync(6) <- the scripted fault.
        io = FaultyJournalIO(DiskFaultPlan(
            seed=4, fsync_error_rate=1.0, skip=5, max_faults=1,
        ))
        journal = SessionJournal(tmp_path / "j.wal", io=io)
        journal.record_open("sender", "intersection")
        journal.close()  # the injected close-fsync failure must not raise
        assert journal.fsync_failures == 1
        assert journal.poisoned is not None

    def test_poisoned_journal_refuses_rotation(self, tmp_path):
        io = FaultyJournalIO(DiskFaultPlan(
            seed=2, fsync_error_rate=1.0, skip=6, max_faults=1,
        ))
        journal = SessionJournal(tmp_path / "j.wal", io=io)
        journal.record_open("sender", "intersection")
        with pytest.raises(JournalError):
            journal.record_meta("session_id", 1)
        with pytest.raises(JournalError, match="poisoned"):
            journal.rotate()
        assert journal.io_stats()["rotate_failures"] == 1

    def test_dir_fsync_failures_are_counted_not_fatal(self, tmp_path):
        io = FaultyJournalIO(DiskFaultPlan(seed=6, dir_fsync_error_rate=1.0))
        journal = SessionJournal(tmp_path / "j.wal", io=io)
        assert journal.dir_fsync_failures == 1  # the create barrier
        journal.record_open("sender", "intersection")  # appends unaffected
        assert journal.io_stats()["dir_fsync_failures"] == 1
        journal.close()


class TestRenameFailure:
    def _complete_journal(self, path, io=None):
        journal = _journal(path, io=io)
        journal.record_complete()
        return journal

    def test_failed_rotation_keeps_a_classifiable_wal(self, tmp_path):
        path = tmp_path / "sender-intersection-0000000000000007.wal"
        io = FaultyJournalIO(DiskFaultPlan(
            seed=9, rename_error_rate=1.0, max_faults=1,
        ))
        journal = self._complete_journal(path, io=io)
        with pytest.raises(JournalError, match="rotation"):
            journal.rotate()
        assert journal.rotate_failures == 1
        assert journal.path == path  # unchanged, still *.wal
        # The failed rename left the file byte-identical: a read-only
        # scan still classifies it as a completed run...
        state = peek_state(path)
        assert state is not None and state.complete
        # ...so the directory scan skips it rather than re-running it.
        assert JournalDir(tmp_path).incomplete("sender") == []
        # The injector's budget is spent; the retry rotation succeeds.
        rotated = SessionJournal(path, fsync=False, io=io).rotate()
        assert rotated.suffix == DONE_SUFFIX

    def test_successful_rotation_still_works_under_injector(self, tmp_path):
        io = FaultyJournalIO(DiskFaultPlan(seed=9, rename_error_rate=0.0))
        journal = self._complete_journal(tmp_path / "j.wal", io=io)
        assert journal.rotate().suffix == DONE_SUFFIX


# ----------------------------------------------------------------------
# Torn-tail recovery at every byte offset (satellite)
# ----------------------------------------------------------------------
def _multi_record_journal(tmp_path):
    """A complete 6-record journal plus its record-boundary offsets."""
    base = tmp_path / "base.wal"
    journal = SessionJournal(base, fsync=False)
    journal.record_open("sender", "intersection")
    journal.record_meta("session_id", 5)
    journal.record_inbound(0, b"first-inbound-payload")
    journal.record_outbound(0, b"first-outbound")
    journal.record_inbound(1, b"x")
    journal.record_complete()
    journal.close()
    data = base.read_bytes()
    _, ends = scan_sealed(data, len(JOURNAL_MAGIC))
    assert ends[-1] == len(data)
    boundaries = [len(JOURNAL_MAGIC), *ends]
    assert len(boundaries) == 7  # magic + 6 records
    return data, boundaries


def test_torn_tail_recovery_at_every_byte_offset(tmp_path):
    """Cut the journal at every byte; recovery always yields the exact
    record prefix, truncates the torn tail, and stays appendable."""
    data, boundaries = _multi_record_journal(tmp_path)
    path = tmp_path / "cut.wal"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        whole = max(
            i for i, end in enumerate(boundaries) if end <= cut
        ) if cut >= boundaries[0] else 0
        # Read-only classification first: never repairs, never raises
        # on a torn tail.
        state = peek_state(path)
        if whole == 0:
            assert state is None
        else:
            assert state is not None
            assert state.complete == (whole == len(boundaries) - 1)
        assert path.read_bytes() == data[:cut]  # peek changed nothing
        # Owner reopen: repairs to the boundary and stays writable.
        journal = SessionJournal(path, fsync=False)
        assert len(journal.records) == whole
        if cut >= boundaries[0]:
            assert journal.truncated_bytes == cut - boundaries[whole]
            assert path.read_bytes() == data[: boundaries[whole]]
        else:
            # Torn inside the magic header: repaired to a fresh journal.
            assert journal.truncated_bytes == 0
            assert path.read_bytes() == JOURNAL_MAGIC
        journal.close()
        path.unlink()


def test_corrupt_byte_at_every_offset_never_yields_garbage(tmp_path):
    """Flip one byte at every offset (headers, payloads, CRC seals):
    the scan must yield an exact record prefix or a typed error -
    never a record that was not journaled."""
    data, boundaries = _multi_record_journal(tmp_path)
    intact_records = SessionJournal._scan_bytes(data, tmp_path)[0]
    path = tmp_path / "flip.wal"
    for offset in range(len(data)):
        corrupted = bytearray(data)
        corrupted[offset] ^= 0x40
        path.write_bytes(bytes(corrupted))
        if offset < len(JOURNAL_MAGIC):
            with pytest.raises(JournalError):
                peek_state(path)
            path.unlink()
            continue
        state = peek_state(path)
        got = SessionJournal._scan_bytes(bytes(corrupted), path)[0]
        # The scan stops at (or skips past nothing into) the corrupted
        # record: what survives is a strict prefix of what was written,
        # except when the flip lands in a payload byte that still
        # satisfies the CRC - impossible - so prefix always.
        assert got == intact_records[: len(got)]
        assert len(got) < len(intact_records)
        if state is not None:
            assert not state.complete or len(got) == len(intact_records)
        path.unlink()


def test_rotation_window_crash_states_classify_correctly(tmp_path):
    """The .wal -> .done window: done-record-but-unrotated journals are
    complete (skipped by scans, rotatable); missing the done record
    means incomplete (recoverable)."""
    data, boundaries = _multi_record_journal(tmp_path)
    # Crash after the done record, before the rename: complete.
    before_rename = tmp_path / "sender-intersection-0000000000000005.wal"
    before_rename.write_bytes(data)
    assert peek_state(before_rename).complete
    assert JournalDir(tmp_path).incomplete("sender") == []
    rotated = SessionJournal(before_rename, fsync=False).rotate()
    assert rotated.suffix == DONE_SUFFIX
    assert peek_state(rotated).complete
    rotated.unlink()
    # Crash just before the done record landed: incomplete, recoverable.
    before_done = tmp_path / "sender-intersection-0000000000000006.wal"
    before_done.write_bytes(data[: boundaries[-2]])
    assert not peek_state(before_done).complete
    assert JournalDir(tmp_path).incomplete("sender") == [before_done]

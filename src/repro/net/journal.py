"""Crash-durable session journal: a write-ahead log for protocol runs.

The resumable sessions of :mod:`repro.net.session` survive *connection*
failures because their round logs live outside any single connection -
but those logs live only in memory, so a dying **process** still loses
the whole run. This module puts the round log on disk:

* every session event (handshake parameters, each inbound round
  payload received, each outbound round payload computed, the
  completion marker) is appended to a per-session journal file as a
  length-prefixed, CRC32-sealed record, ``flush``-ed and (by default)
  ``fsync``-ed before the session acts on it;
* on restart, :func:`open_session` rebuilds the session core
  (:mod:`repro.net.session_core`) to its exact resume cursor by
  replaying the journal through a fresh party machine - the process
  picks the run back up from disk instead of restarting the protocol;
* a journal whose tail was torn by the crash (a half-written record)
  is truncated back to the last intact record on open, so recovery
  never trips over its own corpse - but a record that passes its CRC
  and still is not a record was written whole and then damaged: that
  is corruption (:class:`JournalError`), and nothing is truncated;
* a completed journal is **rotated** - atomically renamed from
  ``*.wal`` to ``*.done`` via ``os.replace`` - so a directory scan
  (:meth:`JournalDir.incomplete`) finds exactly the runs that still
  need recovering.

Replay determinism is the load-bearing invariant: a party state is a
pure function of ``(data, params, rng seed)``, so a recovered machine
fed the journaled inbound payloads recomputes byte-identical outbound
payloads. Recovery *checks* this - each replayed outbound round is
compared against the journaled bytes and a mismatch (wrong seed,
changed data) raises :class:`JournalError` instead of silently
shipping frames the peer has never seen.

On-disk format (all integers big-endian)::

    magic   "RPJL" || u16 version
    record  u32 len(payload) || payload || u32 crc32(payload)

where each payload is :mod:`repro.net.serialization` bytes for one of::

    ("open", version, role, protocol)
    ("meta", key, value)              # "session_id", "params", "chunk_size"
    ("in",  index, wire_bytes)        # inbound frame payload, encoded
    ("out", index, wire_bytes)        # outbound frame payload, encoded
    ("done",)
"""

from __future__ import annotations

import logging
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from ..crypto.numtheory import _key_rng
from . import serialization
from .crashpoints import crash_point
from .diskfaults import JournalIO
from .session import SessionConfig, SessionStats
from .session_core import ReceiverCore, RoundLog, SenderCore, round_frames

__all__ = [
    "JOURNAL_VERSION",
    "JOURNAL_MAGIC",
    "JournalError",
    "SessionJournal",
    "JournalDir",
    "JournalState",
    "peek_state",
    "replay_state",
    "open_session",
]

JOURNAL_VERSION = 1

#: File prologue: four ASCII bytes plus the format version.
JOURNAL_MAGIC = b"RPJL" + struct.pack(">H", JOURNAL_VERSION)

#: Suffix of a live (possibly incomplete) journal.
WAL_SUFFIX = ".wal"
#: Suffix a completed journal is atomically rotated to.
DONE_SUFFIX = ".done"
#: Suffix an unrecoverable journal is quarantined to (kept for forensics).
CORRUPT_SUFFIX = ".corrupt"


class JournalError(Exception):
    """A journal is unreadable, inconsistent, or diverges on replay.

    Deliberately *not* an :class:`OSError`: the session layer retries
    transient OS errors, but a journal failure is fail-stop - it must
    escape every retry loop and reach the supervisor.
    """


#: The default I/O seam: real ``os`` calls, shared and stateless.
_REAL_IO = JournalIO()

_log = logging.getLogger(__name__)


class SessionJournal:
    """One session's append-only, CRC-sealed, fsync'd record log.

    Opening an existing file scans and validates every record,
    truncating a torn tail (a record cut short by a crash, or one whose
    checksum fails) back to the last intact byte; the dropped length is
    reported in :attr:`truncated_bytes`. A CRC-valid record that does
    not decode to a str-tagged tuple raises :class:`JournalError`
    instead (the rule of :func:`~repro.net.serialization.scan_sealed`,
    which the catalog cache shares). Appends go through
    ``write + flush + fsync`` (fsync skippable via ``fsync=False`` for
    benchmarks) so a record returned from :meth:`append` survives the
    process.

    Every disk touch goes through an injectable I/O seam (``io``, a
    :class:`~repro.net.diskfaults.JournalIO`; defaults to the real
    ``os`` calls). The journal is **fail-stop**: any write or fsync
    failure poisons it - per the fsyncgate rule a failed fsync leaves
    the page cache state unknowable, so the handle is closed, never
    reused, and every later operation raises :class:`JournalError`.
    Failure counts surface in :meth:`io_stats`.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = True,
        io: JournalIO | None = None,
    ):
        self.path = Path(path)
        self.fsync = fsync
        self.records: list[tuple] = []
        self.truncated_bytes = 0
        self.appends = 0
        self.poisoned: str | None = None
        self.write_failures = 0
        self.fsync_failures = 0
        self.dir_fsync_failures = 0
        self.rotate_failures = 0
        self._io = io if io is not None else _REAL_IO
        self._file: Any = None
        self._load()

    # ------------------------------------------------------------------
    # Open / scan / torn-tail truncation
    # ------------------------------------------------------------------
    def _load(self) -> None:
        exists = self.path.exists()
        if not exists:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._file = self._io.open_append(self.path)
                self._io.write(self._file, JOURNAL_MAGIC)
                self._flush()
            except OSError as exc:
                self.write_failures += 1
                self._poison("create", exc)
            self._dir_barrier()
            return
        data = self.path.read_bytes()
        if len(data) < len(JOURNAL_MAGIC):
            if JOURNAL_MAGIC.startswith(data):
                # Crash mid-creation: nothing was journaled yet.
                try:
                    self.path.write_bytes(JOURNAL_MAGIC)
                    self._file = self._io.open_append(self.path)
                    self._flush()
                except OSError as exc:
                    self.write_failures += 1
                    self._poison("repair", exc)
                return
            raise JournalError(f"{self.path} is not a session journal")
        self.records, good_end = self._scan_bytes(data, self.path)
        if good_end < len(data):
            self.truncated_bytes = len(data) - good_end
            _log.warning(
                "torn tail truncated path=%s dropped_bytes=%d",
                self.path, self.truncated_bytes,
            )
            try:
                self._io.truncate(self.path, good_end)
            except OSError as exc:
                self.write_failures += 1
                self._poison("truncate", exc)
        try:
            self._file = self._io.open_append(self.path)
        except OSError as exc:
            self.write_failures += 1
            self._poison("open", exc)

    @staticmethod
    def _scan_bytes(data: bytes, path: Path) -> tuple[list[tuple], int]:
        """Read-only record scan of whole-file bytes.

        Returns ``(intact records, offset just past the last one)``;
        anything after that offset is a torn tail. Never touches the
        file - callers that own the journal truncate, callers that
        merely inspect it (:func:`peek_state`) must not.

        Raises:
            JournalError: on a foreign or future header, or a CRC-valid
                record that is not one.
        """
        if data[: len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
            if JOURNAL_MAGIC.startswith(data):
                # Crash mid-creation: nothing was journaled yet.
                return [], len(data)
            raise JournalError(
                f"{path} has a foreign or future journal header"
            )
        try:
            records, ends = serialization.scan_sealed(data, len(JOURNAL_MAGIC))
        except ValueError as exc:
            raise JournalError(f"{path}: corrupt journal ({exc})") from exc
        return records, ends[-1] if ends else len(JOURNAL_MAGIC)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _poison(self, op: str, exc: OSError) -> None:
        """Fail-stop: close and never reuse the handle, raise typed.

        After a failed write the file offset is unknowable; after a
        failed fsync the page cache is (fsyncgate) - either way no
        later append through this handle can be trusted, so the
        journal refuses all further writes until reopened (which
        re-scans and truncates whatever half-record made it to disk).
        """
        self.poisoned = f"{op}: {exc}"
        fh, self._file = self._file, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass
        raise JournalError(
            f"{self.path}: {op} failed; journal is fail-stop ({exc})"
        ) from exc

    def _dir_barrier(self, path: Path | None = None) -> None:
        """Directory durability barrier; failures counted, not fatal.

        A failed directory fsync means the file's *name* may not
        survive a power cut - but the data a successful ``append``
        fsync'd is intact, so this is recorded
        (:attr:`dir_fsync_failures`, surfaced by :meth:`io_stats`)
        rather than poisoning the journal.  It follows ``fsync=``: a
        journal that asks no durability for its data buys none for its
        name.
        """
        if not self.fsync:
            return
        try:
            self._io.fsync_dir(path if path is not None else self.path.parent)
        except OSError:
            self.dir_fsync_failures += 1

    def _flush(self) -> None:
        self._io.flush(self._file)
        if self.fsync:
            self._io.fsync(self._file)

    def append(self, record: tuple) -> None:
        """Seal, write, and make one record durable before returning.

        Raises:
            JournalError: if the journal is closed or poisoned, or if
                the write/fsync fails - in which case the journal
                poisons itself (fail-stop) before raising.
        """
        if self.poisoned is not None:
            raise JournalError(
                f"{self.path}: fail-stop after {self.poisoned}"
            )
        if self._file is None:
            raise JournalError(f"{self.path} is closed")
        sealed = serialization.seal(record)
        crash_point("journal.append.pre")
        try:
            self._io.write(self._file, sealed)
        except OSError as exc:
            self.write_failures += 1
            self._poison("write", exc)
        try:
            self._flush()
        except OSError as exc:
            self.fsync_failures += 1
            self._poison("fsync", exc)
        self.records.append(record)
        self.appends += 1
        crash_point("journal.append.post")

    def record_open(self, role: str, protocol: str) -> None:
        """The first record: which role and protocol this journal logs."""
        self.append(("open", JOURNAL_VERSION, role, protocol))

    def record_meta(self, key: str, value: Any) -> None:
        """A handshake fact (``"session_id"``, ``"params"``)."""
        self.append(("meta", key, value))

    def record_inbound(self, index: int, data: bytes) -> None:
        """Round payload ``index`` received from the peer (encoded)."""
        self.append(("in", index, data))

    def record_outbound(self, index: int, data: bytes) -> None:
        """Round payload ``index`` computed for the peer (encoded)."""
        self.append(("out", index, data))

    def record_complete(self) -> None:
        """The run finished; recovery of this journal is a no-op."""
        self.append(("done",))

    @property
    def complete(self) -> bool:
        """Whether a completion marker has been journaled."""
        return any(r and r[0] == "done" for r in self.records)

    def io_stats(self) -> dict[str, Any]:
        """Lifetime I/O and failure counters for this journal.

        Every swallowed-or-poisoned failure shows up here - directory
        fsync failures are the only class that is counted without
        raising, everything else also fail-stopped the journal.
        """
        return {
            "appends": self.appends,
            "truncated_bytes": self.truncated_bytes,
            "write_failures": self.write_failures,
            "fsync_failures": self.fsync_failures,
            "dir_fsync_failures": self.dir_fsync_failures,
            "rotate_failures": self.rotate_failures,
            "poisoned": self.poisoned,
        }

    # ------------------------------------------------------------------
    # Teardown / rotation
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the underlying file (idempotent, no-raise).

        Teardown must be safe from ``finally`` blocks, so a flush or
        fsync failure here does not raise: it is counted, the handle is
        closed and the journal marked poisoned - the next *operation*
        raises. Every record a prior :meth:`append` returned for was
        already durable, so nothing acknowledged is at risk.
        """
        if self._file is None:
            return
        fh, self._file = self._file, None
        try:
            self._io.flush(fh)
            if self.fsync:
                self._io.fsync(fh)
        except OSError as exc:
            self.fsync_failures += 1
            if self.poisoned is None:
                self.poisoned = f"close: {exc}"
        finally:
            try:
                fh.close()
            except OSError:
                pass

    def rotate(self) -> Path:
        """Atomically rename a completed ``*.wal`` to ``*.done``.

        ``os.replace`` is atomic on POSIX, so a crash leaves either the
        live journal or the rotated one - never a half state. A failed
        rename raises :class:`JournalError` but leaves the ``*.wal``
        byte-identical, so :func:`peek_state` still classifies it as a
        completed run and a later scan can rotate it. Returns the
        rotated path; idempotent on an already-rotated journal.
        """
        self.close()
        if self.poisoned is not None:
            self.rotate_failures += 1
            raise JournalError(
                f"{self.path}: refusing to rotate a poisoned journal "
                f"({self.poisoned})"
            )
        if self.path.suffix == DONE_SUFFIX:
            return self.path
        target = self.path.with_suffix(DONE_SUFFIX)
        crash_point("journal.rotate.pre")
        try:
            self._io.replace(self.path, target)
        except OSError as exc:
            self.rotate_failures += 1
            raise JournalError(
                f"{self.path}: rotation rename failed ({exc}); the "
                "completed journal is intact and still classifies as "
                "complete"
            ) from exc
        self._dir_barrier(target.parent)
        self.path = target
        crash_point("journal.rotate.post")
        return target


class JournalDir:
    """A directory of per-session journals, one file per session.

    File names are ``{role}-{protocol}-{session_id:016x}.wal`` while a
    run is live and ``.done`` once rotated, so recovery is a glob, not
    a database.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = True,
        io: JournalIO | None = None,
    ):
        self.path = Path(path)
        self.fsync = fsync
        self.io = io
        self.path.mkdir(parents=True, exist_ok=True)

    def path_for(self, role: str, protocol: str, session_id: int) -> Path:
        """The live journal path for one ``(role, protocol, session)``."""
        return self.path / f"{role}-{protocol}-{session_id:016x}{WAL_SUFFIX}"

    def open_session(
        self, role: str, protocol: str, session_id: int
    ) -> SessionJournal:
        """Open (or create) the journal for one session.

        A fresh journal gets its ``open`` and ``session_id`` records
        written immediately; an existing one is returned as-is
        (:func:`open_session` is what resumes it).
        """
        journal = SessionJournal(
            self.path_for(role, protocol, session_id),
            fsync=self.fsync,
            io=self.io,
        )
        if not journal.records:
            journal.record_open(role, protocol)
            journal.record_meta("session_id", session_id)
        return journal

    def _live(
        self, role: str | None = None, protocol: str | None = None
    ) -> list[tuple[Path, "JournalState"]]:
        """Readable un-rotated journals and their states, oldest first.

        Filters by role and/or protocol when given. The scan is a
        ``*.wal`` glob (rotated ``.done`` files are never opened) and
        **strictly read-only** (:func:`peek_state`): it never repairs a
        torn tail, so it is safe to run while other threads or
        processes are appending to journals in the same directory - a
        half-flushed append just makes that journal look one record
        shorter. Unreadable files are left for forensics.
        """
        out = []
        for path in sorted(
            self.path.glob(f"{role or '*'}-{protocol or '*'}-*{WAL_SUFFIX}"),
            key=lambda p: p.stat().st_mtime,
        ):
            try:
                state = peek_state(path)
            except JournalError:
                continue
            if state is None or (protocol and state.protocol != protocol):
                continue
            out.append((path, state))
        return out

    def incomplete(
        self, role: str | None = None, protocol: str | None = None
    ) -> list[Path]:
        """Un-rotated journal paths whose run never completed, oldest
        first, filtered by role and/or protocol when given.

        The same read-only scan as :meth:`_live`. A ``*.wal`` whose run
        completed (crash between the completion record and the
        rotation) is not listed here; :func:`open_session` is what
        salvages or rotates one.
        """
        return [
            path for path, state in self._live(role, protocol)
            if not state.complete
        ]


@dataclass
class JournalState:
    """The parsed, validated content of one session journal.

    ``inbound``/``outbound`` hold *frames*: whole-round payloads for a
    run journaled without chunking, individual chunk / chunk-end frames
    for one journaled with ``chunk_size`` set (recorded in the
    ``chunk_size`` meta record). A round is durable only once its
    closing frame made it to disk.
    """

    role: str
    protocol: str
    session_id: int | None = None
    params_wire: tuple | None = None
    chunk_size: int | None = None
    inbound: list[bytes] = field(default_factory=list)
    outbound: list[bytes] = field(default_factory=list)
    complete: bool = False


def peek_state(path: str | Path) -> JournalState | None:
    """Read-only parse of one journal file on disk.

    Unlike opening a :class:`SessionJournal` (which truncates a torn
    tail and takes an append handle - a *repair*, only safe for the
    journal's owner), this reads bytes and nothing else, so it can be
    run against a journal another process - or another thread of this
    process - is actively appending to. A torn or half-flushed tail is
    simply ignored: the returned state reflects every intact record
    before it. Returns ``None`` for a journal with no intact records
    yet (crash mid-creation) - nothing to recover or resume.

    Raises:
        JournalError: unreadable file, foreign header, a CRC-valid
            record that is not one, or records that fail
            :func:`replay_state` validation.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"{path}: unreadable ({exc})") from exc
    records, _good_end = SessionJournal._scan_bytes(data, path)
    if not records:
        return None
    return _fold_state(records, path)


def replay_state(journal: SessionJournal) -> JournalState:
    """Validate a journal's records and fold them into a state.

    Raises:
        JournalError: on an empty journal, a missing/foreign ``open``
            record, out-of-order round indices, or records after the
            completion marker - all signs the file is not a journal
            this code wrote.
    """
    if not journal.records:
        raise JournalError(f"{journal.path}: empty journal")
    return _fold_state(journal.records, journal.path)


def _fold_state(records: list[tuple], path: Path) -> JournalState:
    """Fold already-scanned records into a validated state."""
    head = records[0]
    if head[0] != "open" or len(head) != 4:
        raise JournalError(f"{path}: missing open record")
    _, version, role, protocol = head
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: journal version {version!r}, "
            f"this code reads {JOURNAL_VERSION}"
        )
    if role not in ("sender", "receiver") or not isinstance(protocol, str):
        raise JournalError(f"{path}: malformed open record")
    state = JournalState(role=role, protocol=protocol)
    for record in records[1:]:
        tag = record[0]
        if state.complete:
            raise JournalError(f"{path}: records after completion")
        if tag == "meta" and len(record) == 3:
            key, value = record[1], record[2]
            if key == "session_id":
                state.session_id = value
            elif key == "params":
                state.params_wire = tuple(value)
            elif key == "chunk_size":
                if not isinstance(value, int) or value < 1:
                    raise JournalError(
                        f"{path}: malformed chunk_size record {value!r}"
                    )
                state.chunk_size = value
        elif tag in ("in", "out") and len(record) == 3:
            index, data = record[1], record[2]
            cache = state.inbound if tag == "in" else state.outbound
            if index != len(cache) or not isinstance(data, bytes):
                raise JournalError(
                    f"{path}: {tag} record {index!r} out of order "
                    f"(expected {len(cache)})"
                )
            cache.append(data)
        elif tag == "done" and len(record) == 1:
            state.complete = True
        else:
            raise JournalError(f"{path}: unknown record {tag!r}")
    return state


def _replay_machine(
    machine: Any,
    spec: Any,
    emits: str,
    in_frames: list,
    out_bytes: list,
    path: Path,
    chunk_size: int | None = None,
    journal: SessionJournal | None = None,
) -> tuple[list[int], list[int]]:
    """Walk the round schedule feeding journaled frames to a machine.

    ``emits`` is the role letter (``"S"``/``"R"``) of the rounds this
    party produces; ``in_frames`` holds the decoded inbound frames and
    ``out_bytes`` the encoded outbound ones, exactly as journaled.
    Every outbound round with at least one journaled frame is
    recomputed in full and compared byte-for-byte against the journal -
    the recovery invariant - so a divergent rng seed, changed input or
    different ``chunk_size`` raises :class:`JournalError` instead of
    resuming into a forked run. A round whose tail frames were lost to
    the crash is completed from the recomputation: the missing frames
    are appended to ``out_bytes`` (and to ``journal``, when given) so
    the journal again covers whole rounds. An inbound round cut short
    mid-chunk stays unconsumed - the live session resumes receiving it
    at the first missing frame.

    Returns ``(in_bounds, out_bounds)``: the cumulative frame count at
    each fully restored round boundary, i.e. the session's resume
    cursor at chunk granularity.
    """
    machine.ensure_state()
    in_pos = out_pos = 0
    in_bounds: list[int] = []
    out_bounds: list[int] = []
    stalled_inbound = False
    for rnd in spec.rounds:
        try:
            if rnd.source == emits:
                if out_pos >= len(out_bytes):
                    break
                frames = round_frames(machine, rnd, chunk_size)
                for offset, frame in enumerate(frames):
                    encoded = serialization.encode(frame)
                    pos = out_pos + offset
                    if pos < len(out_bytes):
                        if out_bytes[pos] != encoded:
                            raise JournalError(
                                f"{path}: replay of round {rnd.name!r} "
                                "diverges from the journal (different rng "
                                "seed, input data, or chunk size?)"
                            )
                    else:
                        out_bytes.append(encoded)
                        if journal is not None:
                            journal.record_outbound(pos, encoded)
                out_pos += len(frames)
                out_bounds.append(out_pos)
            else:
                if in_pos >= len(in_frames):
                    break
                status, payload, used = serialization.fold_chunk_frames(
                    in_frames[in_pos:]
                )
                if status == "partial":
                    # The crash cut this round short mid-chunk: its
                    # frames stay buffered, the round stays pending.
                    stalled_inbound = True
                    in_pos = len(in_frames)
                    break
                if status == "single":
                    machine.consume(rnd, payload)
                else:
                    machine.consume_chunks(rnd, payload)
                in_pos += used
                in_bounds.append(in_pos)
        except JournalError:
            raise
        except Exception as exc:
            # Corrupt-but-CRC-valid payloads surface here as whatever
            # the machine throws; recovery's contract is JournalError.
            raise JournalError(
                f"{path}: journaled round {rnd.name!r} does not replay "
                f"({exc!r})"
            ) from exc
    if in_pos < len(in_frames) or (
        out_pos < len(out_bytes) and not stalled_inbound
    ):
        raise JournalError(
            f"{path}: journal holds more frames than the "
            f"{spec.name!r} schedule admits at this cursor"
        )
    if out_pos < len(out_bytes):
        raise JournalError(
            f"{path}: outbound frames journaled for a round whose "
            "inbound predecessor never completed - not a journal this "
            "code wrote"
        )
    return in_bounds, out_bounds


def _decode_all(payloads: Iterable[bytes], path: Path) -> list[Any]:
    """Decode journaled wire payloads; JournalError on garbage.

    A record can pass its CRC (it was written whole) yet hold bytes
    that are not a serialized round - e.g. a foreign tool wrote the
    file. That must surface as :class:`JournalError`, recovery's one
    failure type, not leak :class:`ValueError` to callers.
    """
    out = []
    for index, payload in enumerate(payloads):
        try:
            out.append(serialization.decode(payload))
        except ValueError as exc:
            raise JournalError(
                f"{path}: journaled round payload {index} does not "
                f"decode ({exc})"
            ) from exc
    return out


def _restore(core: Any, state: JournalState) -> None:
    """Bring a just-built ``core`` to the cursor ``state`` journaled.

    The journaled frames are replayed through the core's machine into
    its round log; ``make_state`` must be the same deterministic
    factory (same data, same params, same rng seed) the crashed
    process used - the replay verifies it byte-for-byte.
    """
    journal = core.journal
    if core.role == "sender":
        core._session_id = state.session_id
        core._complete = state.complete
    else:
        # The original welcome's parameters; without them the crash
        # fell inside the handshake and there is no round to restore.
        core._params_wire = state.params_wire
        if state.params_wire is None:
            if state.inbound or state.outbound:
                raise JournalError(
                    f"{journal.path}: round payloads journaled before the "
                    "public parameters - not a journal this code wrote"
                )
            return
    journaled_sends = len(state.outbound)
    inbound = _decode_all(state.inbound, journal.path)
    in_bounds, out_bounds = _replay_machine(
        core._ensure_machine(), core.spec, core.emits,
        inbound, state.outbound, journal.path,
        chunk_size=core.chunk_size, journal=journal,
    )
    # state.outbound now covers whole rounds (the replay re-journaled
    # any tail frames the crash cut off); every frame journaled before
    # the crash may have reached the wire.
    core.log = RoundLog(
        inbound, _decode_all(state.outbound, journal.path),
        in_bounds, out_bounds, set(range(journaled_sends)),
    )
    core.stats.rounds_recovered = len(in_bounds) + len(out_bounds)


def open_session(
    role: str,
    protocol: str,
    make_state: Callable[..., Any],
    *,
    params: Any = None,
    journal_dir: JournalDir | None = None,
    session_id: int | None = None,
    config: SessionConfig | None = None,
    rng: random.Random | None = None,
    recorder: Any = None,
    chunk_size: int | None = None,
) -> tuple[Any, Any]:
    """The one way to start a session: recovered if a journal says so,
    fresh otherwise.

    Returns ``(core, answer)``: a ready
    :class:`~repro.net.session_core.SenderCore` (``role="sender"``;
    pass ``params``, and ``make_state()`` builds party S) or
    :class:`~repro.net.session_core.ReceiverCore` (``"receiver"``;
    ``make_state(params_wire)`` builds party R) - hand ``core.steps()``
    to a shell - and ``None``, or the answer a previous life already
    journaled, in which case there is nothing left to run. ``config``
    defaults to ``SessionConfig()`` and ``rng`` to an unseeded one;
    ``core.stats`` starts at zero.

    What a restarting party owes the journals a previous life left in
    ``journal_dir`` is decided here, once. With a ``session_id`` only
    that session's own path is consulted - the supervised server's
    case, where other journals in the directory belong to live
    sessions; without one the directory's ``*.wal`` files for
    ``protocol`` are taken oldest first. Per journal:

    * rounds journaled, run incomplete: **recovered** - the core
      resumes from the exact ``(round, chunk)`` cursor the crash
      interrupted, appending to the same journal;
    * completed but never rotated (the crash fell between the
      completion record and the rename): a receiver journal replays
      offline to its answer and is rotated - no dial, the answer is
      already on disk; a sender journal is rotated and the scan goes
      on;
    * metadata only (death inside the handshake - possibly before the
      ``chunk_size`` record recovery would check): deleted, nothing
      durable is lost by starting that id over.

    When nothing is left to resume the core is fresh and journals to
    ``journal_dir`` (if any) under the id it draws or is told.

    Raises:
        JournalError: a journal does not replay (wrong seed, data or
            ``chunk_size``), or - with ``session_id`` - is unreadable.
    """

    def build(journal: Any, session_id: int | None) -> Any:
        shared = (
            config or SessionConfig(), _key_rng(rng),
            SessionStats(protocol=protocol),
        )
        if role == "sender":
            return SenderCore(
                protocol, params, make_state, *shared,
                recorder=recorder, journal=journal, chunk_size=chunk_size,
            )
        return ReceiverCore(
            protocol, make_state, *shared, session_id=session_id,
            recorder=recorder, journal=journal, chunk_size=chunk_size,
        )

    def recover(path: Path, state: JournalState) -> Any:
        if state.role != role:
            raise JournalError(f"{path}: not a {role} journal")
        if state.chunk_size != chunk_size:
            raise JournalError(
                f"{path}: journaled with chunk_size={state.chunk_size}, "
                f"recovering with chunk_size={chunk_size}"
            )
        if role == "receiver" and state.session_id is None:
            raise JournalError(f"{path}: no session id journaled")
        core = build(
            SessionJournal(path, fsync=journal_dir.fsync, io=journal_dir.io),
            state.session_id,
        )
        try:
            _restore(core, state)
        except BaseException:
            core.journal.close()
            raise
        return core

    if journal_dir is None:
        found = []
    elif session_id is None:
        found = journal_dir._live(role, protocol)
    else:
        path = journal_dir.path_for(role, protocol, session_id)
        state = peek_state(path) if path.exists() else None
        found = [(path, state)] if state is not None else []
    for path, state in found:
        if not state.complete:
            if state.inbound or state.outbound:
                return recover(path, state), None
            path.unlink()
        elif role == "sender":
            SessionJournal(
                path, fsync=journal_dir.fsync, io=journal_dir.io
            ).rotate()
        else:
            core = recover(path, state)
            if core._machine is None:
                core.journal.close()
                raise JournalError(
                    f"{path}: complete journal without parameters"
                )
            answer = core._machine.finish()
            core._journal_complete()
            return core, answer
    return build(journal_dir, session_id), None

"""The session layer's I/O-free core: its rules, written once.

Everything the fault-tolerant session layer *decides* lives here - the
stop-and-wait ack/nak/implicit-ack rules, the hello/welcome handshake
of both roles (busy, worker-lost and reject handling included), the
frame-granular round log and the reconnect loop - as generator bodies
that never touch a socket, a clock, a thread or an event loop. What a
body cannot do itself it *yields* as a request (:class:`Send`,
:class:`Recv`, :class:`Sleep`, :data:`NOW`, :class:`Compute`,
:class:`Ahead`, :data:`OPEN`) and is resumed with the result.

A *shell* executes the requests. The asyncio shell
(:func:`repro.net.aio.run_async`), the one that does real I/O, serves
them from an event loop for both parties, heavy machine steps through
its executor; the lock-step shell (:class:`repro.net.virtual.LockStep`)
serves them inline on a virtual clock. Both keep one invariant:
*machine steps of one party never run concurrently with each other* -
an :class:`Ahead` step overlaps only the party's ``Send`` / ``Recv`` /
``Sleep``, and is over before its next :class:`Compute` starts. A
streamed round's lookahead is such a step: the core pulls chunk ``k+1``
ahead while it ships chunk ``k``.

A machine step carries its *declared work*: an upper bound on the
exponentiations it does, each priced ``exponent bits x modulus
bits^2`` (the unit of :data:`~repro.crypto.engine.THREAD_HOP`;
every exponent is below the modulus, so a step over ``n`` items
declares ``n x`` :data:`_EXPS_PER_ITEM` ``x bits^3``), or ``None``
where the core cannot bound it. The core fills it from sizes it
holds: zero for decoding a received round; the party's values plus
the items received so far for a produced round (whole or streamed),
S's own-set step and R's answer; the party's values for its set-up,
when its factory knows the table's size (``size``); a received chunk's
items for the eager step on it. The asyncio shell runs a step that
declares little in place and hops to its executor for the rest
(:data:`repro.net.aio.INLINE_WORK`). A shell decides nothing else:
every failure of a request -
a timeout (``TimeoutError``), a frame that does not decode
(``ValueError``), a dead link (``ConnectionError``/``OSError``), a
refused dial - is *thrown into* the body at its ``yield``, so the
``except`` clauses here are the one place that says what is transient.
The shell owns the link and closes it when the body ends, which is why no body yields from a ``finally``; a party's
journal is its own, and ``steps()`` closes it however the run ends.

Wire frames (every frame sealed with a trailing CRC32 of the encoded
preceding fields):

    ("hello",   version, protocol, session_id, next_send, next_recv, crc)
    ("welcome", version, protocol, session_id, params_wire, next_recv, crc)
    ("reject",  version, reason, crc)
    ("busy",    version, reason, crc)   # server at capacity or draining
    ("msg",     seq, payload_bytes, crc)
    ("ack",     seq, crc)
    ("nak",     seq, crc)           # seq -1: "last frame was garbled"
    ("fin",     session_id, crc)

The protocols are strictly alternating, so stop-and-wait loses no
throughput; a data frame arriving while a sender waits for its ack is
an *implicit* ack (the peer can only have progressed past our frame).
"""

from __future__ import annotations

import logging
import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, NamedTuple

from . import serialization
from .crashpoints import crash_point
from .streaming import DONE, TimedIterator

__all__ = [
    "SESSION_VERSION",
    "SessionError",
    "HandshakeError",
    "ServerBusyError",
    "WorkerLost",
    "SessionAborted",
    "seal",
    "unseal",
    "busy_backoff_s",
    "refusal_retry_hint_s",
    "Send",
    "Recv",
    "Sleep",
    "Now",
    "NOW",
    "Compute",
    "Ahead",
    "Open",
    "OPEN",
    "round_frames",
    "RoundLog",
    "Link",
    "SenderCore",
    "ReceiverCore",
]

SESSION_VERSION = 1

#: The session layer's logger: :mod:`repro.net.session` drives this core.
_log = logging.getLogger("repro.net.session")

#: Transport-level events a reconnect can recover from.
_TRANSIENT = (ConnectionError, TimeoutError, OSError)

#: What every body here is: requests out, replies in, a result back.
Steps = Generator[Any, Any, Any]

#: Exponentiations one item of a machine step costs at most: a value
#: or a peer's ciphertext is encrypted under at most two keys (S's
#: equijoin keys), R strips at most two layers off a triple, and
#: hashing a value costs less than two (docs/PERFORMANCE.md, "Hop only
#: when it pays").
_EXPS_PER_ITEM = 2


class SessionError(Exception):
    """A session-layer failure (retries exhausted, protocol violation)."""


class HandshakeError(SessionError):
    """A non-retryable handshake failure (version/protocol mismatch)."""


class ServerBusyError(HandshakeError):
    """The server refused a new session: at capacity or draining.

    Raised client-side on receipt of a typed ``busy`` frame, so a
    rejected client fails fast instead of hanging in reconnect loops.
    ``retry_after_s`` carries the server's optional retry hint (the
    busy frame's fourth field), ``None`` when the server sent none.
    """

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class WorkerLost(SessionError):
    """The server lost the worker that owned this session mid-run.

    Raised client-side on receipt of a typed ``worker-lost`` frame -
    the sharded front end's translation of a worker crash (the busy
    wire shape under a different tag). Unlike :class:`HandshakeError`
    it is *retryable*: the supervisor respawns the worker against the
    same journal directory, so a reconnect resumes the session where
    it stopped. ``retry_after_s`` carries the front end's respawn
    hint, ``None`` when the frame had none.
    """

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SessionAborted(SessionError):
    """The session was administratively aborted (deadline, idle reaper,
    or a drain timeout) and must not be retried on this server."""


def seal(*fields: Any) -> tuple:
    """A session frame: the fields plus a CRC32 over their encoding."""
    return (*fields, zlib.crc32(serialization.encode(list(fields))))


def unseal(frame: Any) -> tuple:
    """Validate a sealed frame; return its fields.

    Raises:
        ValueError: when the frame is not a sealed tuple or its
            checksum does not match (i.e. it was corrupted in flight).
    """
    if not isinstance(frame, tuple) or len(frame) < 2:
        raise ValueError(f"malformed session frame: {type(frame).__name__}")
    *fields, crc = frame
    if not isinstance(crc, int):
        raise ValueError("malformed session frame: non-integer seal")
    try:
        expected = zlib.crc32(serialization.encode(list(fields)))
    except TypeError as exc:
        raise ValueError(f"malformed session frame: {exc}") from exc
    if crc != expected:
        raise ValueError("session frame failed its checksum")
    if not fields or not isinstance(fields[0], str):
        raise ValueError("malformed session frame: missing tag")
    return tuple(fields)


def busy_backoff_s(retry_after_s: float | None, rng: random.Random) -> float:
    """How long a busy-refused client should sleep before redialing.

    The server's ``retry_after_s`` hint (half a second when the busy
    frame carried none) is stretched by up to half of itself:
    ``base * (1 + 0.5 * rng.random())``. Jitter is *added*, never
    subtracted - retrying before the server's own hint elapses would
    land inside the very window it said it was busy for - and it
    de-synchronizes the herd of clients a draining or saturated server
    just refused in one burst, so they do not all redial in lockstep.
    """
    base = retry_after_s if retry_after_s is not None else 0.5
    return max(base, 0.0) * (1.0 + 0.5 * rng.random())


def is_hello(fields: tuple) -> bool:
    """Whether an unsealed frame is a hello (what opens a connection)."""
    return fields[0] == "hello" and len(fields) == 6


def refusal_retry_hint_s(fields: tuple) -> float | None:
    """The retry hint of a busy-shaped refusal frame, in seconds.

    Busy and worker-lost frames optionally carry the server's hint as
    a fourth field in integer milliseconds (the wire format has no
    floats). Returns ``None`` for a three-field frame or a malformed
    hint, mirroring how old clients simply ignore the extra field.
    """
    hint_ms = fields[3] if len(fields) == 4 else None
    if (
        isinstance(hint_ms, int)
        and not isinstance(hint_ms, bool)
        and hint_ms >= 0
    ):
        return hint_ms / 1000.0
    return None


# ----------------------------------------------------------------------
# Requests: the whole interface between a body and its shell
# ----------------------------------------------------------------------
class Send(NamedTuple):
    """Put this sealed frame on the current link."""

    frame: tuple


class Recv(NamedTuple):
    """One frame from the current link within ``timeout`` seconds.

    Resumed with the decoded (still sealed) frame; a timeout, a frame
    that fails to decode, or a dead link is thrown in instead.
    """

    timeout: float


class Sleep(NamedTuple):
    """Resume after ``seconds`` seconds."""

    seconds: float


class Now(NamedTuple):
    """Resume with the shell's monotonic clock, in seconds."""


class Compute(NamedTuple):
    """Run ``fn()`` - a party-machine step - and resume with its result.

    The asyncio shell moves it off the event loop unless its declared
    ``work`` is small; the lock-step shell calls it in place; both
    first wait out the party's pending :class:`Ahead` steps. Whatever
    ``fn`` raises is thrown in.
    """

    fn: Callable[[], Any]
    work: int | None = None


class Ahead(NamedTuple):
    """Run the rng-free machine step ``fn()`` in the background.

    The body is resumed with nothing: at once, or after the step where
    a shell runs it in place. The step only fills a memo its party's next
    round step reads, so its outcome is never awaited by name: the
    shell finishes it before the next :class:`Compute`, and discards
    whatever it raises (the round step recomputes, and raises where it
    always did).
    """

    fn: Callable[[], None]
    work: int | None = None


class Open(NamedTuple):
    """Drop the current link, if any, and dial/accept the next one."""


NOW = Now()
OPEN = Open()


def round_frames(machine: Any, rnd: Any, chunk_size: int | None) -> list:
    """The full frame sequence one outbound round puts on the wire.

    One whole-round payload frame, or - when ``chunk_size`` chunks
    this round - its chunk frames closed by a chunk-end frame. The
    live session and journal replay both build rounds here, so a
    replayed round cannot differ from the one that was shipped.
    """
    if chunk_size is not None and rnd.chunkable:
        payloads = list(machine.produce_chunks(rnd, chunk_size))
        frames: list = [
            serialization.chunk_frame(i, p) for i, p in enumerate(payloads)
        ]
        frames.append(serialization.chunk_end_frame(len(payloads)))
        return frames
    return [machine.produce(rnd).to_wire()]


@dataclass
class RoundLog:
    """Frame-granular log of one party's rounds, outside any connection.

    Frames (whole-round payloads, or chunk/chunk-end frames when
    ``chunk_size`` streams a round) live in the flat ``inbound`` /
    ``outbound`` lists; ``in_rounds`` / ``out_rounds`` hold the
    cumulative frame count at each completed round boundary. That is
    what makes the resume cursor chunk-granular: a reconnect or a
    recovered process restarts mid-round at the first frame the peer
    lacks, and a round is only *complete* once its closing frame is
    logged. With ``chunk_size=None`` every round is exactly one frame
    and the log degenerates to a round-granular one. A party whose
    config allows no reconnect (``max_reconnects == 0``) blanks each
    slot once the frame in it can no longer be asked for; lengths, and
    so every cursor, are the same either way.

    ``attempted_sends`` are the sequence numbers ever put on a wire
    (its size is the hello's send cursor; re-sending one is a replay) -
    after a recovery, every frame the crashed process had journaled.
    ``pending_frames`` keeps a computed whole round across an
    in-process retry of its journal appends: a failed append must not
    recompute a round whose step may consume rng.
    """

    inbound: list = field(default_factory=list)
    outbound: list = field(default_factory=list)
    in_rounds: list[int] = field(default_factory=list)
    out_rounds: list[int] = field(default_factory=list)
    attempted_sends: set[int] = field(default_factory=set)
    pending_frames: list | None = None

    def open_round_base(self) -> int:
        """Index in ``outbound`` of the round under production."""
        return self.out_rounds[-1] if self.out_rounds else 0


class Link:
    """Stop-and-wait, checksummed messaging state of one connection.

    Sequence cursors are seeded from the round log, so the link of a
    reconnect continues where the last one died.
    """

    def __init__(
        self,
        config: Any,
        stats: Any,
        rng: random.Random,
        send_seq: int = 0,
        recv_seq: int = 0,
    ):
        self.config = config
        self.stats = stats
        self.rng = rng
        self.send_seq = send_seq
        self.recv_seq = recv_seq
        self.fin_seen = False
        #: Server side: the welcome to repeat when a retransmitted
        #: hello arrives (the client missed our first welcome).
        self.welcome: tuple | None = None
        self._inbox: deque[tuple] = deque()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any) -> Steps:
        """Ship one data frame reliably; advances the send cursor."""
        seq = self.send_seq
        wire = serialization.encode(payload)
        retry = self.config.retry
        for attempt in range(retry.max_attempts):
            if attempt:
                self.stats.retransmits += 1
                yield Sleep(retry.delay_s(attempt - 1, self.rng))
            yield Send(seal("msg", seq, wire))
            self.stats.frames_sent += 1
            if (yield from self._wait_ack(seq)):
                self.send_seq = seq + 1
                return
        raise SessionError(
            f"frame {seq} unacknowledged after {retry.max_attempts} attempts"
        ) from _silence(self.config)

    def _wait_ack(self, seq: int) -> Steps:
        deadline = (yield NOW) + self.config.timeout_s
        while True:
            remaining = deadline - (yield NOW)
            if remaining <= 0:
                return False
            try:
                frame = unseal((yield Recv(remaining)))
            except TimeoutError:
                return False
            except ValueError:
                self.stats.checksum_failures += 1
                continue
            tag = frame[0]
            if tag == "ack" and len(frame) == 2:
                if frame[1] == seq:
                    return True
                continue  # stale ack from a replayed frame
            if tag == "nak" and len(frame) == 2:
                if frame[1] in (seq, -1):
                    return False  # peer asked for a retransmit
                continue
            if tag == "msg":
                # The peer only sends data after receiving everything
                # we sent: buffer the frame and treat it as an ack.
                self._inbox.append(frame)
                self.stats.implicit_acks += 1
                return True
            if tag == "fin":
                self.fin_seen = True
                return True  # a finished peer has everything
            if tag == "worker-lost" and len(frame) in (3, 4):
                raise _worker_lost(self.stats, frame)
            if tag == "hello" and self.welcome is not None:
                yield Send(self.welcome)
            continue  # unknown tag: ignore

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def recv(self) -> Steps:
        """One in-order data payload; acks, de-dups and naks en route."""
        config = self.config
        deadline = (yield NOW) + config.timeout_s * config.retry.max_attempts
        while True:
            if self._inbox:
                frame = self._inbox.popleft()
            else:
                remaining = deadline - (yield NOW)
                if remaining <= 0:
                    raise SessionError(
                        f"timed out waiting for frame {self.recv_seq}"
                    ) from _silence(config)
                try:
                    frame = unseal(
                        (yield Recv(min(remaining, config.timeout_s)))
                    )
                except TimeoutError:
                    continue
                except ValueError:
                    # Can't attribute a sequence number to a garbled
                    # frame; nak "whatever you last sent".
                    self.stats.checksum_failures += 1
                    self.stats.naks_sent += 1
                    yield Send(seal("nak", -1))
                    continue
            tag = frame[0]
            if tag == "fin":
                self.fin_seen = True
                continue
            if tag == "worker-lost" and len(frame) in (3, 4):
                raise _worker_lost(self.stats, frame)
            if tag == "hello" and self.welcome is not None:
                yield Send(self.welcome)
                continue
            if tag != "msg" or len(frame) != 3:
                continue  # stray ack/nak
            _, seq, wire = frame
            if not isinstance(seq, int) or not isinstance(wire, bytes):
                self.stats.malformed_frames += 1
                continue
            if seq == self.recv_seq:
                yield Send(seal("ack", seq))
                self.recv_seq += 1
                self.stats.frames_received += 1
                try:
                    return serialization.decode(wire)
                except ValueError as exc:
                    raise SessionError(
                        f"frame {seq} passed its checksum but failed to "
                        f"decode: {exc}"
                    ) from exc
            if seq < self.recv_seq:
                self.stats.duplicates_discarded += 1
                yield Send(seal("ack", seq))  # our earlier ack was lost
                continue
            raise SessionError(
                f"out-of-order frame {seq} (expected {self.recv_seq})"
            )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def fin(self, session_id: int) -> Steps:
        """Best-effort goodbye so the peer can stop waiting for acks."""
        try:
            yield Send(seal("fin", session_id))
        except _TRANSIENT:
            pass

    def _absorb(self, budget_s: float) -> Steps:
        """Absorb frames for ``budget_s``, waiting for the peer's fin.

        Re-acks retransmitted data frames meanwhile, so a peer whose
        final ack was lost can still complete. Returns True once a fin
        arrives, False when the peer is gone, None on timeout.
        """
        deadline = (yield NOW) + budget_s
        while True:
            remaining = deadline - (yield NOW)
            if remaining <= 0:
                return None
            try:
                frame = unseal((yield Recv(remaining)))
            except TimeoutError:
                return None
            except _TRANSIENT:
                return False  # peer already hung up: it is done
            except ValueError:
                continue
            if frame[0] == "fin":
                self.fin_seen = True
                return True
            if frame[0] == "msg" and len(frame) == 3:
                seq = frame[1]
                if isinstance(seq, int) and seq < self.recv_seq:
                    self.stats.duplicates_discarded += 1
                    try:
                        yield Send(seal("ack", seq))
                    except _TRANSIENT:
                        return False

    def fin_wait(self, session_id: int) -> Steps:
        """Send a fin and wait for the peer's fin echo.

        The final data ack and the fin itself can both be lost; a peer
        that never hears either keeps retransmitting into a vanished
        client and must eventually give up. So the finishing side
        lingers here: it re-sends the fin with backoff, re-acks any
        retransmitted data frame it sees meanwhile, and leaves once the
        peer echoes the fin (or closes, or the retry budget is spent).
        Returns whether the echo arrived.
        """
        retry = self.config.retry
        for attempt in range(retry.max_attempts):
            if attempt:
                yield Sleep(retry.delay_s(attempt - 1, self.rng))
            try:
                yield Send(seal("fin", session_id))
            except _TRANSIENT:
                return False
            echoed = yield from self._absorb(self.config.timeout_s)
            if echoed is not None:
                return echoed
        return False

    def await_fin(self, grace_s: float) -> Steps:
        """Absorb frames until a fin arrives or the grace period ends.

        Returns whether a fin was seen.
        """
        if not self.fin_seen:
            yield from self._absorb(grace_s)
        return self.fin_seen


def _silence(config: Any) -> TimeoutError:
    """The cause of a deadline the peer let pass: callers that sort
    failures by their root (the CLI's exit codes) see a timeout."""
    return TimeoutError(f"peer silent for {config.timeout_s}s per attempt")


def _worker_lost(stats: Any, fields: tuple) -> WorkerLost:
    """A routed front end lost our worker: typed and retryable."""
    stats.worker_lost += 1
    return WorkerLost(
        f"server lost the session's worker: {fields[2]!r}",
        retry_after_s=refusal_retry_hint_s(fields),
    )


class _Party:
    """What both roles share: the round log and how rounds cross a link.

    The log lives here, *outside* any single connection, which is what
    makes a mid-run disconnect recoverable. The rounds themselves come
    from the protocol's registered spec (:mod:`repro.protocols.spec`),
    walked by a party machine that persists across reconnects; rounds
    are computed once and their frames logged, so a replay re-ships
    identical bytes. With a journal every frame is durable before the
    session acts on it.
    """

    #: ``"sender"``/``"receiver"``, and the spec's letter for the
    #: rounds this party produces.
    role = emits = ""
    #: R counts a resumed round per replayed frame; S instead counts
    #: one resume per reconnect that was served from the log.
    _resumed_per_replay = False

    def __init__(
        self,
        protocol: str,
        make_state: Callable[[], Any],
        config: Any,
        rng: random.Random,
        stats: Any,
        recorder: Any,
        journal: Any,
        chunk_size: int | None,
    ):
        from ..protocols.spec import get_spec
        from .journal import JournalDir, SessionJournal

        self.protocol = protocol
        self.spec = get_spec(protocol)
        self.config = config
        #: Whether a later connection may ask for a frame again. A
        #: one-connection run ends at its first failed link, so it lets
        #: go of each outbound frame once acknowledged and of each
        #: inbound round once consumed (the slots stay: cursors are
        #: list lengths) - a streamed run holds O(chunk_size) of frames.
        self._replays = config.max_reconnects > 0
        self.rng = rng
        self.stats = stats
        self.recorder = recorder
        self.chunk_size = chunk_size
        self.log = RoundLog()
        self._make_state = make_state
        self._machine: Any = None
        #: S only: every round is served, only the goodbye is left.
        self._complete = False
        # ``journal`` is an open SessionJournal (recovery passes one)
        # or a JournalDir to open this session's file from once its id
        # is known.
        if not isinstance(journal, (JournalDir, SessionJournal, type(None))):
            raise TypeError(
                f"journal= takes a SessionJournal or JournalDir, "
                f"not {type(journal).__name__}"
            )
        lazy = isinstance(journal, JournalDir)
        self.journal = None if lazy else journal
        self._journal_dir = journal if lazy else None

    # The recovery suite reads these straight off a rebuilt session.
    _inbound = property(lambda self: self.log.inbound)
    _outbound = property(lambda self: self.log.outbound)
    _attempted_sends = property(lambda self: self.log.attempted_sends)

    def _adopt_journal(self, session_id: int) -> None:
        """Open this session's journal file once its id is known.

        Only relevant when constructed with a
        :class:`~repro.net.journal.JournalDir`: the file is named by
        the session id, which S learns from the first hello.
        """
        if self.journal is not None or self._journal_dir is None:
            return
        from .journal import JournalError

        journal = self._journal_dir.open_session(
            self.role, self.protocol, session_id
        )
        if any(r[0] in ("in", "out", "done") for r in journal.records):
            raise JournalError(
                f"{journal.path}: a previous run already journaled rounds "
                "for this session - recover it instead of restarting it"
            )
        if self.chunk_size is not None:
            journal.record_meta("chunk_size", self.chunk_size)
        self.journal = journal

    def _work(self, items: int | None) -> int | None:
        """The declared work of a machine step over ``items`` values
        and received items, in the agreed group (``None`` stays
        ``None``: unknown)."""
        if items is None:
            return None
        return items * _EXPS_PER_ITEM * int(self._modulus).bit_length() ** 3

    def _ensure_machine(self) -> Any:
        if self._machine is None:
            from ..protocols.parties import ReceiverMachine, SenderMachine

            machine = SenderMachine if self.emits == "S" else ReceiverMachine
            self._machine = machine.from_factory(
                self.spec, self._make_state, self.recorder
            )
        return self._machine

    def steps(self) -> Steps:
        """The whole run, reconnects included.

        Returns the sender party state for S, the protocol answer for
        R. Every :data:`OPEN` asks for the next connection - S accepts, R
        dials - and is re-issued after each transient failure, up to
        ``config.max_reconnects`` times. A ``TimeoutError`` thrown in
        (nobody connected) counts as a failed connection; a received
        round that violates its protocol ends the run, since a retry
        would replay it. However the run ends, the journal is closed
        before its outcome leaves.
        """
        from ..protocols.messages import ProtocolViolation

        failures = 0
        try:
            while True:
                try:
                    yield OPEN
                    result = yield from self._connection()
                    self.stats.finish()
                    return result
                except (HandshakeError, SessionAborted, ProtocolViolation):
                    raise
                except (SessionError, ValueError, *_TRANSIENT) as exc:
                    if self._complete:
                        self.stats.finish()
                        return self._machine.state
                    failures += 1
                    self.stats.reconnects += 1
                    _log.info(
                        "reconnect role=%s protocol=%s failures=%d error=%s",
                        self.role, self.protocol, failures, type(exc).__name__,
                    )
                    if failures > self.config.max_reconnects:
                        raise SessionError(
                            f"{self.role} session gave up after {failures} "
                            f"failed connections: {exc}"
                        ) from exc
                    if self.emits == "R":  # R dials, so R paces the redial
                        delay = self.config.retry.delay_s(failures - 1, self.rng)
                        hint = getattr(exc, "retry_after_s", None)
                        if hint is not None:
                            # A worker-lost notice names its respawn window;
                            # redialing earlier just burns a reconnect.
                            delay = max(delay, busy_backoff_s(hint, self.rng))
                        yield Sleep(delay)
        finally:
            # The journal is this party's own (it opened it): closed
            # however the run ends - a completed run already rotated it.
            if self.journal is not None:
                self.journal.close()

    def _walk(self, link: Link, machine: Any) -> Steps:
        """Walk the round schedule: produce our rounds, receive theirs."""
        produced = received = 0
        for rnd in self.spec.rounds:
            if rnd.source == self.emits:
                yield from self._produce_round(link, machine, rnd, produced)
                produced += 1
            else:
                yield from self._recv_round(link, machine, rnd, received)
                received += 1

    def _journal_complete(self) -> None:
        """Journal the completion, then rotate; tolerate a failed rename.

        The completion record is already durable, so a rotation failure
        loses nothing: the ``*.wal`` still classifies as complete and
        the next directory scan (or server hello) rotates it. The
        failure stays visible in the journal's ``rotate_failures``.
        """
        if self.journal is None:
            return
        from .journal import JournalError

        if not self.journal.complete:
            self.journal.record_complete()
        try:
            self.journal.rotate()
        except JournalError:
            pass

    def _append_outbound(self, frame: Any) -> None:
        """Cache and journal one outgoing frame before it can be sent."""
        outbound = self.log.outbound
        outbound.append(frame)
        if self.journal is not None:
            self.journal.record_outbound(
                len(outbound) - 1, serialization.encode(frame)
            )

    def _ship(self, link: Link, bound: int) -> Steps:
        """Send, in order, every cached frame below ``bound`` the peer
        has not acknowledged."""
        log, stats = self.log, self.stats
        while link.send_seq < bound:
            seq = link.send_seq
            if seq in log.attempted_sends:
                stats.replayed_frames += 1
                if self._resumed_per_replay:
                    stats.rounds_resumed += 1
            log.attempted_sends.add(seq)
            frame = log.outbound[seq]
            if serialization.is_chunk_frame(frame):
                stats.chunks_sent += 1
            crash_point("session.ship.frame")
            yield from link.send(frame)
            if not self._replays:
                log.outbound[seq] = None

    def _produce_round(
        self, link: Link, machine: Any, rnd: Any, index: int
    ) -> Steps:
        """Compute (if new), journal and ship outbound round ``index``."""
        log = self.log
        if index >= len(log.out_rounds):
            if (
                self.chunk_size is not None
                and rnd.chunkable
                and rnd.chunk_step is not None
            ):
                yield from self._produce_streaming(link, machine, rnd)
            else:
                yield from self._produce_whole(machine, rnd)
            log.out_rounds.append(len(log.outbound))
            log.pending_frames = None
            self.stats.rounds_computed += 1
        yield from self._ship(link, log.out_rounds[index])

    def _produce_whole(self, machine: Any, rnd: Any) -> Steps:
        """Compute a full round, then journal all its frames.

        Used for unchunked rounds and for chunked rounds without an
        incremental ``chunk_step`` - whose ``step`` may consume rng, so
        it must run exactly once per process (hence
        :attr:`RoundLog.pending_frames`).
        """
        log = self.log
        if log.pending_frames is None:
            log.pending_frames = yield Compute(
                lambda: round_frames(machine, rnd, self.chunk_size),
                self._work(machine.item_count()),
            )
        done = len(log.outbound) - log.open_round_base()
        for frame in log.pending_frames[done:]:
            self._append_outbound(frame)

    def _produce_streaming(self, link: Link, machine: Any, rnd: Any) -> Steps:
        """Stream a round: journal and ship it chunk by chunk.

        The chunk producer is rng-free and deterministic, so an
        in-process retry recomputes the stream and skips the frames
        already journaled. Chunk ``k+1`` is pulled ``Ahead`` before
        chunk ``k`` is journaled and shipped, so its crypto overlaps
        that acknowledged send - one chunk ahead, no further. A pull
        declares the stream's work: any one chunk may cost the whole
        round's, since a sorted part is encrypted whole before its
        first chunk can go. The recorder (if any) gets the round's
        produce/send/wall split for the pipeline-overlap report.
        """
        log = self.log
        already = len(log.outbound) - log.open_round_base()
        wall_start = yield NOW
        send_s = 0.0
        work = self._work(machine.item_count())
        stream = TimedIterator(machine.produce_chunks(rnd, self.chunk_size))
        yield Ahead(stream.pull, work)
        count = 0
        while (payload := (yield Compute(stream.take, 0))) is not DONE:
            crash_point("streaming.chunk.yield")
            yield Ahead(stream.pull, work)
            if count >= already:
                self._append_outbound(serialization.chunk_frame(count, payload))
                begin = yield NOW
                yield from self._ship(link, len(log.outbound))
                send_s += (yield NOW) - begin
            count += 1
        if already <= count:
            self._append_outbound(serialization.chunk_end_frame(count))
        if self.recorder is not None:
            self.recorder.add_pipeline(
                f"{machine.role}.{rnd.name}",
                produce_s=stream.elapsed_s,
                send_s=send_s,
                wall_s=(yield NOW) - wall_start,
                chunks=count,
            )

    def _recv_round(
        self, link: Link, machine: Any, rnd: Any, index: int
    ) -> Steps:
        """Receive (if incomplete) and consume inbound round ``index``.

        Frames a recovered process already journaled are folded first,
        so receiving continues mid-round at the first missing chunk;
        every new frame is journaled before the round can complete.
        """
        log = self.log
        if index < len(log.in_rounds):
            return
        start = log.in_rounds[-1] if log.in_rounds else 0
        while True:
            status, payload, _used = serialization.fold_chunk_frames(
                log.inbound[start:]
            )
            if status != "partial":
                break
            with machine.wait(rnd):
                frame = yield from link.recv()
            log.inbound.append(frame)
            is_chunk = serialization.is_chunk_frame(frame)
            if is_chunk:
                self.stats.chunks_received += 1
            if self.journal is not None:
                self.journal.record_inbound(
                    len(log.inbound) - 1, serialization.encode(frame)
                )
            crash_point("session.recv.frame")
            # Checked, acked and journaled: a round that declares an
            # eager step may start on this chunk while the rest of the
            # round is still coming (frames a recovered process folds
            # from its journal above are left to the round step).
            step = machine.eager(rnd, frame[2]) if is_chunk else None
            if step is not None:
                # It works on this chunk's segment, nothing else.
                segment = frame[2][2]
                yield Ahead(step, self._work(
                    len(segment) if isinstance(segment, list) else 0
                ))
        consume = (
            machine.consume if status == "single" else machine.consume_chunks
        )
        yield Compute(lambda: consume(rnd, payload), 0)  # it only decodes
        log.in_rounds.append(len(log.inbound))
        if not self._replays:
            log.inbound[start:] = [None] * (len(log.inbound) - start)


class SenderCore(_Party):
    """Party S's resumable run: accept, hand-shake, serve, survive.

    A reconnecting client announces its receive cursor and the session
    replays exactly the cached frames it is missing. :meth:`steps` is
    the whole run; build one with
    :func:`~repro.net.journal.open_session`.
    """

    role, emits = "sender", "S"

    def __init__(
        self,
        protocol: str,
        params: Any,
        make_sender: Callable[[], Any],
        config: Any,
        rng: random.Random,
        stats: Any,
        recorder: Any = None,
        journal: Any = None,
        chunk_size: int | None = None,
    ):
        super().__init__(
            protocol, make_sender, config, rng, stats, recorder, journal,
            chunk_size,
        )
        self.params = params
        self._session_id: int | None = None

    @property
    def _modulus(self) -> int:
        return self.params.to_wire()[0]

    def _connection(self) -> Steps:
        link, client_next_recv = yield from self.handshake()
        return (yield from self.script(link, client_next_recv))

    def _read_hello(self) -> Steps:
        """Wait for a valid hello, absorbing garbled or stray frames."""
        config = self.config
        deadline = (yield NOW) + config.timeout_s * config.retry.max_attempts
        while True:
            remaining = deadline - (yield NOW)
            if remaining <= 0:
                raise SessionError(
                    "no valid hello before the deadline"
                ) from _silence(config)
            try:
                fields = unseal(
                    (yield Recv(min(remaining, config.timeout_s)))
                )
            except TimeoutError:
                continue
            except ValueError:
                self.stats.checksum_failures += 1
                continue
            if is_hello(fields):
                return fields
            # Stray frame from the previous connection's tail: ignore.

    def handshake(self) -> Steps:
        """Answer a hello on the current link.

        Returns ``(link, client_next_recv)``: the :class:`Link` seeded
        with both cursors, and the first of our frames the client
        still lacks.
        """
        fields = yield from self._read_hello()
        _, version, protocol, session_id, _next_send, next_recv = fields
        if version != SESSION_VERSION:
            yield from self._reject(f"unsupported session version {version}")
            raise HandshakeError(
                f"client speaks session version {version}, "
                f"this server speaks {SESSION_VERSION}"
            )
        if protocol != self.protocol:
            yield from self._reject(
                f"protocol mismatch: serving {self.protocol}"
            )
            raise HandshakeError(
                f"client asked for {protocol!r}, serving {self.protocol!r}"
            )
        if self._session_id is None:
            self._session_id = session_id
            self._adopt_journal(session_id)
        elif session_id != self._session_id:
            yield from self._reject("unknown session id")
            raise SessionError(f"unknown session id {session_id}")
        log = self.log
        if not isinstance(next_recv, int) or not (
            0 <= next_recv <= len(log.outbound)
        ):
            raise SessionError(f"implausible client cursor {next_recv!r}")
        welcome = seal(
            "welcome",
            SESSION_VERSION,
            self.protocol,
            self._session_id,
            tuple(self.params.to_wire()),
            len(log.inbound),
        )
        yield Send(welcome)
        link = Link(
            self.config,
            self.stats,
            self.rng,
            send_seq=next_recv,
            recv_seq=len(log.inbound),
        )
        # A lost welcome comes back as a retransmitted hello: answer
        # with the same welcome instead of tearing the connection down.
        link.welcome = welcome
        return link, next_recv

    def _reject(self, reason: str) -> Steps:
        try:
            yield Send(seal("reject", SESSION_VERSION, reason))
        except _TRANSIENT:
            pass

    def script(self, link: Link, client_next_recv: int) -> Steps:
        """Run (or resume) the round schedule over a welcomed link."""
        machine = self._ensure_machine()
        # Every seeded draw (cipher keys, the Paillier keypair) happens
        # here, before anything runs beside anything. Building the party
        # hashes its table: a factory that knows the table's size
        # (ProtocolOffer.from_data's) declares it.
        yield Compute(
            machine.ensure_state,
            self._work(getattr(self._make_state, "size", None)),
        )
        if self.spec.warm is not None and not self.log.out_rounds:
            # Nothing orders S's own-set encryption after Y_R: it runs
            # while we wait for m1 (the round step finds it done).
            yield Ahead(machine.warm, self._work(machine.item_count()))
        if client_next_recv < len(self.log.outbound):
            # A reconnected client served from the cached frame log.
            self.stats.rounds_resumed += 1
        yield from self._walk(link, machine)
        self._complete = True
        self._journal_complete()
        if (yield from link.await_fin(self.config.fin_grace_s)):
            # Echo the fin so the lingering client can leave promptly.
            yield from link.fin(self._session_id)
        return machine.state


class ReceiverCore(_Party):
    """Party R's resumable run: connect, hand-shake, drive, reconnect.

    Like :class:`SenderCore`, R walks the protocol's registered round
    schedule with a persistent party machine and caches every round
    payload, so a reconnect resumes mid-schedule instead of restarting
    the run. :meth:`steps` is the whole run; build one with
    :func:`~repro.net.journal.open_session`.
    """

    role, emits = "receiver", "R"
    _resumed_per_replay = True

    def __init__(
        self,
        protocol: str,
        make_receiver: Callable[[Any], Any],
        config: Any,
        rng: random.Random,
        stats: Any,
        session_id: int | None = None,
        recorder: Any = None,
        journal: Any = None,
        chunk_size: int | None = None,
    ):
        def make_state() -> Any:
            return make_receiver(self._params_wire)

        # A factory that knows R's table size declares its set-up.
        make_state.size = getattr(make_receiver, "size", None)
        super().__init__(
            protocol, make_state, config, rng, stats, recorder, journal,
            chunk_size,
        )
        self.session_id = (
            session_id if session_id is not None else rng.getrandbits(63)
        )
        self._params_wire: tuple | None = None
        # R picks its session id up front, so the per-session file is
        # adopted immediately (unlike the sender's lazy path).
        self._adopt_journal(self.session_id)

    @property
    def _modulus(self) -> int:
        return self._params_wire[0]

    def _connection(self) -> Steps:
        link = yield from self.handshake()
        answer = yield from self.script(link)
        yield from link.fin_wait(self.session_id)
        return answer

    def _await_welcome(self, hello: tuple) -> Steps:
        """Send the hello; retransmit it until a welcome (or refusal)."""
        config = self.config
        for attempt in range(config.retry.max_attempts):
            if attempt:
                self.stats.retransmits += 1
            yield Send(hello)
            deadline = (yield NOW) + config.timeout_s
            while True:
                remaining = deadline - (yield NOW)
                if remaining <= 0:
                    break  # resend the hello
                try:
                    fields = unseal((yield Recv(remaining)))
                except TimeoutError:
                    break
                except ValueError:
                    self.stats.checksum_failures += 1
                    continue
                if fields[0] == "busy" and len(fields) in (3, 4):
                    # Optional 4th field: retry hint in integer ms.
                    raise ServerBusyError(
                        f"server refused the session: {fields[2]!r}",
                        retry_after_s=refusal_retry_hint_s(fields),
                    )
                if fields[0] == "worker-lost" and len(fields) in (3, 4):
                    # The shard front end answered for a dead worker:
                    # retryable - the supervisor is respawning it.
                    raise _worker_lost(self.stats, fields)
                if fields[0] == "reject" and len(fields) == 3:
                    raise HandshakeError(
                        f"server rejected session: {fields[2]!r}"
                    )
                if fields[0] == "welcome" and len(fields) == 6:
                    return fields
                # Stray ack/data from the previous connection: ignore.
        raise SessionError(
            f"no welcome after {config.retry.max_attempts} hellos"
        ) from _silence(config)

    def handshake(self) -> Steps:
        """Announce our cursors on the current link.

        Returns the :class:`Link` seeded from the server's welcome.
        """
        log = self.log
        next_recv = len(log.inbound)
        hello = seal(
            "hello",
            SESSION_VERSION,
            self.protocol,
            self.session_id,
            len(log.attempted_sends),
            next_recv,
        )
        fields = yield from self._await_welcome(hello)
        _, version, protocol, session_id, params_wire, server_next_recv = fields
        if version != SESSION_VERSION:
            raise HandshakeError(
                f"server speaks session version {version}, "
                f"this client speaks {SESSION_VERSION}"
            )
        if protocol != self.protocol:
            raise HandshakeError(
                f"server runs {protocol!r}, wanted {self.protocol!r}"
            )
        if session_id != self.session_id:
            raise SessionError(f"server answered for session {session_id}")
        if self._params_wire is None:
            self._params_wire = tuple(params_wire)
            if self.journal is not None:
                self.journal.record_meta("params", self._params_wire)
        elif tuple(params_wire) != self._params_wire:
            raise HandshakeError(
                "server changed public parameters across a resume"
            )
        if not isinstance(server_next_recv, int) or not (
            0 <= server_next_recv <= len(log.outbound)
        ):
            raise SessionError(
                f"implausible server cursor {server_next_recv!r}"
            )
        return Link(
            self.config,
            self.stats,
            self.rng,
            send_seq=server_next_recv,
            recv_seq=next_recv,
        )

    def script(self, link: Link) -> Steps:
        """Run (or resume) the round schedule; returns the answer."""
        machine = self._ensure_machine()
        yield Compute(
            machine.ensure_state,
            self._work(getattr(self._make_state, "size", None)),
        )
        yield from self._walk(link, machine)
        answer = yield Compute(
            machine.finish, self._work(machine.item_count())
        )
        self._journal_complete()
        return answer

"""Fault-tolerant protocol sessions over the framed transports.

The paper's Figure 1 delegates transport to "standard libraries or
packages for secure communication" and its Section 6 cost model
assumes a clean T1 link. The session layer supplies what a deployment
needs on top of that idealized channel: CRC-sealed frames, sequence
numbers with stop-and-wait retransmission, a versioned handshake
carrying both parties' cursors, and runs that resume - after a dropped
connection, from the round log; after a killed process, from the
journal (:mod:`repro.net.journal`) - at the first frame the peer
lacks, chunk-granular when ``chunk_size`` streams a round.

Those rules and the wire frames are written once, I/O-free, in
:mod:`repro.net.session_core`, and executed by one real-I/O shell,
:func:`repro.net.aio.run_async`, for both parties (the lock-step shell
of :mod:`repro.net.virtual` runs them on a virtual clock). This module
holds what is neither a rule nor a shell: the policy types
(:class:`RetryPolicy`, :class:`SessionConfig`,
:class:`ClientRetryPolicy`) and :class:`SessionStats`. Sessions are
built by :func:`repro.net.journal.open_session`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .session_core import (
    SESSION_VERSION,
    HandshakeError,
    ServerBusyError,
    SessionAborted,
    SessionError,
    WorkerLost,
    busy_backoff_s,
    refusal_retry_hint_s,
    seal,
    unseal,
)

__all__ = [
    "SESSION_VERSION",
    "SessionError",
    "HandshakeError",
    "ServerBusyError",
    "WorkerLost",
    "SessionAborted",
    "RetryPolicy",
    "ClientRetryPolicy",
    "SessionConfig",
    "SessionStats",
    "busy_backoff_s",
    "refusal_retry_hint_s",
    "seal",
    "unseal",
]


def _require(policy: Any, name: str, ok: bool, limit: str) -> None:
    """Refuse a policy field outside its range, by name."""
    if not ok:
        raise ValueError(
            f"{type(policy).__name__}.{name} must be {limit}, "
            f"got {getattr(policy, name)!r}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for retransmits and reconnects.

    Every delay it computes is non-negative: ``jitter`` is a fraction
    in [0, 1] taken off the capped exponential, whose delays are at
    least 0 and whose ``multiplier`` is positive.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        _require(self, "max_attempts", self.max_attempts >= 1, ">= 1")
        _require(self, "base_delay_s", self.base_delay_s >= 0, ">= 0")
        _require(self, "multiplier", self.multiplier > 0, "> 0")
        _require(self, "max_delay_s", self.max_delay_s >= 0, ">= 0")
        _require(self, "jitter", 0 <= self.jitter <= 1, "in [0, 1]")

    def _ceiling_s(self, attempt: int) -> float:
        """The capped exponential, before jitter."""
        return min(
            self.base_delay_s * self.multiplier ** attempt, self.max_delay_s
        )

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = self._ceiling_s(attempt)
        if self.jitter:
            raw *= 1.0 - self.jitter * rng.random()
        return raw


@dataclass(frozen=True)
class SessionConfig:
    """Deadlines and retry limits for one session.

    Two values are whole policies. ``timeout_s=math.inf`` is "no
    deadline": a silent but connected peer is waited for indefinitely
    (the asyncio shell's reads and the TCP dial carry no timeout).
    ``max_reconnects=0`` is "one connection": the first failed link
    ends the run, so nothing will ever be replayed and the core drops
    each frame once it is acknowledged or consumed. Together they are
    what ``session=None`` means at the facade.
    """

    timeout_s: float = 5.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_reconnects: int = 8
    fin_grace_s: float = 0.25


@dataclass(frozen=True)
class ClientRetryPolicy:
    """One client-side answer to every typed refusal a server can send.

    Where :class:`RetryPolicy` paces *frame* retransmits inside a live
    connection, this policy governs the whole client run: how many
    times to redial, how long each attempt may block, the total wall
    budget across attempts, and which typed failures are worth
    retrying at all. A busy refusal and a ``worker-lost`` notice both
    become "sleep (honoring the server's hint), then redial"
    (:meth:`redial`), bounded by the same attempt and deadline budgets.

    Attributes:
        max_attempts: total dial attempts (also the derived session
            config's ``max_reconnects``); the first attempt counts.
        attempt_timeout_s: per-attempt frame deadline (the derived
            session config's ``timeout_s``).
        total_deadline_s: wall budget across all attempts and backoff
            sleeps; ``None`` means unbounded.
        backoff: the jittered exponential backoff between attempts
            (also the derived session config's ``retry``).
        retry_busy: whether a typed busy refusal is retried.
        retry_worker_lost: whether a typed worker-lost notice is
            retried (reconnect-and-resume lands on the respawned
            worker holding the same journal).
    """

    max_attempts: int = 8
    attempt_timeout_s: float = 5.0
    total_deadline_s: float | None = None
    backoff: RetryPolicy = field(default_factory=RetryPolicy)
    retry_busy: bool = True
    retry_worker_lost: bool = True

    def __post_init__(self) -> None:
        _require(self, "max_attempts", self.max_attempts >= 1, ">= 1")
        _require(self, "attempt_timeout_s", self.attempt_timeout_s > 0, "> 0")
        _require(
            self, "total_deadline_s",
            self.total_deadline_s is None or self.total_deadline_s >= 0,
            ">= 0 or None",
        )

    #: ``parse`` key → (field name, converter); a name that is not a
    #: field here is one of ``backoff``'s. Module-level constants would
    #: do, but keeping it on the class documents the spec format next
    #: to the fields it maps onto.
    _PARSE_KEYS = {
        "attempts": ("max_attempts", int),
        "timeout": ("attempt_timeout_s", float),
        "deadline": ("total_deadline_s", float),
        "base": ("base_delay_s", float),
        "multiplier": ("multiplier", float),
        "max-delay": ("max_delay_s", float),
        "jitter": ("jitter", float),
        "busy": ("retry_busy", None),
        "worker-lost": ("retry_worker_lost", None),
    }

    @classmethod
    def parse(cls, spec: str) -> "ClientRetryPolicy":
        """Build a policy from a ``key=value,key=value`` CLI spec.

        Keys: ``attempts``, ``timeout``, ``deadline``, ``base``,
        ``multiplier``, ``max-delay``, ``jitter`` (numbers) and
        ``busy``, ``worker-lost`` (``yes``/``no``). Unknown keys,
        unparsable values and values out of range raise ``ValueError``.
        """
        kwargs: dict[str, Any] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"retry-policy item {part!r} is not key=value")
            try:
                field_name, conv = cls._PARSE_KEYS[key]
            except KeyError:
                raise ValueError(
                    f"unknown retry-policy key {key!r} "
                    f"(expected one of {sorted(cls._PARSE_KEYS)})"
                ) from None
            if conv is None:
                lowered = value.strip().lower()
                if lowered not in ("yes", "no", "true", "false", "1", "0"):
                    raise ValueError(
                        f"retry-policy {key}= wants yes/no, got {value!r}"
                    )
                kwargs[field_name] = lowered in ("yes", "true", "1")
            else:
                try:
                    kwargs[field_name] = conv(value)
                except ValueError:
                    raise ValueError(
                        f"retry-policy {key}= wants a number, got {value!r}"
                    ) from None
        own = {f.name for f in fields(cls)}
        shape = {k: kwargs.pop(k) for k in list(kwargs) if k not in own}
        return cls(backoff=RetryPolicy(**shape), **kwargs)

    def retryable(self, exc: BaseException) -> bool:
        """Whether this typed failure is worth another attempt."""
        if isinstance(exc, ServerBusyError):
            return self.retry_busy
        if isinstance(exc, WorkerLost):
            return self.retry_worker_lost
        return False

    def backoff_s(
        self,
        attempt: int,
        rng: random.Random,
        hint_s: float | None = None,
    ) -> float:
        """Sleep before retry ``attempt`` (0-based), honoring hints.

        With a server hint the sleep never lands *before* the hint
        (that would redial inside the very window the server declared
        itself unavailable for) and jitter stretches it upward to
        de-synchronize a refused herd. Without one it is the ordinary
        jittered exponential.
        """
        if hint_s is None:
            return self.backoff.delay_s(attempt, rng)
        floor = max(self.backoff._ceiling_s(attempt), hint_s)
        return floor * (1.0 + self.backoff.jitter * rng.random())

    def session_config(self, **overrides: Any) -> SessionConfig:
        """The :class:`SessionConfig` this policy implies.

        The per-attempt timeout becomes the frame deadline and
        ``max_attempts`` bounds the session's reconnect loop, so the
        in-session reconnect behavior and the out-of-session redial
        behavior answer to the same knobs.
        """
        kwargs: dict[str, Any] = dict(
            timeout_s=self.attempt_timeout_s,
            retry=self.backoff,
            max_reconnects=self.max_attempts,
        )
        kwargs.update(overrides)
        return SessionConfig(**kwargs)

    def redial(
        self,
        attempt: Callable[[], Any],
        rng: random.Random,
        on_retry: Callable[[SessionError, float, int], None] | None = None,
    ) -> tuple[Any, int, int]:
        """Call ``attempt`` until it succeeds or this policy gives up.

        A :meth:`retryable` failure is slept out (:meth:`backoff_s`,
        honoring the server's hint) and redialed, within
        ``max_attempts`` and ``total_deadline_s``; anything else, and
        the failure that exhausts a budget, propagates. ``on_retry``
        is told ``(failure, delay_s, attempt_number)`` before each
        sleep. Returns ``(result, retries, busy_retries)`` - how many
        failures were waited out, and how many of those were busy
        refusals.
        """
        deadline = (
            time.monotonic() + self.total_deadline_s
            if self.total_deadline_s is not None
            else None
        )
        busy_retries = 0
        for attempt_no in itertools.count(1):
            try:
                return attempt(), attempt_no - 1, busy_retries
            except SessionError as exc:
                if not self.retryable(exc) or attempt_no >= self.max_attempts:
                    raise
                delay = self.backoff_s(
                    attempt_no - 1,
                    rng,
                    hint_s=getattr(exc, "retry_after_s", None),
                )
                if deadline is not None and time.monotonic() + delay > deadline:
                    raise
                busy_retries += isinstance(exc, ServerBusyError)
                if on_retry is not None:
                    on_retry(exc, delay, attempt_no)
                time.sleep(delay)


@dataclass
class SessionStats:
    """Observability counters and elapsed time for one session."""

    protocol: str = ""
    frames_sent: int = 0
    frames_received: int = 0
    retransmits: int = 0
    implicit_acks: int = 0
    duplicates_discarded: int = 0
    checksum_failures: int = 0
    malformed_frames: int = 0
    naks_sent: int = 0
    reconnects: int = 0
    worker_lost: int = 0
    replayed_frames: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    rounds_computed: int = 0
    rounds_resumed: int = 0
    rounds_recovered: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    finished_at: float | None = None

    def finish(self) -> None:
        """Freeze the elapsed-time clock."""
        self.finished_at = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.perf_counter()
        )
        return end - self.started_at

    def as_dict(self) -> dict[str, Any]:
        """Flat mapping for JSON benchmark records.

        Every counter in declaration order, then ``elapsed_s`` in
        place of the two clock readings.
        """
        flat = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("started_at", "finished_at")
        }
        flat["elapsed_s"] = self.elapsed_s
        return flat

"""Operation counting and per-phase metrics, for the Section 6 model.

The cost model predicts *how many* encryptions and hashes each protocol
performs; these wrappers count the actual calls in a live run so the
benchmarks (and tests) can compare prediction against reality exactly,
independent of machine speed.

:class:`MetricsRecorder` adds the wall-clock dimension: named phase
timers plus modular-exponentiation counters that the TCP drivers, the
resumable sessions and the CLI all report as one JSON document, so the
Section 6 predicted-vs-measured comparison is a first-class output of
every run rather than a bench-only artifact. Wire an engine's
exponentiations in by passing :meth:`MetricsRecorder.count_modexp` as
the ``on_modexp`` callback of
:func:`repro.crypto.engine.create_engine`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from ..crypto.commutative import PowerCipher
from ..crypto.engine import CryptoEngine, MeteredEngine, SerialEngine
from ..crypto.ext_cipher import BlockExtCipher
from ..crypto.groups import QRGroup
from ..crypto.hashing import DomainHash, TryIncrementHash, Value
from ..protocols.base import ProtocolSuite, _suite_rngs

__all__ = [
    "OperationCounter",
    "CountingSuite",
    "counting_suite",
    "PhaseStats",
    "PipelineStats",
    "MetricsRecorder",
]


@dataclass
class OperationCounter:
    """Tallies of primitive operations observed during a run."""

    encryptions: int = 0
    hashes: int = 0
    k_encryptions: int = 0

    def reset(self) -> None:
        """Zero all tallies (reuse the counter across runs)."""
        self.encryptions = 0
        self.hashes = 0
        self.k_encryptions = 0


class _CountingHash(DomainHash):
    """Delegating hash that counts every evaluation.

    Each party hashes its own set, so a value in both sets is hashed
    twice - exactly how the cost model's ``C_h (n_S + n_R)`` term
    counts it.
    """

    def __init__(self, inner: DomainHash, counter: OperationCounter):
        super().__init__(inner.group, inner.label)
        self._inner = inner
        self._counter = counter

    def hash_value(self, value: Value) -> int:
        self._counter.hashes += 1
        return self._inner.hash_value(value)


class _CountingExtCipher(BlockExtCipher):
    def __init__(self, group: QRGroup, counter: OperationCounter):
        super().__init__(group)
        self._counter = counter

    def encrypt(self, kappa: int, ext: bytes):
        self._counter.k_encryptions += 1
        return super().encrypt(kappa, ext)

    def decrypt(self, kappa: int, ciphertext):
        self._counter.k_encryptions += 1
        return super().decrypt(kappa, ciphertext)


@dataclass
class CountingSuite:
    """A protocol suite plus the counter wired into its primitives."""

    suite: ProtocolSuite
    counter: OperationCounter


def counting_suite(
    bits: int = 128,
    seed: int | None = 0,
    engine: CryptoEngine | None = None,
) -> CountingSuite:
    """Build a suite whose cipher/hash/ext-cipher count their calls.

    Exponentiations are counted where :class:`MetricsRecorder` counts
    them - by a :class:`~repro.crypto.engine.MeteredEngine` under a
    plain cipher, every protocol exponentiation being an engine batch -
    so the two cannot disagree; the hash and the ext cipher, which no
    engine sees, keep their counting wrappers.  ``engine`` selects the
    batch execution strategy (parallel engines produce identical
    counts - the counter tallies work, not workers).
    """
    group = QRGroup.for_bits(bits)
    counter = OperationCounter()

    def count(n: int) -> None:
        counter.encryptions += n

    rng_r, rng_s = _suite_rngs(seed)
    suite = ProtocolSuite(
        group=group,
        hash=_CountingHash(TryIncrementHash(group), counter),
        cipher=PowerCipher(
            group, engine=MeteredEngine(engine or SerialEngine(), count)
        ),
        ext_cipher=_CountingExtCipher(group, counter),
        rng_r=rng_r,
        rng_s=rng_s,
    )
    return CountingSuite(suite=suite, counter=counter)


# ----------------------------------------------------------------------
# Per-phase wall-clock + modexp metrics
# ----------------------------------------------------------------------
@dataclass
class PhaseStats:
    """Accumulated observations for one named phase."""

    name: str
    wall_s: float = 0.0
    modexp: int = 0
    calls: int = 0

    def as_dict(self) -> dict[str, Any]:
        """Flat mapping for the JSON report."""
        return {
            "wall_s": self.wall_s,
            "modexp": self.modexp,
            "calls": self.calls,
        }


@dataclass
class PipelineStats:
    """Producer/consumer overlap observations for one streamed round.

    The streaming transports (:mod:`repro.net.tcp` with a
    ``chunk_size``) time chunk *production* (crypto, pulled one chunk
    ahead as an ``Ahead`` step) and chunk *sends* (wire I/O, on the
    driving thread) separately from the round's wall clock. When
    the lookahead works, ``produce_s + send_s > wall_s`` - the excess is
    the overlap the pipeline bought.
    """

    name: str
    produce_s: float = 0.0
    send_s: float = 0.0
    wall_s: float = 0.0
    chunks: int = 0

    @property
    def overlap_s(self) -> float:
        """Wall time saved by overlapping production with sending."""
        return max(0.0, self.produce_s + self.send_s - self.wall_s)

    @property
    def overlap_ratio(self) -> float:
        """``overlap_s`` as a fraction of the round's wall time."""
        return self.overlap_s / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Flat mapping for the JSON report."""
        return {
            "produce_s": self.produce_s,
            "send_s": self.send_s,
            "wall_s": self.wall_s,
            "chunks": self.chunks,
            "overlap_s": self.overlap_s,
            "overlap_ratio": self.overlap_ratio,
        }


class MetricsRecorder:
    """Named phase timers plus modexp counters, reported as JSON.

    Usage::

        recorder = MetricsRecorder()
        engine = create_engine(4, on_modexp=recorder.count_modexp)
        with recorder.phase("r.round1"):
            m1 = receiver.round1()
        report = recorder.report()   # json.dumps-able

    Phases may nest; time and exponentiations are attributed to the
    innermost open phase (the outer phase's ``wall_s`` still covers the
    whole span, as wall time does). Exponentiations counted outside any
    phase land in ``unattributed_modexp``. "Open" is per thread - a
    party step a shell runs in the background opens its phase beside
    whatever the session thread is waiting in - while ``phases`` and
    the totals are the one shared report.
    """

    def __init__(self, engine: CryptoEngine | None = None):
        self.phases: dict[str, PhaseStats] = {}
        self.pipelines: dict[str, PipelineStats] = {}
        self.unattributed_modexp = 0
        self.sessions: list[dict[str, Any]] = []
        self._open = threading.local()
        self._lock = threading.Lock()  # the shared counters' updates
        self._engine = engine
        self._started_at = time.perf_counter()

    def _stats(self, name: str) -> PhaseStats:
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats(name=name)
        return stats

    def _stack(self) -> list[PhaseStats]:
        """The calling thread's open phases, outermost first."""
        return self._open.__dict__.setdefault("stack", [])

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Time one phase; re-entering a name accumulates into it."""
        stack = self._stack()
        with self._lock:
            stats = self._stats(name)
            stats.calls += 1
        stack.append(stats)
        start = time.perf_counter()
        try:
            yield stats
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                stats.wall_s += elapsed

    def count_modexp(self, n: int = 1) -> None:
        """Attribute ``n`` modular exponentiations to the open phase."""
        stack = self._stack()
        with self._lock:
            if stack:
                stack[-1].modexp += n
            else:
                self.unattributed_modexp += n

    @property
    def total_modexp(self) -> int:
        """Every exponentiation observed, in or out of a phase."""
        return self.unattributed_modexp + sum(
            s.modexp for s in self.phases.values()
        )

    def attach_engine(self, engine: CryptoEngine) -> None:
        """Record which engine ran the batches (for the report)."""
        self._engine = engine

    def add_pipeline(
        self,
        name: str,
        produce_s: float,
        send_s: float,
        wall_s: float,
        chunks: int,
    ) -> None:
        """Fold one streamed round's overlap timings into the report.

        Re-entering a name (e.g. the same round across session
        reconnects) accumulates into it, like :meth:`phase` does.
        """
        stats = self.pipelines.get(name)
        if stats is None:
            stats = self.pipelines[name] = PipelineStats(name=name)
        stats.produce_s += produce_s
        stats.send_s += send_s
        stats.wall_s += wall_s
        stats.chunks += chunks

    def add_session(self, stats: Any) -> None:
        """Fold one finished session's counters into the report.

        Accepts a :class:`~repro.net.session.SessionStats` (its
        ``as_dict`` is taken) or an already-flat mapping - the
        supervised server (:mod:`repro.net.server`) reports one entry
        per hosted session.
        """
        as_dict = getattr(stats, "as_dict", None)
        self.sessions.append(dict(as_dict() if as_dict else stats))

    def report(self) -> dict[str, Any]:
        """The JSON document: engine info, totals, and per-phase stats."""
        out: dict[str, Any] = {
            "engine": (
                self._engine.describe()
                if self._engine is not None
                else {"engine": "unknown", "workers": 1}
            ),
            "total_wall_s": time.perf_counter() - self._started_at,
            "total_modexp": self.total_modexp,
            "unattributed_modexp": self.unattributed_modexp,
            "phases": {
                name: stats.as_dict() for name, stats in self.phases.items()
            },
        }
        if self.pipelines:
            out["pipeline"] = {
                name: stats.as_dict()
                for name, stats in self.pipelines.items()
            }
        if self.sessions:
            out["sessions"] = list(self.sessions)
        return out

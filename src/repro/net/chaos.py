"""Deterministic chaos simulation: schedules and the drivers that run them.

PR 1 gave the repo seeded *network* faults (:mod:`repro.net.faults`),
:mod:`repro.net.diskfaults` adds seeded *disk* faults,
:mod:`repro.net.crashpoints` a third failure axis - process crashes at
named code points. This module composes the three and drives whole
protocol runs under the composition, FoundationDB-style:

* **schedules** - a :class:`ChaosSchedule` bundles one seed's worth of
  chaos: a network fault plan per direction, a disk fault plan per
  party, a crash point per party, and a restart budget.
  :meth:`ChaosSchedule.generate` derives all of it from a single
  integer, so a failing schedule is reproduced from its printed seed.
* **the driver** - :func:`run_schedule` executes any registered
  protocol under a schedule on the virtual-time shell
  (:class:`repro.net.virtual.LockStep`): both parties run journaled
  sessions on one thread over in-memory links, each restarted through
  the product's own restart rule
  (:func:`repro.net.journal.open_session`) after every simulated
  crash or journal failure, up to the restart budget. No socket, no
  thread, no sleep: a schedule costs milliseconds and the same seed
  gives the same run, counters included.
* **the worker-crash axis** - :func:`run_worker_crash_schedule` kills
  *real* forked shard workers under a live server; that one stays on
  real processes, sockets and time on purpose, its herd of clients the
  :func:`~repro.net.tcp.connect_resumable_receiver` every user runs,
  one thread (and one event loop) per session.

The invariant the driver checks is the repo's durability contract:
**every run ends in the correct answer or a typed, clean failure** -
never a wrong answer, never a hang, never a journal whose content
silently diverges from the reference wires. A completed run's journals
are compared byte-for-byte against a clean in-memory reference run of
the same seeds (:class:`ChaosResult.journals_ok`), which is what rules
out undetected corruption, not just wrong answers.
"""

from __future__ import annotations

import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..protocols.parties import PublicParams
from ..protocols.spec import get_spec, run_pair
from . import serialization
from .crashpoints import (
    CRASH_POINTS,
    CrashHook,
    RecordingHook,
    SimulatedCrash,
    crash_point,
    hooked,
)
from .diskfaults import DiskFaultPlan, FaultyJournalIO
from .faults import FaultInjector, FaultPlan
from .journal import (
    DONE_SUFFIX,
    WAL_SUFFIX,
    JournalDir,
    JournalError,
    open_session,
    peek_state,
)
from .server import ProtocolOffer
from .session import (
    ClientRetryPolicy,
    RetryPolicy,
    ServerBusyError,
    SessionConfig,
    SessionError,
    WorkerLost,
)
from .shard import ShardedProtocolServer
from .tcp import connect_resumable_receiver
from .virtual import LockStep, Party

__all__ = [
    "SimulatedCrash",
    "crash_point",
    "hooked",
    "CrashHook",
    "RecordingHook",
    "CRASH_POINTS",
    "SCHEDULABLE_POINTS",
    "ChaosSchedule",
    "PartyOutcome",
    "ChaosResult",
    "run_schedule",
    "WorkerCrashSchedule",
    "WorkerCrashOutcome",
    "WorkerCrashResult",
    "run_worker_crash_schedule",
]

#: Crash points :meth:`ChaosSchedule.generate` schedules. The server
#: supervisor point is exercised by the server's own tests, not by the
#: in-process two-party driver.
SCHEDULABLE_POINTS: tuple[str, ...] = tuple(
    name for name in CRASH_POINTS if not name.startswith("server.")
)


#: Default inputs per registered protocol for :func:`run_schedule`.
_DEFAULT_DATA: dict[str, tuple[Any, Any]] = {
    "intersection": (["a", "b", "c", "d"], ["b", "c", "e"]),
    "intersection-size": (["a", "b", "c", "d"], ["c", "d", "e"]),
    "equijoin": (
        ["a", "b", "c"],
        {"b": b"rec-b", "c": b"rec-c", "z": b"rec-z"},
    ),
    "equijoin-size": (["a", "a", "b", "c"], ["a", "b", "b", "e"]),
    "equijoin-sum": (["a", "b", "c"], {"b": 10, "c": 32, "z": 999}),
}

#: Protocols :meth:`ChaosSchedule.generate` draws from.
_PROTOCOLS: tuple[str, ...] = tuple(sorted(_DEFAULT_DATA))


def _net_plan(rng: random.Random) -> FaultPlan | None:
    """Maybe one direction's network fault plan, from the schedule rng."""
    if rng.random() < 0.45:
        return None
    rates = {
        "drop_rate": 0.0,
        "corrupt_rate": 0.0,
        "delay_rate": 0.0,
        "disconnect_rate": 0.0,
    }
    for kind in rng.sample(sorted(rates), rng.choice((1, 1, 2))):
        rates[kind] = round(rng.uniform(0.15, 0.35), 3)
    return FaultPlan(
        seed=rng.getrandbits(32),
        delay_s=0.002,
        max_faults=rng.choice((1, 2, 3)),
        skip=rng.choice((0, 0, 1, 2, 4)),
        **rates,
    )


def _disk_plan(rng: random.Random) -> DiskFaultPlan | None:
    """Maybe one party's disk fault plan, from the schedule rng."""
    if rng.random() < 0.55:
        return None
    rates = {
        "fsync_error_rate": 0.0,
        "torn_write_rate": 0.0,
        "enospc_rate": 0.0,
        "rename_error_rate": 0.0,
        "dir_fsync_error_rate": 0.0,
    }
    for kind in rng.sample(sorted(rates), rng.choice((1, 1, 2))):
        rates[kind] = round(rng.uniform(0.3, 0.8), 3)
    if rates["torn_write_rate"] + rates["enospc_rate"] > 1.0:
        rates["enospc_rate"] = round(1.0 - rates["torn_write_rate"], 3)
    return DiskFaultPlan(
        seed=rng.getrandbits(32),
        max_faults=rng.choice((1, 1, 2)),
        skip=rng.choice((0, 1, 2, 4, 8)),
        **rates,
    )


def _crash_plan(rng: random.Random) -> tuple[str, int] | None:
    """Maybe one party's scheduled crash, from the schedule rng."""
    if rng.random() < 0.6:
        return None
    return (rng.choice(SCHEDULABLE_POINTS), rng.choice((1, 1, 2, 3, 4)))


@dataclass(frozen=True)
class ChaosSchedule:
    """One seed's worth of composed chaos for a two-party run.

    Any field may be ``None`` (that axis stays clean); a default
    schedule is a clean run. ``max_restarts`` bounds how many times the
    driver's supervisor loop resurrects each party after a simulated
    crash or a journal failure before giving up with that failure.
    """

    seed: int = 0
    protocol: str | None = None
    chunk_size: int | None = None
    client_net: FaultPlan | None = None
    server_net: FaultPlan | None = None
    sender_disk: DiskFaultPlan | None = None
    receiver_disk: DiskFaultPlan | None = None
    sender_crash: tuple[str, int] | None = None
    receiver_crash: tuple[str, int] | None = None
    max_restarts: int = 4

    @classmethod
    def generate(cls, seed: int, protocol: str | None = None) -> "ChaosSchedule":
        """Derive a full composed schedule deterministically from ``seed``.

        Each axis (per-direction network faults, per-party disk faults,
        per-party crash points, chunked vs whole-round wire format) is
        drawn independently, so the population covers clean runs,
        single-axis failures and every pairwise composition. The same
        seed always yields the same schedule - the reproduction handle
        the chaos suite prints on failure.
        """
        rng = random.Random(f"repro-chaos-{seed}")
        return cls(
            seed=seed,
            protocol=protocol if protocol is not None else rng.choice(_PROTOCOLS),
            chunk_size=rng.choice((None, None, None, 1, 2)),
            client_net=_net_plan(rng),
            server_net=_net_plan(rng),
            sender_disk=_disk_plan(rng),
            receiver_disk=_disk_plan(rng),
            sender_crash=_crash_plan(rng),
            receiver_crash=_crash_plan(rng),
            max_restarts=4,
        )


@dataclass
class PartyOutcome:
    """How one party's supervised run ended.

    ``kind`` is ``"answer"`` (ran to completion; ``value`` holds the
    receiver's protocol answer, or the sender's party state),
    ``"error"`` (a typed, clean failure - the invariant's acceptable
    negative outcome), or ``"violation"`` (an invariant breach: an
    untyped exception escaped, or the run could not end -
    :class:`~repro.net.virtual.Stuck`, the exact form of a hang).
    """

    kind: str
    value: Any = None
    error: BaseException | None = None
    restarts: int = 0

    @property
    def clean(self) -> bool:
        """Whether this outcome satisfies the durability invariant."""
        return self.kind in ("answer", "error")


@dataclass
class ChaosResult:
    """Everything :func:`run_schedule` observed for one schedule."""

    schedule: ChaosSchedule
    protocol: str
    expected: Any
    receiver: PartyOutcome
    sender: PartyOutcome
    journals_ok: bool = True
    notes: list[str] = field(default_factory=list)
    net_stats: dict[str, Any] = field(default_factory=dict)
    disk_stats: dict[str, Any] = field(default_factory=dict)
    crash_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def answer(self) -> Any:
        """The receiver's answer (``None`` unless it completed)."""
        return self.receiver.value if self.receiver.kind == "answer" else None

    @property
    def ok(self) -> bool:
        """The durability invariant: correct answer or typed failure.

        False on a wrong answer, an untyped escape, a hang, or a
        completed journal whose bytes diverge from the reference run.
        """
        if not (self.receiver.clean and self.sender.clean):
            return False
        if not self.journals_ok:
            return False
        if self.receiver.kind == "answer" and self.receiver.value != self.expected:
            return False
        return True

    def describe(self) -> str:
        """A failure-report line; the seed reproduces the schedule."""
        parts = [
            f"chaos seed {self.schedule.seed} ({self.protocol}, "
            f"chunk_size={self.schedule.chunk_size}):",
            f"receiver={self.receiver.kind}"
            + (f" ({self.receiver.error!r})" if self.receiver.error else "")
            + f" after {self.receiver.restarts} restarts,",
            f"sender={self.sender.kind}"
            + (f" ({self.sender.error!r})" if self.sender.error else "")
            + f" after {self.sender.restarts} restarts",
        ]
        if self.receiver.kind == "answer" and self.receiver.value != self.expected:
            parts.append(
                f"- WRONG ANSWER {self.receiver.value!r} != {self.expected!r}"
            )
        for note in self.notes:
            parts.append(f"- {note}")
        parts.append(
            "- replay: run_schedule(ChaosSchedule.generate("
            f"{self.schedule.seed}))"
        )
        return " ".join(parts)

    def as_dict(self) -> dict[str, Any]:
        """Flat mapping for JSON benchmark records.

        Errors appear as their type (:meth:`describe` has the message,
        which embeds the run's journal directory), so the same schedule
        gives the same mapping on every run.
        """
        return {
            "seed": self.schedule.seed,
            "protocol": self.protocol,
            "chunk_size": self.schedule.chunk_size,
            "ok": self.ok,
            "receiver": self.receiver.kind,
            "sender": self.sender.kind,
            "receiver_restarts": self.receiver.restarts,
            "sender_restarts": self.sender.restarts,
            "receiver_error": self.receiver.error
            and type(self.receiver.error).__name__,
            "sender_error": self.sender.error
            and type(self.sender.error).__name__,
            "journals_ok": self.journals_ok,
            "net": self.net_stats,
            "disk": self.disk_stats,
            "crash": self.crash_stats,
        }


#: A death the party's supervisor answers with a restart.
_RESTARTABLE = (SimulatedCrash, JournalError)


def _finished_journal(jdir: JournalDir, role: str, protocol: str) -> Any:
    """The state of ``role``'s completed journal (rotated, or complete
    with its rotation lost), or ``None`` - what a finished party's
    bytes are compared against the reference through."""
    for path in sorted(jdir.path.glob(f"{role}-{protocol}-*")):
        if path.suffix in (WAL_SUFFIX, DONE_SUFFIX):
            state = peek_state(path)
            if state is not None and state.complete:
                return state
    return None


def run_schedule(
    schedule: ChaosSchedule,
    protocol: str | None = None,
    params: Any = None,
    data: tuple[Any, Any] | None = None,
    journal_root: str | Path | None = None,
) -> ChaosResult:
    """Execute one protocol run under a chaos schedule, in virtual time.

    Both parties run journaled resumable sessions as the two parties
    of a :class:`~repro.net.virtual.LockStep` shell. Each is restarted
    - through :func:`~repro.net.journal.open_session`, the rule the
    resumable TCP helpers and the supervised server restart by - after
    every :class:`SimulatedCrash` or
    :class:`~repro.net.journal.JournalError`, up to
    ``schedule.max_restarts`` resurrections. S restarts through the
    oldest-first scan (no ``session_id``), not - as every TCP host of S
    does (:func:`~repro.net.server.host_session` and the
    :class:`~repro.net.server.ProtocolServer`) - by the session id of
    the client's next hello: this S hosts one session per schedule, so
    both rules pick the same journal. Network faults (their
    delays bound to the virtual clock), disk faults and crash hooks all
    come from the schedule and all randomness derives from
    ``schedule.seed``, so a run replays exactly: same outcome, same
    counters. Sessions run under the default :class:`SessionConfig` -
    virtual seconds are free.

    The expected answer *and* the byte-exact reference wires come from
    a clean in-memory run of the same machine seeds; when a party
    completes an unchunked run, its journal is compared byte-for-byte
    against those wires (``journals_ok``) - the "no undetected corrupt
    journal" half of the invariant.

    Args:
        schedule: the composed fault schedule (see
            :meth:`ChaosSchedule.generate`).
        protocol: registered protocol name; defaults to
            ``schedule.protocol``.
        params: public parameters (defaults to 128-bit, the test size).
        data: optional ``(receiver values, sender values)`` override.
        journal_root: directory for the two parties' journal dirs; a
            temporary directory (cleaned up afterwards) when omitted.

    Returns:
        A :class:`ChaosResult`; assert on ``result.ok`` and print
        ``result.describe()`` on failure.
    """
    protocol = protocol if protocol is not None else schedule.protocol
    if protocol is None:
        raise ValueError(
            "no protocol: pass protocol= or use ChaosSchedule.generate"
        )
    spec = get_spec(protocol)
    if data is not None:
        v_r, v_s = data
    elif protocol in _DEFAULT_DATA:
        v_r, v_s = _DEFAULT_DATA[protocol]
    else:
        raise ValueError(
            f"no default data for {protocol!r}; pass data=(v_r, v_s)"
        )
    if params is None:
        params = PublicParams.for_bits(128)

    s_seed = f"chaos-s-{schedule.seed}"
    r_seed = f"chaos-r-{schedule.seed}"

    def make_sender() -> Any:
        return spec.make_sender(v_s, params, random.Random(s_seed))

    def make_receiver(params_wire: Any) -> Any:
        return spec.make_receiver(
            v_r, PublicParams.from_wire(params_wire), random.Random(r_seed)
        )

    # Clean reference run: the expected answer plus the byte-exact
    # wires every completed journal must reproduce.
    ref_receiver, _, wires = run_pair(
        spec, v_r, v_s, params, random.Random(r_seed), random.Random(s_seed)
    )
    expected = ref_receiver.finish()

    config = SessionConfig()
    shell = LockStep(config.timeout_s * config.retry.max_attempts)

    cleanup = None
    if journal_root is None:
        cleanup = tempfile.TemporaryDirectory(
            prefix="repro-chaos-", ignore_cleanup_errors=True
        )
        journal_root = cleanup.name
    root = Path(journal_root)

    net, disk, hooks, dirs, parties = {}, {}, {}, {}, {}

    def life(role: str) -> Any:
        """One process life of ``role``: restart rule, then the run."""
        # The same session seed every life, as a restarted process
        # has: a session restarted from a stub draws its old id again.
        core, answer = open_session(
            role, protocol,
            make_sender if role == "sender" else make_receiver,
            params=params, journal_dir=dirs[role], config=config,
            rng=random.Random(f"chaos-{role}-{schedule.seed}"),
            chunk_size=schedule.chunk_size,
        )
        if answer is not None:
            return answer
        return (yield from core.steps())

    for role, side, net_plan, disk_plan, crash in (
        ("sender", "server", schedule.server_net, schedule.sender_disk,
         schedule.sender_crash),
        ("receiver", "client", schedule.client_net, schedule.receiver_disk,
         schedule.receiver_crash),
    ):
        net[side] = net_plan and FaultInjector(net_plan, sleep=shell.sleep)
        disk[role] = disk_plan and FaultyJournalIO(disk_plan)
        hooks[role] = crash and CrashHook(*crash)
        dirs[role] = JournalDir(root / role, io=disk[role])
        parties[role] = Party(
            role, lambda role=role: life(role), dials=role == "receiver",
            wrap=net[side] and net[side].wrap, hook=hooks[role],
            restart_on=_RESTARTABLE, max_restarts=schedule.max_restarts,
        )
    shell.run(*parties.values())

    outcomes = {}
    for role, party in parties.items():
        if party.error is None:
            kind = "answer"
        elif isinstance(party.error, (SessionError, *_RESTARTABLE)):
            kind = "error"
        else:
            kind = "violation"
        outcomes[role] = PartyOutcome(
            kind, party.result, party.error, party.restarts
        )

    notes: list[str] = []
    if schedule.chunk_size is None:
        for role, letter in (("sender", "S"), ("receiver", "R")):
            if outcomes[role].kind != "answer":
                continue
            state = _finished_journal(dirs[role], role, protocol)
            if state is None:
                notes.append(f"{role} finished without a complete journal")
            elif state.outbound != [
                serialization.encode(w) for src, w in wires if src == letter
            ] or state.inbound != [
                serialization.encode(w) for src, w in wires if src != letter
            ]:
                notes.append(
                    f"{role} journal diverges from the reference wires"
                )
    if cleanup is not None:
        cleanup.cleanup()

    def flat(things: dict) -> dict:
        """Injector counters / hook summaries; None on a clean axis."""
        return {
            name: getattr(thing, "stats", thing).as_dict() if thing else None
            for name, thing in things.items()
        }

    return ChaosResult(
        schedule=schedule,
        protocol=protocol,
        expected=expected,
        receiver=outcomes["receiver"],
        sender=outcomes["sender"],
        journals_ok=not notes,
        notes=notes,
        net_stats=flat(net),
        disk_stats=flat(disk),
        crash_stats=flat(hooks),
    )


# ----------------------------------------------------------------------
# Worker-crash axis: SIGKILL and heartbeat-hang against real forked
# shard workers, proving the supervisor's self-healing end to end.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerCrashSchedule:
    """One seed's worth of worker murder for a sharded server run.

    Unlike :class:`ChaosSchedule` (in-process, simulated crashes at
    named code points) this axis kills *real forked worker processes*
    under a live :class:`~repro.net.shard.ShardedProtocolServer` while
    a herd of concurrent journaled sessions runs against it:

    * ``kills`` - ``(delay_s, shard)`` pairs: SIGKILL that shard's
      worker that long after the herd starts;
    * ``hangs`` - ``(delay_s, shard, wedge_s)`` triples: wedge the
      worker's control loop (it keeps serving but stops heartbeating,
      the signature of a hung process) so the supervisor's
      missed-heartbeat deadline kills and respawns it.

    All fields derive from ``seed`` alone in :meth:`generate`, so a
    failing schedule replays from its printed seed.
    """

    seed: int = 0
    sessions: int = 12
    shards: int = 2
    kills: tuple[tuple[float, int], ...] = ((0.2, 0),)
    hangs: tuple[tuple[float, int, float], ...] = ()

    @classmethod
    def generate(
        cls,
        seed: int,
        sessions: int | None = None,
        shards: int | None = None,
    ) -> "WorkerCrashSchedule":
        """Derive a kill/hang schedule deterministically from ``seed``.

        Every draw comes from one rng seeded by ``seed``, so the same
        seed always yields the same schedule even when ``sessions`` or
        ``shards`` are overridden (the overrides replace the drawn
        values *after* all draws happen).
        """
        rng = random.Random(f"repro-worker-crash-{seed}")
        drawn_shards = rng.choice((2, 2, 3))
        drawn_sessions = rng.choice((8, 12, 16))
        kills = tuple(
            sorted(
                (round(rng.uniform(0.05, 0.9), 3), rng.randrange(drawn_shards))
                for _ in range(rng.choice((1, 2, 2, 3)))
            )
        )
        hangs: tuple[tuple[float, int, float], ...] = ()
        if rng.random() < 0.5:
            hangs = (
                (
                    round(rng.uniform(0.05, 0.7), 3),
                    rng.randrange(drawn_shards),
                    round(rng.uniform(0.5, 1.0), 3),
                ),
            )
        n_shards = shards if shards is not None else drawn_shards
        kills = tuple((d, s % n_shards) for d, s in kills)
        hangs = tuple((d, s % n_shards, w) for d, s, w in hangs)
        return cls(
            seed=seed,
            sessions=sessions if sessions is not None else drawn_sessions,
            shards=n_shards,
            kills=kills,
            hangs=hangs,
        )

    def describe(self) -> str:
        """One line naming the seed and every scheduled event."""
        events = [f"kill(shard={s}, t={d}s)" for d, s in self.kills] + [
            f"hang(shard={s}, t={d}s, wedge={w}s)" for d, s, w in self.hangs
        ]
        return (
            f"worker-crash seed {self.seed}: {self.sessions} sessions on "
            f"{self.shards} shards, " + ", ".join(events)
        )


@dataclass
class WorkerCrashOutcome:
    """How one herd session ended under a worker-crash schedule.

    ``kind`` is ``"answer"`` (finished; ``matched`` says whether the
    bytes equal the fault-free reference), ``"error"`` (a typed
    failure escaped the retry budget - tolerable only if typed), or
    ``"hang"`` (never finished in the wall budget). ``raw_reset``
    flags the one thing the supervisor contract forbids outright: a
    raw ``ConnectionResetError`` reaching the client.
    """

    session: int
    kind: str
    matched: bool = False
    elapsed_s: float = 0.0
    redials: int = 0
    reconnects: int = 0
    worker_lost: int = 0
    error: str | None = None
    raw_reset: bool = False


@dataclass
class WorkerCrashResult:
    """Everything :func:`run_worker_crash_schedule` observed."""

    schedule: WorkerCrashSchedule
    outcomes: list[WorkerCrashOutcome]
    injected: list[dict[str, Any]] = field(default_factory=list)
    health: list[dict[str, Any]] = field(default_factory=list)
    drain_report: list[dict[str, Any]] = field(default_factory=list)
    worker_deaths: int = 0
    hung_workers: int = 0
    respawns: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The availability invariant under worker murder.

        Every session finished with bytes identical to the fault-free
        reference, and no client ever saw a raw connection reset.
        """
        if any(o.raw_reset for o in self.outcomes):
            return False
        return all(o.kind == "answer" and o.matched for o in self.outcomes)

    def describe(self) -> str:
        """A failure-report block; the seed reproduces the schedule."""
        lines = [
            self.schedule.describe(),
            f"deaths={self.worker_deaths} hung={self.hung_workers} "
            f"respawns={self.respawns}",
        ]
        for o in self.outcomes:
            if o.kind == "answer" and o.matched and not o.raw_reset:
                continue
            lines.append(
                f"- session {o.session}: {o.kind}"
                + ("" if o.matched or o.kind != "answer" else " WRONG BYTES")
                + (" RAW RESET" if o.raw_reset else "")
                + (f" ({o.error})" if o.error else "")
                + f" after {o.redials} redials/{o.reconnects} reconnects"
            )
        for note in self.notes:
            lines.append(f"- {note}")
        lines.append(
            "- replay: run_worker_crash_schedule("
            f"WorkerCrashSchedule.generate({self.schedule.seed}))"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """Flat mapping for JSON benchmark records."""
        return {
            "seed": self.schedule.seed,
            "ok": self.ok,
            "sessions": self.schedule.sessions,
            "shards": self.schedule.shards,
            "kills": len(self.schedule.kills),
            "hangs": len(self.schedule.hangs),
            "worker_deaths": self.worker_deaths,
            "hung_workers": self.hung_workers,
            "respawns": self.respawns,
            "answers": sum(1 for o in self.outcomes if o.kind == "answer"),
            "matched": sum(1 for o in self.outcomes if o.matched),
            "raw_resets": sum(1 for o in self.outcomes if o.raw_reset),
            "redials": sum(o.redials for o in self.outcomes),
            "reconnects": sum(o.reconnects for o in self.outcomes),
            "worker_lost": sum(o.worker_lost for o in self.outcomes),
        }


def _herd_data(index: int) -> list[str]:
    """Session ``index``'s receiver catalog - distinct per session so a
    cross-routed or cross-recovered answer cannot go unnoticed."""
    return (
        ["shared", "alpha" if index % 2 else f"omega-{index}"]
        + [f"secret-{index}-{k}" for k in range(6)]
    )


_HERD_SENDER = ["shared", "alpha", "beta"] + [f"filler-{k}" for k in range(5)]


def run_worker_crash_schedule(
    schedule: WorkerCrashSchedule,
    journal_root: str | Path | None = None,
    bits: int = 96,
    heartbeat_s: float = 0.1,
    restart_budget: int = 16,
    wall_timeout_s: float = 60.0,
    stagger_s: float = 0.08,
) -> WorkerCrashResult:
    """Run a herd of sessions while killing their workers, for real.

    Starts a :class:`~repro.net.shard.ShardedProtocolServer` with
    forked, supervised, journaled workers; drives
    ``schedule.sessions`` concurrent receiver sessions against it, one
    thread each running
    :func:`~repro.net.tcp.connect_resumable_receiver` (each with its
    own catalog, dials staggered ``stagger_s`` apart and rounds
    streamed chunk-by-chunk so the herd stays in flight across every
    scheduled event); SIGKILLs and wedges workers at the scheduled
    moments from the calling thread; and compares every answer
    byte-for-byte (canonical encoding of the sorted answer) against a
    fault-free in-memory reference run of the same protocol. Typed
    refusals (:class:`~repro.net.session.ServerBusyError`,
    :class:`~repro.net.session.WorkerLost`) that escape a session are
    redialed by :meth:`~repro.net.session.ClientRetryPolicy.redial`,
    honoring the server's retry hints, within ``wall_timeout_s``;
    anything rawer is recorded as the invariant breach it is.

    Returns a :class:`WorkerCrashResult`; assert on ``result.ok`` and
    print ``result.describe()`` on failure.
    """
    import threading
    import time

    protocol = "intersection"
    spec = get_spec(protocol)
    params = PublicParams.for_bits(bits)

    # Fault-free reference: an in-memory run per session's catalog.
    # The answer bytes every herd session must reproduce exactly.
    reference: list[bytes] = []
    for i in range(schedule.sessions):
        ref_r, _, _ = run_pair(
            spec, _herd_data(i), _HERD_SENDER, params,
            random.Random(f"ref-r-{i}"), random.Random(f"ref-s-{i}"),
        )
        reference.append(
            serialization.encode(sorted(ref_r.finish(), key=repr))
        )

    cleanup = None
    if journal_root is None:
        cleanup = tempfile.TemporaryDirectory(
            prefix="repro-worker-crash-", ignore_cleanup_errors=True
        )
        journal_root = cleanup.name

    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(
            max_attempts=6, base_delay_s=0.02, max_delay_s=0.25
        ),
        max_reconnects=30,
        fin_grace_s=0.05,
    )
    offer = ProtocolOffer.from_data(
        protocol, _HERD_SENDER, params, seed="worker-crash-sender"
    )
    server = ShardedProtocolServer(
        [offer],
        shards=schedule.shards,
        config=config,
        journal_dir=journal_root,
        max_sessions=schedule.sessions,
        restart_budget=restart_budget,
        heartbeat_s=heartbeat_s,
        chunk_size=2,
    ).start()

    # Typed refusals are redialed until the wall budget runs out.
    policy = ClientRetryPolicy(
        max_attempts=sys.maxsize, total_deadline_s=wall_timeout_s,
        backoff=config.retry,
    )
    finished: list[WorkerCrashOutcome | None] = [None] * schedule.sessions
    injected: list[dict[str, Any]] = []
    start = time.monotonic()

    def one(i: int) -> None:
        rng = random.Random(f"repro-worker-crash-{schedule.seed}-c{i}")
        backoff_rng = random.Random(rng.getrandbits(64))
        # Staggered dials keep the herd in flight across every
        # scheduled kill instead of finishing before the first one.
        time.sleep(max(start + i * stagger_s - time.monotonic(), 0))
        t0 = time.monotonic()
        refusals: list[SessionError] = []  # what the policy waited out
        outcome = WorkerCrashOutcome(session=i, kind="error")
        try:
            (answer, stats), redials, busy = policy.redial(
                lambda: connect_resumable_receiver(
                    protocol, _herd_data(i), rng, "127.0.0.1", server.port,
                    config=config, chunk_size=2,
                ),
                backoff_rng,
                on_retry=lambda exc, _delay, _attempt: refusals.append(exc),
            )
        except (ServerBusyError, WorkerLost) as exc:
            outcome.kind = "hang"
            outcome.error = f"deadline after {type(exc).__name__}"
        except SessionError as exc:
            outcome.error = repr(exc)
            outcome.raw_reset = isinstance(exc.__cause__, ConnectionResetError)
        except Exception as exc:
            # A raw socket error reaching the client is exactly what
            # the supervisor contract forbids.
            outcome.error = repr(exc)
            outcome.raw_reset = isinstance(exc, ConnectionResetError)
        else:
            outcome = WorkerCrashOutcome(
                session=i,
                kind="answer",
                matched=(
                    serialization.encode(sorted(answer, key=repr))
                    == reference[i]
                ),
                reconnects=stats.reconnects,
                worker_lost=redials - busy + stats.worker_lost,
            )
        outcome.redials = len(refusals)
        outcome.elapsed_s = time.monotonic() - t0
        finished[i] = outcome

    herd = [
        threading.Thread(target=one, args=(i,), daemon=True)
        for i in range(schedule.sessions)
    ]
    health: list[dict[str, Any]] = []
    try:
        for thread in herd:
            thread.start()
        events = [("kill", d, s, None) for d, s in schedule.kills] + [
            ("hang", d, s, w) for d, s, w in schedule.hangs
        ]
        for kind, delay, shard, wedge_s in sorted(events, key=lambda e: e[1]):
            time.sleep(max(start + delay - time.monotonic(), 0))
            if kind == "kill":
                pid = server.kill_worker(shard)
                injected.append(
                    {"event": "kill", "shard": shard, "pid": pid,
                     "t_s": round(time.monotonic() - start, 3)}
                )
            else:
                sent = server.wedge_worker(shard, wedge_s)
                injected.append(
                    {"event": "hang", "shard": shard, "sent": sent,
                     "wedge_s": wedge_s,
                     "t_s": round(time.monotonic() - start, 3)}
                )
        for thread in herd:
            thread.join(max(start + wall_timeout_s - time.monotonic(), 0))
        health = server.health()
    finally:
        server.shutdown(drain_timeout_s=2.0)
    # A session still running past the wall budget is a hang.
    outcomes = [
        outcome or WorkerCrashOutcome(
            session=i, kind="hang", elapsed_s=wall_timeout_s
        )
        for i, outcome in enumerate(list(finished))
    ]
    result = WorkerCrashResult(
        schedule=schedule,
        outcomes=outcomes,
        injected=injected,
        health=health,
        drain_report=server.drain_report,
        worker_deaths=server.worker_deaths,
        hung_workers=server.hung_workers,
        respawns=server.respawns,
    )
    if cleanup is not None:
        cleanup.cleanup()
    return result

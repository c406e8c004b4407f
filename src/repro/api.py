"""Public API: one-shot verbs plus the stateful Catalog/Peer surface.

The rest of the library is deliberately layered - specs as data
(:mod:`repro.protocols.spec`), generic machines
(:mod:`repro.protocols.parties`), transports (:mod:`repro.net.tcp`),
sessions (:mod:`repro.net.session`) - and every layer is importable.
But the common cases should not require assembling those layers by
hand, so this module exposes two families of entry points, all
dispatching off the :data:`~repro.protocols.spec.PROTOCOLS` registry:

**One-shot verbs** (a single query, then everything is torn down):

* :func:`run` - both parties in-process, one call, returns the answer
  plus what each party learned about the other's set size;
* :func:`serve` - party S behind a real TCP listener (a session that,
  on request, reconnects, resumes and journals to disk);
* :func:`connect` - party R dialing a server.

**The stateful surface** (open once, query many times, mutate between
queries - the repeated-query protocol):

* :func:`open_catalog` opens a :class:`Catalog` over one party's
  table, optionally backed by an on-disk encrypted-catalog cache
  (:mod:`repro.net.catalog`) so a process restart skips the O(|V|)
  hash-and-encrypt setup;
* :meth:`Catalog.pair` / :meth:`Catalog.serve` /
  :meth:`Catalog.connect` produce a :class:`Peer`;
* :meth:`Peer.query` runs a full protocol on first use and only the
  delta rounds thereafter (O(|delta|) cryptography per repeated
  query);
* :meth:`Catalog.insert` / :meth:`Catalog.delete` stage the table
  mutations the next query's delta rounds will carry.

The one-shot verbs have no series of queries to keep state for, so
they sit directly on the drivers: :func:`run` is ``spec.run_pair`` (two
party machines, exchanged), :func:`serve` / :func:`connect` call
:mod:`repro.net.tcp`'s session pair. A networked :class:`Peer` runs
one such session per query, frame for frame (the hello names the
query). Every networked run is therefore checksummed and acknowledged;
``session=`` only chooses its retry / deadline / journal policy
(:func:`_session_config`). All entry points accept ``chunk_size`` to
stream chunkable rounds in bounded slices; ``chunk_size=None`` keeps
the whole-round frames. New protocols registered in ``PROTOCOLS`` are
runnable here with zero facade edits.

Quickstart (one-shot)::

    import repro

    result = repro.run(
        "intersection",
        receiver_data=["alice", "bob", "carol"],
        sender_data=["bob", "carol", "dave"],
        bits=128,
        seed=7,
    )
    assert result.answer == {"bob", "carol"}

Quickstart (repeated queries)::

    catalog = repro.open_catalog(["alice", "bob"], bits=128, seed=1)
    peer = catalog.pair(repro.open_catalog(["bob", "eve"], bits=128, seed=2))
    assert peer.query("intersection").answer == {"bob"}
    catalog.insert("eve")
    assert peer.query("intersection").answer == {"bob", "eve"}  # delta rounds
"""

from __future__ import annotations

import math
import random
import socket
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Hashable, Mapping

from .crypto.engine import MeteredEngine, available_cpus, shared_engine
from .crypto.numtheory import _key_rng, _party_rngs
from .protocols.delta import DeltaExchange
from .protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from .protocols.spec import PROTOCOLS, ProtocolSpec, get_spec, run_pair

__all__ = [
    "RunResult",
    "ServeResult",
    "ConnectResult",
    "run",
    "serve",
    "connect",
    "open_catalog",
    "Catalog",
    "Peer",
    "QueryResult",
    "SessionOptions",
]


@dataclass(frozen=True)
class RunResult:
    """What an in-process :func:`run` produced.

    Attributes:
        answer: the protocol's output for party R (set, size, ext
            mapping, or aggregate - whatever the spec's ``finish``
            computes).
        size_v_r: ``|V_R|`` - all party S learns from the run.
        size_v_s: ``|V_S|`` - the set-size party R observes.
        transcript: the run recorded part by part under the paper's
            step labels (a :class:`~repro.net.runner.ProtocolRun`:
            each party's view, and ``total_bytes`` on the wire), built
            from the run's wires when first read.
    """

    answer: Any
    size_v_r: int
    size_v_s: int
    _record: Callable[[], Any] | None = field(repr=False, compare=False, default=None)

    @cached_property
    def transcript(self) -> Any:
        """The recorded run, built from the kept wires on first read."""
        return self._record()


@dataclass(frozen=True)
class ServeResult:
    """What one completed :func:`serve` call produced.

    Attributes:
        size_v_r: ``|V_R|`` - all party S learns from the run.
        port: the actual bound port (the kernel-assigned one when the
            call asked for ``port=0``).
        stats: the run's :class:`~repro.net.session.SessionStats`.
    """

    size_v_r: int
    port: int
    stats: Any = None


@dataclass(frozen=True)
class ConnectResult:
    """What one completed :func:`connect` call produced.

    Attributes:
        answer: the protocol's output for party R.
        stats: the run's :class:`~repro.net.session.SessionStats`.
        busy_retries: how many busy refusals a ``retry`` policy waited
            out before the server admitted this session.
        retries: total redials a ``retry`` policy performed across all
            retryable failure classes (busy, worker-lost).
    """

    answer: Any
    stats: Any = None
    busy_retries: int = 0
    retries: int = 0


@dataclass(frozen=True)
class QueryResult:
    """One completed :meth:`Peer.query`.

    Attributes:
        answer: the protocol's output for party R (``None`` on the
            serving side of a networked peer - the sender learns no
            answer, by design).
        mode: ``"full"`` when the complete round schedule ran,
            ``"delta"`` when only the incremental rounds were
            exchanged and spliced into the committed state.
        cache_hit: whether this party's setup was warm-started from
            the on-disk encrypted-catalog cache.
        size_v_r: ``|V_R|`` as known after this query (``None`` where
            the role does not learn it).
        size_v_s: ``|V_S|`` as known after this query (``None`` where
            the role does not learn it).
        stats: the :class:`~repro.net.session.SessionStats` of a
            networked query; ``None`` for an in-process pair.
    """

    answer: Any
    mode: str
    cache_hit: bool = False
    size_v_r: int | None = None
    size_v_s: int | None = None
    stats: Any = None


@dataclass(frozen=True)
class SessionOptions:
    """Typed bundle of fault-tolerant session-layer settings.

    Every networked exchange is a session of :mod:`repro.net.session`
    (checksummed, acknowledged frames). Passing a ``SessionOptions``
    (even the default ``SessionOptions()``) to :func:`serve`,
    :func:`connect`, :meth:`Catalog.serve` or :meth:`Catalog.connect`
    makes it a *resumable* one: deadlines on every frame,
    reconnect-and-resume after drops, and - with a ``journal_dir`` -
    crash recovery from the on-disk round journal. ``session=None`` is
    one connection with no retry (see :func:`_session_config`).

    Attributes:
        journal_dir: directory (or
            :class:`~repro.net.journal.JournalDir`) for the round
            journal; ``None`` keeps the session in memory only.
        config: a :class:`~repro.net.session.SessionConfig` tuning
            timeouts and retry/backoff; ``None`` uses the defaults,
            with the caller's ``timeout`` (when it gave one) as the
            frame deadline.
        journal_fsync: fsync journal appends (durability vs speed).
    """

    journal_dir: Any = None
    config: Any = None
    journal_fsync: bool = True


def _session_config(
    session: SessionOptions | None, timeout: float | None, retry: Any = None
) -> Any:
    """The config a networked call runs under.

    ``session=None`` is the plain contract on the session wire: one
    connection (the first failure is final and immediate), and no
    deadline unless ``timeout`` gives one - a silent but connected peer
    is waited for indefinitely. With a :class:`SessionOptions` it is
    ``session.config`` when set; failing that what a ``retry`` policy
    implies; failing that the defaults, with ``timeout`` (when given)
    as ``timeout_s``.
    """
    from .net.session import SessionConfig

    if session is None:
        return SessionConfig(timeout_s=timeout or math.inf, max_reconnects=0)
    if session.config is not None:
        return session.config
    if retry is not None:
        return retry.session_config()
    return SessionConfig(timeout_s=timeout) if timeout else SessionConfig()


def _journal(session: SessionOptions | None) -> Any:
    """``session``'s :class:`~repro.net.journal.JournalDir`, opened;
    ``None`` when nothing is journaled."""
    from .net import tcp

    if session is None:
        return None
    return tcp._journal_dir(session.journal_dir, session.journal_fsync)


def _metered(engine: Any, recorder: Any) -> Any:
    """The engine an entry point runs, as ``recorder`` can see it.

    The one rule for every entry point - :func:`run`, :func:`serve`,
    :func:`connect` and a :class:`Catalog`'s links, paired or networked:
    when the caller passed no ``engine=`` the batches are shared by as
    many threads as this process has CPUs to run on (the serial engine
    when that is one); the engine itself keeps batches too small to pay
    serial. A recorder counts only the exponentiations a
    :class:`~repro.crypto.engine.MeteredEngine` reports to it, so the
    engine is then wrapped to report into ``recorder`` and named in its
    report. Idempotent - an engine already metered into ``recorder`` is
    kept.
    """
    if engine is None:
        engine = shared_engine(available_cpus())
    if recorder is None:
        return engine
    if not (
        isinstance(engine, MeteredEngine)
        and engine.on_modexp == recorder.count_modexp
    ):
        engine = MeteredEngine(engine, recorder.count_modexp)
    recorder.attach_engine(engine)
    return engine


def _delta_spec(spec: ProtocolSpec) -> ProtocolSpec | None:
    """The registered ``<name>+delta`` schedule, or ``None``."""
    return PROTOCOLS.get(spec.name + "+delta")


#: "No such key" in a mapping-shaped table's staged-op log.
_ABSENT = object()


class Catalog:
    """One party's stateful handle over its table across many queries.

    A catalog owns a private table (a value sequence, or a mapping for
    ext/amount protocols), stages mutations via :meth:`insert` /
    :meth:`delete`, and keeps the committed per-protocol crypto state a
    :class:`Peer` needs to answer repeated queries incrementally: the
    first query of a protocol runs the full round schedule; subsequent
    queries exchange only the delta rounds (O(|delta|) modexp) and
    splice the patch into the committed state.

    With a ``cache_dir``, the party's expensive own-set setup (hash +
    encrypt of every value) is persisted through
    :class:`~repro.net.catalog.CatalogCache` keyed by (table digest,
    key fingerprint, protocol), so reopening the catalog in a new
    process warm-starts the first query without redoing the O(|V|)
    modexp. The cache holds this party's raw cipher keys - keep the
    directory private (see docs/PROTOCOLS.md, cache-key hygiene).

    Build via :func:`open_catalog`.
    """

    def __init__(
        self,
        data: Any,
        *,
        bits: int = 512,
        params: PublicParams | None = None,
        seed: Any = None,
        rng: random.Random | None = None,
        engine: Any = None,
        recorder: Any = None,
        cache_dir: Any = None,
        cache_fsync: bool = True,
        cache_io: Any = None,
    ):
        self.data = dict(data) if isinstance(data, Mapping) else list(data)
        self._bits = bits
        self.params = params
        self.rng = _key_rng(rng, seed)
        self.engine = _metered(engine, recorder)
        self.recorder = recorder
        self.cache = None
        if cache_dir is not None:
            from .net.catalog import CatalogCache

            self.cache = CatalogCache(
                cache_dir, io=cache_io, fsync=cache_fsync
            )
        self._links: dict[tuple[str, str], dict[str, Any]] = {}
        #: The staged mutations no link has committed past yet, oldest
        #: first: ``(value, occurrences added)`` for a sequence table,
        #: ``(key, payload before, payload after)`` for a mapping.
        #: ``_log[0]`` is op number ``_log_start``; a link's ``cursor``
        #: is the op number its committed party is current to.
        self._log: list[tuple] = []
        self._log_start = 0
        #: The running :class:`~repro.net.catalog.TableDigest` of
        #: ``data``, kept from the first cacheable query on.
        self._digest: Any = None

    # ------------------------------------------------------------------
    # Table mutation (staged deltas)
    # ------------------------------------------------------------------
    def insert(self, value: Hashable, payload: Any = None) -> "Catalog":
        """Stage an insert for the next query's delta rounds.

        ``payload`` is the ext bytes / amount for mapping-shaped tables
        (equijoin / equijoin-sum); inserting an existing key with a new
        payload stages a replace (tombstone + insert on the wire).
        Sequence-shaped tables take ``payload=None`` and may repeat a
        value (multiset protocols count occurrences).
        """
        if isinstance(self.data, dict):
            self._put(value, payload)
        else:
            if payload is not None:
                raise ValueError(
                    "payload inserts need a mapping-shaped catalog "
                    "(ext/amount tables)"
                )
            self.data.append(value)
            self._log.append((value, 1))
            if self._digest is not None:
                self._digest.add(value)
        return self

    def delete(self, value: Hashable) -> "Catalog":
        """Stage a delete (one occurrence, for multiset tables) for the
        next query's delta rounds. Raises if the value is absent."""
        if isinstance(self.data, dict):
            self._put(value, _ABSENT)
        else:
            try:
                self.data.remove(value)
            except ValueError:
                raise ValueError(f"{value!r} is not in the catalog") from None
            self._log.append((value, -1))
            if self._digest is not None:
                self._digest.remove(value)
        return self

    def _put(self, key: Hashable, after: Any) -> None:
        """Set (or, with ``_ABSENT``, drop) a mapping-shaped table's
        ``key``, logging the change and moving the running digest."""
        before = self.data.get(key, _ABSENT)
        if after is _ABSENT:
            del self.data[key]
        else:
            self.data[key] = after
        self._log.append((key, before, after))
        if self._digest is not None:
            if before is not _ABSENT:
                self._digest.remove((key, before))
            if after is not _ABSENT:
                self._digest.add((key, after))

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    def pair(self, sender: "Catalog") -> "Peer":
        """Link two in-process catalogs: self is party R, ``sender`` is
        party S. Returns the :class:`Peer` both sides query through."""
        params = self._ensure_params()
        if sender.params is None:
            sender.params = params
        elif sender.params != params:
            raise ValueError("paired catalogs must share public params")
        return Peer(kind="local", catalog=self, remote=sender)

    def serve(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_callback: Callable[[int], None] | None = None,
        timeout: float | None = None,
        session: SessionOptions | None = None,
    ) -> "Peer":
        """Expose this catalog as party S on a TCP port.

        The listener is bound here and stays up until
        :meth:`Peer.close` (``Peer.port`` is final, ``ready_callback``
        fires before this returns), so a client early for the next
        query queues. Each :meth:`Peer.query` of the returned server
        :class:`Peer` answers one client query as one session; call it
        once per query the remote side makes. With a
        :class:`SessionOptions` the sessions are resumable (reconnects
        resume mid-round, and a ``journal_dir`` adds crash recovery -
        including for delta rounds, which replay idempotently).
        """
        params = self._ensure_params()
        del params  # built eagerly so the first query cannot race
        return Peer(
            kind="server",
            catalog=self,
            host=host,
            port=port,
            timeout=timeout,
            session=session,
            ready_callback=ready_callback,
        )

    def connect(
        self,
        host: str = "127.0.0.1",
        *,
        port: int,
        timeout: float | None = None,
        session: SessionOptions | None = None,
    ) -> "Peer":
        """Link this catalog (as party R) to a serving peer.

        Returns a client :class:`Peer`; every :meth:`Peer.query` dials
        the server and runs one session whose hello names the query
        (the protocol, ``+delta`` for a delta). Public params are
        adopted from the server's welcome on first use. ``session``
        makes the sessions resumable.
        """
        return Peer(
            kind="client",
            catalog=self,
            host=host,
            port=port,
            timeout=timeout,
            session=session,
        )

    def close(self) -> None:
        """Drop the per-protocol committed state.

        No file handles stay open between calls, so this is about
        symmetry (``with open_catalog(...)``) and releasing memory.
        """
        self._links.clear()
        self._log_start = self._mark()
        self._log.clear()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals: params, cache, machines, commits
    # ------------------------------------------------------------------
    def _ensure_params(self) -> PublicParams:
        if self.params is None:
            self.params = PublicParams.for_bits(self._bits)
        return self.params

    def _adopt_params(self, params: PublicParams) -> PublicParams:
        if self.params is None:
            self.params = params
        elif self.params != params:
            raise ValueError(
                "the server's public params differ from this catalog's"
            )
        return self.params

    def _has_link(self, spec: ProtocolSpec, role: str) -> bool:
        return (spec.name, role) in self._links

    def _plan(
        self, spec: ProtocolSpec, role: str, kind: str
    ) -> tuple[ProtocolSpec, Callable[[PublicParams], Any], Callable[[Any], bool]]:
        """How this catalog runs one ``kind`` query of ``spec`` as
        ``role``: ``(wire spec, make_state, commit)``.

        ``wire_spec`` is the schedule the link exchanges,
        ``make_state(params)`` builds the party state its machine
        interprets (idempotent - journal replay may call it again), and
        ``commit(state)`` records the completed query in the
        per-protocol link and the on-disk cache, returning whether the
        setup was a cache hit. A link only ever handles these three, so
        no link kind knows which flavour it is running.

        The table is pinned here, at query entry, as a position in the
        staged-op log: the state is built from the table as of that
        position and the commit moves the link's cursor to it, so
        mutations staged while a query is in flight stay staged for the
        *next* delta instead of being silently absorbed.
        """
        wire_spec = spec if kind == "full" else _delta_spec(spec)
        factory = (
            wire_spec.make_receiver if role == "receiver" else wire_spec.make_sender
        )
        plan = self._plan_full if wire_spec is spec else self._plan_delta
        return (wire_spec, *plan((spec.name, role), factory, self.engine))

    def _mark(self) -> int:
        """The op number the next staged mutation will get."""
        return self._log_start + len(self._log)

    def _commit_link(self, key: tuple[str, str], link: dict[str, Any]) -> None:
        """Record ``link`` (committed up to its ``cursor``) and drop the
        staged ops every link has now committed past."""
        if link["cursor"] < self._log_start:
            # An overlapping query trimmed ops this one has not seen:
            # no delta can follow it, the next query runs full.
            self._links.pop(key, None)
            return
        self._links[key] = link
        keep = min(each["cursor"] for each in self._links.values())
        del self._log[: keep - self._log_start]
        self._log_start = keep

    def _plan_full(
        self, key: tuple[str, str], factory: Callable[..., Any], engine: Any
    ) -> tuple[Callable[[PublicParams], Any], Callable[[Any], bool]]:
        """A full query: warm-start from the cache, store on a miss."""
        from .net.catalog import CatalogCacheError, TableDigest

        # The equijoin-sum sender holds a Paillier keypair that is not
        # persisted, so it is the one party without cache support.
        cacheable = self.cache is not None and getattr(factory, "cacheable", False)
        # Receiver and sender entries can differ in shape (equijoin's
        # sender caches (codeword, kappa) pairs under two keys), so the
        # role is part of the cache key.
        cache_name = f"{key[0]}.{key[1][0]}"
        preloaded = []
        if cacheable and self._digest is None:
            # A reopen: the protocol's one file, if it holds exactly this
            # table, lends it its digest; else the table is hashed, and
            # the file served if that names it.
            entry = self.cache.sole_entry(cache_name)
            lent = entry is not None and entry.describes(self.data)
            self._digest = TableDigest.resume(entry.state) if lent else TableDigest(self.data)
            if entry is not None and entry.state == self._digest.state:
                preloaded.append(entry)
        # Pinned: mutations staged from here on are the next query's.
        table = TableDigest.resume(self._digest.state) if cacheable else None
        cursor = self._mark()
        snapshot = dict(self.data) if isinstance(self.data, dict) else list(self.data)
        found: dict[str, Any] = {}

        def make_state(params: PublicParams) -> Any:
            # A preloaded entry builds one party, which takes its maps:
            # a second build (journal replay) loads the file again.
            entry = preloaded.pop() if preloaded else None
            if cacheable and entry is None:
                try:
                    entry = self.cache.lookup(table.hexdigest(), cache_name)
                except CatalogCacheError:
                    pass  # corrupt or foreign-keyed entry: treat as a miss
            if entry is not None and entry.params != params:
                entry = None
            found.update(entry=entry, params=params)
            # The party checks that the entry holds exactly its values.
            extra = {} if entry is None else {"cached": entry.party_cache()}
            return factory(snapshot, params, self.rng, engine=engine, **extra)

        def commit(party: Any) -> bool:
            entry = found["entry"]
            link = {"party": party, "cursor": cursor, "entry": None}
            # What the query moved - on a hit, in the entry's own maps,
            # so the entry cannot tell it by comparing.
            churn = party.cache_churn()
            if entry is None and cacheable:
                link["entry"] = self.cache.store(
                    table, cache_name, found["params"], party.cache_keys(),
                    party.cache_entries(), party.peer_maps(),
                )
            self._commit_link(key, link)
            if entry is not None:
                # A hit: the peer maps moved by what the peer changed
                # while the parties were down (nothing, on unchanged
                # tables). As for a delta, a failed append leaves the
                # link without its entry.
                link["entry"] = self.cache.append_delta(entry, table, *churn)
            return entry is not None

        return make_state, commit

    def _plan_delta(
        self, key: tuple[str, str], factory: Callable[..., Any], engine: Any
    ) -> tuple[Callable[[PublicParams], Any], Callable[[Any], bool]]:
        """A delta query: the churn staged since the link's cursor, on
        its committed party."""
        from .net.catalog import TableDigest

        link = self._links[key]
        cursor = self._mark()
        inserts, deletes = self._staged(link["cursor"])
        exchange = DeltaExchange(
            state=link["party"], inserts=inserts, deletes=deletes
        )
        # The file is re-keyed to the table as of this query's entry.
        table = None if link["entry"] is None else TableDigest.resume(self._digest.state)

        def make_state(params: PublicParams) -> Any:
            return factory(exchange, params, self.rng, engine=engine)

        def commit(staged: Any) -> bool:
            staged.commit()
            # An entry the party held before (one more occurrence of a
            # held value, a replaced payload) is no churn.
            churn = link["party"].cache_churn()
            # A failed append leaves the file in doubt: the link goes on
            # without its entry rather than append to it again.
            entry, link["entry"] = link["entry"], None
            link["cursor"] = cursor
            self._commit_link(key, link)
            if entry is not None:
                link["entry"] = self.cache.append_delta(entry, table, *churn)
            return False

        return make_state, commit

    def _staged(self, cursor: int) -> tuple[tuple, tuple]:
        """The net ``(inserts, deletes)`` of the ops staged from
        ``cursor`` on, in ``repr`` order (a
        :class:`~repro.protocols.delta.DeltaExchange`'s)."""
        ops = self._log[cursor - self._log_start :]
        if isinstance(self.data, dict):
            first: dict = {}
            last: dict = {}
            for k, before, after in ops:
                first.setdefault(k, before)
                last[k] = after
            changed = sorted((k for k in last if first[k] != last[k]), key=repr)
            return (
                tuple((k, last[k]) for k in changed if last[k] is not _ABSENT),
                tuple(k for k in changed if last[k] is _ABSENT),
            )
        net: Counter = Counter()
        for value, occurrences in ops:
            net[value] += occurrences
        return (
            tuple((v, None) for v in sorted((+net).elements(), key=repr)),
            tuple(sorted((-net).elements(), key=repr)),
        )


def open_catalog(
    data: Any,
    *,
    bits: int = 512,
    params: PublicParams | None = None,
    seed: Any = None,
    rng: random.Random | None = None,
    engine: Any = None,
    recorder: Any = None,
    cache_dir: Any = None,
    cache_fsync: bool = True,
    cache_io: Any = None,
) -> Catalog:
    """Open a stateful :class:`Catalog` over one party's table.

    Args:
        data: the party's private table - a value sequence, or a
            ``value -> ext/amount`` mapping for the equijoin family.
        bits: safe-prime modulus size when ``params`` is not given
            (connecting catalogs may omit both and adopt the server's
            params from the handshake).
        params: explicit shared public parameters.
        seed: seed for this party's private randomness.
        rng: explicit rng (overrides ``seed``).
        engine: batch-crypto execution strategy
            (:mod:`repro.crypto.engine`); by default, paired or over a
            network link, the process-wide thread engine over this
            process's CPUs, as for every entry point.
        recorder: per-phase metrics collector.
        cache_dir: directory for the persistent encrypted-catalog cache
            (:class:`~repro.net.catalog.CatalogCache`); ``None``
            disables persistence. The directory ends up holding this
            party's raw cipher keys - keep it private.
        cache_fsync: fsync cache writes before trusting them.
        cache_io: a :class:`~repro.net.diskfaults.JournalIO` override
            (the disk-fault harness injects a faulty one here).
    """
    return Catalog(
        data,
        bits=bits,
        params=params,
        seed=seed,
        rng=rng,
        engine=engine,
        recorder=recorder,
        cache_dir=cache_dir,
        cache_fsync=cache_fsync,
        cache_io=cache_io,
    )


class Peer:
    """A live query link produced by :meth:`Catalog.pair`,
    :meth:`Catalog.serve` or :meth:`Catalog.connect`.

    One :meth:`query` call runs one protocol exchange: the full round
    schedule the first time a protocol is queried through this
    catalog, only the delta rounds afterwards. Networked peers are
    role-symmetric - the serving side calls ``query`` to answer what
    the connecting side's ``query`` asks - and each call is one
    session, so a server loops ``query`` (one iteration per client
    query) until :meth:`close`.
    """

    def __init__(
        self,
        *,
        kind: str,
        catalog: Catalog,
        remote: Catalog | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        session: SessionOptions | None = None,
        ready_callback: Callable[[int], None] | None = None,
    ):
        self._kind = kind
        self._catalog = catalog
        self._remote = remote
        self._host = host
        self._port = port
        self._config = _session_config(session, timeout)
        self._journal_dir = _journal(session)
        self._listener: socket.socket | None = None
        if kind == "server":
            # Bound for the peer's life: a client early for the next
            # query waits in the backlog until ``query`` accepts it.
            self._listener = socket.create_server((host, port), backlog=16)
            self._port = self._listener.getsockname()[1]
            if ready_callback is not None:
                ready_callback(self._port)

    @property
    def port(self) -> int:
        """The port this link dials, or (a server) is bound to."""
        return self._port

    def query(
        self,
        protocol: str | ProtocolSpec,
        *,
        mode: str = "auto",
        chunk_size: int | None = None,
    ) -> QueryResult:
        """Run one query of a registered protocol over this link.

        ``mode`` is ``"auto"`` (full on first use, delta once state is
        committed), or an explicit ``"full"`` / ``"delta"``. On a
        networked link the connecting side's choice travels in its
        hello (the protocol field, ``+delta`` for a delta) and a
        serving ``"auto"`` follows it; a server refuses - a typed
        :class:`~repro.net.session.HandshakeError` on both sides, its
        listener unharmed - a hello for another protocol, one that
        contradicts its own forced mode, and a delta it holds no
        committed state for. After a successful query the staged table
        mutations are committed into the per-protocol state - a failed
        exchange commits nothing and can simply be retried. A networked
        query runs its session on an event loop of the calling thread,
        so a thread whose own loop is running cannot call it
        (``RuntimeError``).
        """
        spec = get_spec(protocol)
        if spec.delta_of is not None:
            raise ValueError(
                f"query the base protocol {spec.delta_of!r}; delta rounds "
                "are scheduled automatically once state is committed"
            )
        if mode not in ("auto", "full", "delta"):
            raise ValueError(f"unknown query mode {mode!r}")
        if self._kind == "local":
            return self._query_local(spec, mode, chunk_size)
        if self._kind == "client":
            return self._query_client(spec, mode, chunk_size)
        return self._query_server(spec, mode, chunk_size)

    def close(self) -> None:
        """Tear the link down (closes a server peer's listener)."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self) -> "Peer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mode resolution
    # ------------------------------------------------------------------
    def _resolve_kind(self, spec: ProtocolSpec, mode: str, role: str) -> str:
        have = self._catalog._has_link(spec, role)
        if self._kind == "local":
            have = have and self._remote._has_link(spec, "sender")
        deltas = _delta_spec(spec) is not None
        if mode == "auto":
            return "delta" if (have and deltas) else "full"
        if mode == "delta":
            if not deltas:
                raise ValueError(f"{spec.name!r} has no delta schedule")
            if not have:
                raise ValueError(
                    f"no committed {spec.name!r} state yet; run a full "
                    "query first"
                )
        return mode

    # ------------------------------------------------------------------
    # In-process link
    # ------------------------------------------------------------------
    def _query_local(
        self, spec: ProtocolSpec, mode: str, chunk_size: int | None
    ) -> QueryResult:
        recv_cat, send_cat = self._catalog, self._remote
        params = recv_cat._ensure_params()
        kind = self._resolve_kind(spec, mode, "receiver")
        wire_spec, make_r, commit_r = recv_cat._plan(spec, "receiver", kind)
        _, make_s, commit_s = send_cat._plan(spec, "sender", kind)
        receiver = ReceiverMachine.from_factory(
            wire_spec, lambda: make_r(params), recv_cat.recorder
        )
        sender = SenderMachine.from_factory(
            wire_spec, lambda: make_s(params), send_cat.recorder
        )
        wire_spec.exchange(receiver, sender, chunk_size)
        answer = receiver.finish()
        hit_r, hit_s = commit_r(receiver.state), commit_s(sender.state)
        return QueryResult(
            answer=answer,
            mode=kind,
            cache_hit=hit_r or hit_s,
            size_v_r=getattr(sender.state, "size_v_r", None),
            size_v_s=getattr(receiver.state, "size_v_s", None),
        )

    # ------------------------------------------------------------------
    # TCP client (party R)
    # ------------------------------------------------------------------
    def _query_client(
        self, spec: ProtocolSpec, mode: str, chunk_size: int | None
    ) -> QueryResult:
        from .net import tcp

        cat = self._catalog
        kind = self._resolve_kind(spec, mode, "receiver")
        wire_spec, make_state, commit = cat._plan(spec, "receiver", kind)
        built: dict[str, Any] = {}

        def make_receiver(wire: Any) -> Any:
            built["state"] = make_state(
                cat._adopt_params(PublicParams.from_wire(tuple(wire)))
            )
            return built["state"]

        answer, stats = tcp.connect_resumable_receiver(
            wire_spec.name, None, cat.rng, self._host, self._port,
            config=self._config, engine=cat.engine, recorder=cat.recorder,
            chunk_size=chunk_size, make_receiver=make_receiver,
            journal_dir=self._journal_dir,
        )
        hit = commit(built["state"])
        return QueryResult(
            answer=answer,
            mode=kind,
            cache_hit=hit,
            size_v_s=getattr(built["state"], "size_v_s", None),
            stats=stats,
        )

    # ------------------------------------------------------------------
    # TCP server (party S)
    # ------------------------------------------------------------------
    def _query_server(
        self, spec: ProtocolSpec, mode: str, chunk_size: int | None
    ) -> QueryResult:
        from .net.journal import open_session
        from .net.server import host_session

        cat = self._catalog
        params = cat._ensure_params()
        if self._listener is None:
            raise RuntimeError("this server peer is closed")
        plan: dict[str, Any] = {}

        def admit(asked: Any, session_id: int) -> Any:
            # The hello is the announcement: its protocol field names
            # the schedule the client runs, its session id the journal
            # to look up, before there is a core to read either.
            kinds = {spec.name: "full"}
            delta = _delta_spec(spec)
            if delta is not None:
                kinds[delta.name] = "delta"
            kind = kinds.get(asked) if isinstance(asked, str) else None
            if kind is None:
                return f"server is answering {spec.name!r}, not {asked!r}"
            if mode != "auto" and kind != mode:
                return f"server requires a {mode} query"
            if kind == "delta" and not cat._has_link(spec, "sender"):
                return "server has no committed state for a delta query"
            wire_spec, make_state, plan["commit"] = cat._plan(spec, "sender", kind)
            plan["kind"] = kind

            def make_sender() -> Any:
                plan["state"] = make_state(params)
                return plan["state"]

            core, _ = open_session(
                "sender", wire_spec.name, make_sender, params=params,
                journal_dir=self._journal_dir,
                session_id=session_id, config=self._config,
                # Drawn before the factory touches the rng, like every
                # session: a restarted, identically seeded peer replays.
                rng=random.Random(cat.rng.getrandbits(64)),
                recorder=cat.recorder, chunk_size=chunk_size,
            )
            return core

        core, state = host_session(self._listener, self._config, admit)
        return QueryResult(
            answer=None,
            mode=plan["kind"],
            cache_hit=plan["commit"](plan["state"]),
            size_v_r=state.size_v_r,
            stats=core.stats,
        )


def run(
    protocol: str | ProtocolSpec,
    receiver_data: Any,
    sender_data: Any,
    *,
    bits: int = 512,
    params: PublicParams | None = None,
    seed: Any = None,
    rng: random.Random | None = None,
    engine: Any = None,
    recorder: Any = None,
    chunk_size: int | None = None,
) -> RunResult:
    """Run both parties of any registered protocol in-process.

    The two party machines of :func:`~repro.protocols.spec.run_pair`,
    then R's ``finish``; the result keeps the wires for its
    ``transcript``. Delta specs (``"<name>+delta"``) run the same way
    on :class:`~repro.protocols.delta.DeltaExchange` inputs (the caller
    owns the base state).

    Args:
        protocol: registry name (or an unregistered spec object).
        receiver_data: party R's private input (a value sequence).
        sender_data: party S's private input, shaped per
            ``spec.sender_input`` (value list, ``v -> ext(v)`` map, or
            ``v -> amount`` map).
        bits: safe-prime modulus size when ``params`` is not given.
        params: explicit public parameters (overrides ``bits``).
        seed: seed for reproducible runs; R draws from the stream
            ``"<seed>/R"``, S from ``"<seed>/S"``.
        rng: explicit master rng (overrides ``seed``); each party gets
            an rng seeded from it.
        engine: batch-crypto execution strategy
            (:mod:`repro.crypto.engine`); by default the process-wide
            thread engine over this process's CPUs, as for every entry
            point; batches too small to pay never reach its threads.
        recorder: per-phase metrics collector
            (:class:`repro.analysis.instrumentation.MetricsRecorder`).
        chunk_size: stream chunkable rounds in slices of at most this
            many elements; ``None`` exchanges whole-round payloads.
    """
    spec = get_spec(protocol)
    if params is None:
        params = PublicParams.for_bits(bits)
    receiver, sender, wires = run_pair(
        spec, receiver_data, sender_data, params, *_party_rngs(seed, rng),
        engine=_metered(engine, recorder), recorder=recorder,
        chunk_size=chunk_size,
    )
    return RunResult(
        answer=receiver.finish(),
        size_v_r=getattr(sender.state, "size_v_r", None),
        size_v_s=getattr(receiver.state, "size_v_s", None),
        _record=partial(spec.transcript, wires, chunk_size),
    )


def serve(
    protocol: str | ProtocolSpec,
    data: Any,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    bits: int = 512,
    params: PublicParams | None = None,
    seed: Any = None,
    rng: random.Random | None = None,
    ready_callback: Callable[[int], None] | None = None,
    timeout: float | None = None,
    engine: Any = None,
    recorder: Any = None,
    chunk_size: int | None = None,
    session: SessionOptions | None = None,
) -> ServeResult:
    """Run party S of any registered protocol as a TCP server.

    Blocks until one receiver has been served and returns a
    :class:`ServeResult` carrying the actual bound port - with
    ``port=0`` the kernel picks a free one, exposed as
    ``ServeResult.port`` (and still passed to ``ready_callback`` as
    soon as the listener is up). The run is one session
    (:func:`repro.net.tcp.serve_resumable_sender`, hosted as a
    :class:`~repro.net.server.ProtocolServer` hosts each of its own):
    a hello / welcome handshake that carries the params, then the
    spec's rounds as checksummed, acknowledged frames. With
    ``session=None`` it is one connection - the first failure ends the
    run - and nothing has a deadline unless ``timeout`` gives one.

    ``session=SessionOptions(...)`` makes it resumable: deadlines on
    every frame, resume after disconnects, chunk-granular cursors when
    ``chunk_size`` is set, and - with a ``journal_dir`` - crash
    recovery from the on-disk round journal; with no
    ``session.config``, ``timeout`` is the session's frame deadline.
    This serves one run and returns; to serve many sessions
    concurrently, host them on a
    :class:`~repro.net.server.ProtocolServer` (or
    :class:`~repro.net.shard.ShardedProtocolServer`).
    """
    from .net import tcp

    spec = get_spec(protocol)
    if params is None:
        params = PublicParams.for_bits(bits)
    bound: dict[str, int] = {}

    def _capture(actual_port: int) -> None:
        bound["port"] = actual_port
        if ready_callback is not None:
            ready_callback(actual_port)

    size_v_r, stats = tcp.serve_resumable_sender(
        spec.name, data, params, _key_rng(rng, seed),
        host=host, port=port, ready_callback=_capture,
        config=_session_config(session, timeout),
        engine=_metered(engine, recorder), recorder=recorder,
        journal_dir=_journal(session), chunk_size=chunk_size,
    )
    return ServeResult(size_v_r=size_v_r, port=bound["port"], stats=stats)


def connect(
    protocol: str | ProtocolSpec,
    data: Any,
    *,
    host: str = "127.0.0.1",
    port: int,
    seed: Any = None,
    rng: random.Random | None = None,
    timeout: float | None = None,
    engine: Any = None,
    recorder: Any = None,
    chunk_size: int | None = None,
    retry: Any = None,
    session: SessionOptions | None = None,
) -> ConnectResult:
    """Run party R of any registered protocol as a TCP client.

    The server's welcome carries the public parameters, so R needs no
    setup beyond the address. Returns a :class:`ConnectResult` whose
    ``answer`` is the protocol's output for R. The run is one session
    (:func:`repro.net.tcp.connect_resumable_receiver`) against any
    server that speaks the session wire - a :func:`serve`, a serving
    :class:`Peer`, a :class:`~repro.net.server.ProtocolServer`. With
    ``session=None`` it is one connection: a refused dial or a dropped
    link raises at once, and nothing has a deadline unless ``timeout``
    gives one. ``session=SessionOptions(...)`` makes it resumable
    (reconnects, resume, journal). ``chunk_size`` streams R's chunkable
    outgoing rounds; inbound chunking is auto-detected either way. The
    session runs on the calling thread's own event loop (kept for the
    thread's next query), so a thread whose loop is running cannot
    call this (``RuntimeError``).

    Without ``retry`` a typed refusal (a busy server is an immediate
    :class:`~repro.net.session.ServerBusyError`) propagates. ``retry``
    is a :class:`~repro.net.session.ClientRetryPolicy` (or a
    ``"key=value,..."`` spec string for
    :meth:`~repro.net.session.ClientRetryPolicy.parse`) governing max
    dial attempts, per-attempt timeout, a total deadline budget,
    jittered exponential backoff that honors server retry hints, and
    *which* typed failures are redialed - busy refusals and
    :class:`~repro.net.session.WorkerLost` (a supervised shard whose
    worker is mid-respawn) by default. The failures waited out are
    reported as ``ConnectResult.retries`` / ``busy_retries``. With a
    ``session`` that has no ``config`` the policy also shapes the
    session config (per-attempt timeout, in-session reconnect budget);
    with neither, ``timeout`` is the session's frame deadline.
    """
    from .net import tcp
    from .net.session import ClientRetryPolicy

    spec = get_spec(protocol)
    rng = _key_rng(rng, seed)
    if isinstance(retry, str):
        retry = ClientRetryPolicy.parse(retry)
    run: dict[str, Any] = dict(
        config=_session_config(session, timeout, retry),
        engine=_metered(engine, recorder), recorder=recorder,
        journal_dir=_journal(session), chunk_size=chunk_size,
    )

    def _attempt() -> tuple[Any, Any]:
        return tcp.connect_resumable_receiver(
            spec.name, data, rng, host, port, **run
        )

    retries = busy_retries = 0
    if retry is None:
        answer, stats = _attempt()
    else:
        # Jittered from the CSPRNG: identically seeded clients refused
        # in one burst do not redial in lockstep, and R's keys are the
        # seed's with or without a policy.
        (answer, stats), retries, busy_retries = retry.redial(
            _attempt, _key_rng()
        )
    return ConnectResult(
        answer=answer, stats=stats, busy_retries=busy_retries, retries=retries
    )

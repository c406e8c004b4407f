"""Separable party state machines and the generic spec interpreters.

The driver functions in :mod:`repro.protocols.intersection` etc. are
convenient for simulation and analysis, but they hold both parties'
secrets in one stack frame. A downstream deployment needs each party
as its *own* object that sees only its inputs, its randomness and the
messages addressed to it - so it can sit behind any transport
(the in-process exchange, the TCP transport in :mod:`repro.net.tcp`,
or a message queue).

Message flow (intersection, Section 3.3):

    receiver = IntersectionReceiver(v_r, params, rng)
    sender   = IntersectionSender(v_s, params, rng)
    m1 = receiver.round1()            # Y_R            (R -> S)
    m2 = sender.round1(m1)            # Y_S + pairs    (S -> R)
    answer = receiver.finish(m2)

and for the size variant the same shape with an unpaired ``Z_R``.
Every round payload is a typed dataclass from
:mod:`repro.protocols.messages`; raw wire payloads are also accepted
and coerced, so pre-spec callers keep working.

Those ``round1`` / ``finish`` calls are the whole-message driver of
steps each party implements once, over ``(added, removed)``
(:class:`_Party`): ``own``, S's ``answer`` / ``reply`` and R's
``absorb``.  The streamed chunk producers in
:mod:`repro.protocols.spec` and the delta sessions of
:mod:`repro.protocols.delta` drive the same steps, so every cipher and
hash call of a party lives in this module.

Parameters travel as :class:`PublicParams` - everything public both
sides must agree on (the modulus and the hash construction).  Private
per-party machinery (group, hash, cipher and optional ext cipher
instances) can instead be injected as a :class:`CryptoContext`, which
is how the in-memory drivers share one counting suite across both
parties.

On top of the concrete parties sit :class:`SenderMachine` and
:class:`ReceiverMachine`: generic interpreters that execute any
:class:`~repro.protocols.spec.ProtocolSpec` round schedule, threading
the ``engine=``/``recorder=`` hooks.  All three transports (in-memory,
plain TCP, resumable sessions) drive protocols exclusively through
these two machines.
"""

from __future__ import annotations

import copy
import math
import random
from contextlib import nullcontext
from collections import Counter
from collections.abc import MutableMapping
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from ..crypto.commutative import PowerCipher
from ..crypto.engine import CryptoEngine
from ..crypto.ext_cipher import BlockExtCipher, ExtCipher
from ..crypto.groups import QRGroup
from ..crypto.hashing import DomainHash, SquareHash, TryIncrementHash
from ..crypto.paillier import PaillierPublicKey, generate_keypair
from .base import HashCollisionError, sorted_ciphertexts
from .messages import (
    BlindedSum,
    ChunkAssembler,
    CipherList,
    EquijoinReply,
    IntersectionReply,
    Message,
    ProtocolViolation,
    RevealedSum,
    SizeReply,
    SumReply,
)

__all__ = [
    "PublicParams",
    "CryptoContext",
    "PartyCache",
    "IntersectionReceiver",
    "IntersectionSender",
    "IntersectionSizeReceiver",
    "IntersectionSizeSender",
    "EquijoinReceiver",
    "EquijoinSender",
    "EquijoinSizeReceiver",
    "EquijoinSizeSender",
    "EquijoinSumReceiver",
    "EquijoinSumSender",
    "ReceiverMachine",
    "SenderMachine",
]

_HASH_REGISTRY: dict[str, type[DomainHash]] = {
    "try-increment": TryIncrementHash,
    "square": SquareHash,
}


@dataclass(frozen=True)
class PublicParams:
    """The public protocol parameters both parties must share."""

    p: int
    hash_name: str = "try-increment"

    @classmethod
    def for_bits(cls, bits: int) -> "PublicParams":
        """Params over the embedded safe prime of the given size."""
        return cls(p=QRGroup.for_bits(bits).p)

    def build(
        self, engine: CryptoEngine | None = None
    ) -> tuple[QRGroup, DomainHash, PowerCipher]:
        """Instantiate the group, hash and cipher these params name.

        ``engine`` selects the batch execution strategy for the cipher
        (a local choice - it never crosses the wire and has no effect
        on the transcript).
        """
        group = QRGroup(self.p)
        hash_cls = _HASH_REGISTRY.get(self.hash_name)
        if hash_cls is None:
            raise ValueError(f"unknown hash construction {self.hash_name!r}")
        return group, hash_cls(group), PowerCipher(group, engine=engine)

    def to_wire(self) -> tuple[int, str]:
        """Encodable form for the transport handshake."""
        return (self.p, self.hash_name)

    @classmethod
    def from_wire(cls, payload: tuple[int, str]) -> "PublicParams":
        """Inverse of :meth:`to_wire`."""
        p, hash_name = payload
        return cls(p=int(p), hash_name=str(hash_name))


@dataclass(frozen=True)
class CryptoContext:
    """Concrete crypto machinery one party computes with.

    Normally derived from :class:`PublicParams` (each party builds its
    own instances), but injectable so the in-memory drivers can route
    both parties through one shared suite - e.g. the counting suite
    used by :mod:`repro.analysis.instrumentation`.
    """

    group: QRGroup
    hash: DomainHash
    cipher: PowerCipher
    ext_cipher: ExtCipher | None = None

    @classmethod
    def from_params(
        cls, params: PublicParams, engine: CryptoEngine | None = None
    ) -> "CryptoContext":
        """Instantiate fresh machinery from the shared public params."""
        group, hash_, cipher = params.build(engine=engine)
        return cls(group=group, hash=hash_, cipher=cipher)

    @classmethod
    def from_suite(cls, suite: Any) -> "CryptoContext":
        """Adopt a :class:`~repro.protocols.base.ProtocolSuite`'s instances."""
        return cls(
            group=suite.group,
            hash=suite.hash,
            cipher=suite.cipher,
            ext_cipher=suite.ext_cipher,
        )

    def ext(self) -> ExtCipher:
        """The ext-payload cipher (a default block cipher if not injected)."""
        if self.ext_cipher is not None:
            return self.ext_cipher
        return BlockExtCipher(self.group)


@dataclass(frozen=True)
class PartyCache:
    """Previously persisted per-party crypto state (a catalog-cache hit).

    ``keys`` holds the party's commutative-cipher keys in draw order;
    ``hashes`` maps each value of the table to its hash, and
    ``ciphertexts`` holds one map per key, in key order, from each
    value to its hash's encryption under that key.  ``peers`` holds the
    party's peer maps, one per key in key order, each ``y -> f_key(y)``
    over the peer-supplied elements the link held (equijoin's R strips
    under its key's inverse).  Injecting a cache skips the rng key
    draw, the O(|V|) hash + modexp setup, and every exponentiation of a
    peer element the peer sends again.  The party takes the maps as its
    own, uncopied: a cache is injected into one party.  The
    ciphertexts are only valid under the same public params and keys
    they were produced with — the catalog layer verifies the key
    fingerprint before injecting.
    """

    keys: tuple
    hashes: dict
    ciphertexts: tuple[dict, ...]
    peers: tuple[dict, ...] = ()


def _resolve_crypto(
    params: PublicParams,
    engine: CryptoEngine | None,
    crypto: CryptoContext | None,
) -> CryptoContext:
    """The injected context, or fresh machinery from the params."""
    if crypto is not None:
        return crypto
    return CryptoContext.from_params(params, engine=engine)


_GONE = object()


class _Staged(MutableMapping):
    """A mapping staged over ``base``: reads fall through to it, writes
    and deletes land in ``patch`` (a deleted key maps to ``_GONE``), so
    ``base`` is untouched until :meth:`commit` and staging costs nothing
    per entry ``base`` holds."""

    def __init__(self, base: MutableMapping):
        self.base = base
        self.patch: dict = {}

    def __getitem__(self, key: Hashable) -> Any:
        value = self.patch.get(key, self)
        if value is self:  # not staged: the base's
            # ``get``, not ``[]``: a Counter answers 0 for a missing key.
            value = self.base.get(key, _GONE)
        if value is _GONE:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        value = self.patch.get(key, self)
        return key in self.base if value is self else value is not _GONE

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.patch[key] = value

    def __delitem__(self, key: Hashable) -> None:
        if key not in self:
            raise KeyError(key)
        self.patch[key] = _GONE

    def __iter__(self):
        patch = self.patch
        return chain(
            filterfalse(patch.__contains__, self.base),
            (key for key, value in patch.items() if value is not _GONE),
        )

    def __len__(self) -> int:
        base = self.base
        return len(base) + sum(
            (value is not _GONE) - (key in base)
            for key, value in self.patch.items()
        )

    def commit(self) -> MutableMapping:
        """Apply the patch to ``base`` in place, O(|patch|); returns
        ``base``."""
        base = self.base
        for key, value in self.patch.items():
            if value is _GONE:
                base.pop(key, None)
            else:
                base[key] = value
        return base


def _patch(counts: MutableMapping, added: Iterable, removed: Iterable) -> dict:
    """Apply one ``(added, removed)`` churn (occurrence lists or
    counters) to an occurrence map in place, dropping the entries it
    drains.  Returns the change it made to each key it touched."""
    net = Counter(added)
    if not counts and not removed:  # a full query's: every count is new
        counts.update(net)
        return net
    net.subtract(removed)
    moved = {}
    for key, n in net.items():
        before = counts.get(key, 0)
        after = max(before + n, 0)
        if after:
            counts[key] = after
        else:
            counts.pop(key, None)
        moved[key] = after - before
    return moved


def _moved(record: Iterable[tuple] | None, held: Mapping) -> tuple[list, list]:
    """The keys a record of ``(key, held then)`` notes says ``held``
    gained and lost since the record began, in the order they first
    moved."""
    was: dict = {}
    for key, before in record or ():
        was.setdefault(key, before)
    gained = [key for key, before in was.items() if not before and key in held]
    lost = [key for key, before in was.items() if before and key not in held]
    return gained, lost


def _columns(rows: Sequence[tuple], width: int) -> list:
    """``rows`` of ``width`` items as ``width`` columns."""
    return list(zip(*rows)) or [()] * width


def _distinct(items: Sequence, what: str) -> None:
    """:class:`ProtocolViolation` when ``items`` repeats an element."""
    if len(set(items)) != len(items):
        raise ProtocolViolation(f"{what}: an element repeats")


def _check_pairs(added: Sequence, removed: Sequence) -> None:
    """S's ``(codeword, payload)`` churn names each of its codewords -
    one per value it holds - once; a second payload under one codeword
    is no table's."""
    _distinct([codeword for codeword, _ in added], "pairs")
    _distinct(removed, "pair tombstones")


class _Party:
    """One party's cross-query state and the steps that move it.

    The paper's protocols are one per-value map, so every step here is
    written once over ``(added, removed)``: a full query adds the whole
    table to an empty state, a streamed query calls the same steps per
    segment, a delta query passes the staged churn.  The steps patch
    the party in place, so each driver hands them the state to patch:
    the full drivers (``round1`` / ``round2`` / ``finish``) first empty
    what their step patches (:meth:`reset`, :meth:`_declare`) - which
    also makes them safe to call again - while a streamed round and a
    delta run on a :meth:`fork` that :meth:`adopt` folds back once the
    stream is exhausted / the exchange has committed.  A fork copies
    nothing: it reads the party's containers through :class:`_Staged`
    views and keeps its own writes, which ``adopt`` applies in place -
    so a step costs what its ``(added, removed)`` costs, whatever the
    party holds.

    * :meth:`own` - encrypt/tombstone my own values (both roles);
    * ``answer`` - S's reply to a batch of the peer's ciphertexts
      (pairs, ``Z_R`` or triples), ``reply`` composing it with ``own``
      into the parts of one round;
    * ``absorb`` - R patches what it holds of S and moves the answer it
      maintains by what the patch touched; the caller gets a snapshot.

    Every exponentiation of a peer-supplied element goes through one
    *peer map* per key, ``y -> f_key(y)`` (:meth:`_through`): the cipher
    is deterministic, so an element the peer sends again costs nothing.
    A map holds the peer elements the link holds - a full query keeps
    what it received, a peer tombstone drops its entry - and
    :meth:`peer_maps` hands them to the catalog, and
    :meth:`cache_churn` what they and the own entries gained and lost
    since it last asked.

    With an injected :class:`PartyCache` the keys, hashes, own
    ciphertexts and peer maps are the cache's maps, taken uncopied (no
    rng draw, no hashing, no own modexp, none for a peer element the
    cache holds).  The collision check still runs: a file that holds
    two values under one hash passes every check of its own (its CRC
    seals what was written, not whether it is a set's), and the check
    costs nothing - the inverse of the hash map is built either way,
    and a collision is the two maps' lengths differing.
    """

    #: Commutative-cipher keys the party draws.
    n_keys = 1
    #: The own-ciphertext maps, one per key in key order:
    #: ``v -> f_key(h(v))``.
    _own_names: tuple[str, ...] = ("_y_by_value",)
    #: The peer maps, one per key in key order: ``y -> f_key(y)`` over
    #: the peer-supplied elements the link holds.
    _peer_names: tuple[str, ...] = ("_f_by_y",)
    #: Whether the catalog layer may persist this party's own-set state.
    cacheable = True
    #: Whether building the party is hashing its table and drawing its
    #: keys, nothing slower: what a hosted session may declare as the
    #: build's work.
    light_build = True

    def __init__(
        self,
        values: Any,
        params: PublicParams,
        rng: random.Random,
        engine: CryptoEngine | None = None,
        crypto: CryptoContext | None = None,
        cached: PartyCache | None = None,
    ):
        self.params = params
        self.crypto = _resolve_crypto(params, engine, crypto)
        self.group, self.hash, self.cipher = (
            self.crypto.group,
            self.crypto.hash,
            self.crypto.cipher,
        )
        self.rng = rng
        #: The table as a full query's ``added`` (value -> payload, or
        #: value -> occurrences for the multiset parties); read-only, so
        #: forks share it.
        self.opening = MappingProxyType(self._table(values))
        #: The values the latest :meth:`own` step added, and how many
        #: ciphertexts it sent as added and as tombstoned.
        self._announced: list = []
        self._sent = (0, 0)
        #: The own values and the peer elements whose entries moved
        #: since the latest :meth:`cache_churn`, in the order they
        #: moved, each with whether the party held it then - no record
        #: before that first call, unless the party was built from a
        #: cache.  Only ever rebound, so a fork copies nothing for them.
        self._own_moved, self._peer_moved = (None, None) if cached is None else ((), ())
        self._declare()
        owns = peers = ()
        if cached is None:
            self._keys = tuple(
                self.cipher.sample_key(rng) for _ in range(self.n_keys)
            )
            hashes = dict(zip(self.opening, self.hash.hash_set(self.opening)))
        else:
            self._keys = tuple(cached.keys)
            if len(self._keys) != self.n_keys:
                raise ValueError(
                    f"party cache holds {len(self._keys)} keys, "
                    f"this party draws {self.n_keys}"
                )
            if cached.hashes.keys() != self.opening.keys():
                raise ValueError("party cache does not hold exactly the party's values")
            hashes, owns, peers = cached.hashes, cached.ciphertexts, cached.peers
        self._key = self._keys[0]
        for names, maps in ((self._own_names, owns), (self._peer_names, peers)):
            for name, fs in zip(names, maps or [{} for _ in names]):
                setattr(self, name, fs)
        #: ``h(v)`` per held value and its exact inverse, which is what
        #: a fresh hash is checked against: the whole set is new, so
        #: the paper's collision check is the inverse coming out short.
        self._hash_by_value: dict = hashes
        self._value_by_hash: dict = dict(zip(hashes.values(), hashes))
        if len(self._value_by_hash) != len(hashes):
            raise HashCollisionError(
                "hash collision within the party's set "
                f"({len(hashes) - len(self._value_by_hash)} values share "
                "another's hash)"
            )

    @property
    def values(self) -> list:
        """The party's distinct values, sorted by ``repr``."""
        return sorted(self._hash_by_value, key=repr)

    @staticmethod
    def _table(values: Iterable[Hashable]) -> Mapping:
        """The constructor's input as the first query's ``added``, in
        input order: every list a step builds from it ships reordered."""
        return dict.fromkeys(values)

    def _declare(self) -> None:
        """Declare, empty, what the party holds of its peer across
        queries."""
        #: ``|V_S|`` as R / ``|V_R|`` as S knows it; ``None`` until a
        #: query has completed.
        self.size_v_s: int | None = None
        self.size_v_r: int | None = None

    def reset(self) -> None:
        """Back to the empty state a full query starts from.  Own
        hashes and ciphertexts are functions of the table and the keys
        alone, and stay."""
        self._declare()

    def _own_maps(self) -> tuple[dict, ...]:
        """The own-ciphertext maps, one per key, in key order."""
        return tuple(getattr(self, name) for name in self._own_names)

    # ------------------------------------------------------------------
    # The peer maps
    # ------------------------------------------------------------------
    def _peer_keys(self) -> tuple:
        """The key each peer map exponentiates under."""
        return self._keys

    def _through(self, ys: Sequence[int], index: int = 0) -> list[int]:
        """``f_key(y)`` per ``y`` under peer key ``index``: one engine
        batch over the occurrences whose element its map lacks (every
        one, as Section 5.2 counts a multiset's), the rest map hits."""
        fs = getattr(self, self._peer_names[index])
        late = [y for y in ys if y not in fs]
        fs.update(zip(late, self._encrypt(self._peer_keys()[index], late)))
        self._note("_peer_moved", late, False)
        return [fs[y] for y in ys]

    def _forget(self, ys: Iterable[int]) -> None:
        """Drop the entries of peer elements the link no longer holds."""
        maps = self.peer_maps()
        gone = [y for y in dict.fromkeys(ys) if y in maps[0]]
        self._note("_peer_moved", gone, True)
        for fs in maps:
            for y in gone:
                del fs[y]

    def _narrow(self, ys: Iterable[int]) -> None:
        """A full query: what the peer sent is all the link holds, so
        the maps drop every other element, in place."""
        self._forget(self.peer_maps()[0].keys() - set(ys))

    def cache_churn(self) -> tuple[dict, list, tuple[dict, ...], list]:
        """What the party's cacheable state gained and lost since the
        latest call.

        ``(adds, dels, peer_adds, peer_dels)`` since the call before or
        since the party was built, as
        :meth:`~repro.net.catalog.CatalogCache.append_delta` takes them:
        the own values gained with their entries, the values lost, the
        maps of the peer elements gained (one per key) and the elements
        lost.  A value or element that left and came back is no churn.
        What a cache commit writes, whether the maps are the cache
        entry's own or not.  A party built without a cache reports
        nothing on the first call: what it holds then is written
        whole."""
        maps = self.peer_maps()
        values, gone = _moved(self._own_moved, self._hash_by_value)
        ys, lost = _moved(self._peer_moved, maps[0])
        self._own_moved, self._peer_moved = (), ()
        return (
            self.cache_entries(values), gone,
            tuple({y: fs[y] for y in ys} for fs in maps), lost,
        )

    # ------------------------------------------------------------------
    # The own-set step
    # ------------------------------------------------------------------
    def _encrypt(self, key: int, xs: Sequence[int]) -> list[int]:
        """One engine batch - none at all for an empty list."""
        return self.cipher.encrypt_many(key, xs) if xs else []

    def _learn(self, values: Iterable[Hashable]) -> None:
        """Hash the not-yet-hashed among ``values``, each fresh hash
        checked against every held one and the fresh ones before it -
        as exact as the sort, at the cost of the fresh values alone."""
        fresh = [v for v in values if v not in self._hash_by_value]
        for v, hashed in zip(fresh, self.hash.hash_set(fresh)):
            if hashed in self._value_by_hash:
                raise HashCollisionError(
                    "hash collision within the party's set "
                    "(a new value's hash is a held value's)"
                )
            self._hash_by_value[v] = hashed
            self._value_by_hash[hashed] = v
        self._note("_own_moved", fresh, False)

    def _retire(self, v: Hashable) -> int:
        """Forget one own value; its ciphertext is the tombstone."""
        del self._value_by_hash[self._hash_by_value.pop(v)]
        self._note("_own_moved", [v], True)
        return [ys.pop(v) for ys in self._own_maps()][0]

    def _own(self, added: Mapping, removed: Iterable) -> tuple[list, list]:
        """Tombstone ``removed``, then hash and encrypt what ``added``
        brings that the party holds no ciphertext for (a cache hit
        brings none).  Returns the two ciphertext lists, aligned to the
        inputs."""
        tombstones = [self._retire(v) for v in removed]
        self._learn(added)
        self._fill(added)
        return [self._y_by_value[v] for v in added], tombstones

    def _fill(self, values: Iterable[Hashable]) -> None:
        """Encrypt, under every key, the hashed values among ``values``
        the party holds no ciphertext for."""
        fresh = [v for v in values if v not in self._y_by_value]
        hashes = [self._hash_by_value[v] for v in fresh]
        for key, ys in zip(self._keys, self._own_maps()):
            ys.update(zip(fresh, self._encrypt(key, hashes)))

    def warm(self) -> None:
        """Encrypt the table ahead of the round that ships it.

        Fills the own-ciphertext maps :meth:`own` reads and touches
        nothing else - no rng, no count, no ``_announced`` - so it may
        run (or not, or twice) any time after construction: the round
        step finds its modexp done and only reorders.
        """
        self._fill(self._hash_by_value)

    def own(self, added: Mapping, removed: Iterable) -> tuple[list, list]:
        """Encrypt/tombstone my own values: the ``(added, removed)``
        ciphertexts, each reordered lexicographically."""
        ys, tombstones = self._own(added, removed)
        self._announced = list(added)
        self._sent = (len(ys), len(tombstones))
        return sorted_ciphertexts(ys), sorted_ciphertexts(tombstones)

    def churn(self, inserts: Iterable, deletes: Iterable) -> tuple[dict, list]:
        """Normalise staged ``(value, payload)`` inserts and deletes
        against the table into ``(added, removed)``, both in ``repr``
        order: deleting an absent value and re-inserting a present one
        without a payload are no-ops; inserting a present value *with*
        a payload is a replace (tombstone + insert)."""
        removed = {v for v in deletes if v in self._hash_by_value}
        payloads = {}
        for v, payload in inserts:
            if v in self._hash_by_value and v not in removed:
                if payload is None:
                    continue
                removed.add(v)
            payloads[v] = payload
        return (
            {v: payloads[v] for v in sorted(payloads, key=repr)},
            sorted(removed, key=repr),
        )

    # ------------------------------------------------------------------
    # Role plumbing shared by the concrete parties
    # ------------------------------------------------------------------
    def round1(self) -> CipherList:
        """R's opening round: the whole table added, reordered."""
        self.reset()
        return CipherList(self.own(self.opening, ())[0])

    def _serve(self, y_r: CipherList) -> tuple:
        """S's full reply: the whole of ``Y_R`` heard and the whole
        table added, against the empty state."""
        self.reset()
        return self.reply(list(CipherList.coerce(y_r)), (), self.opening, ())

    def hear(self, added: Sequence, removed: Sequence = ()) -> None:
        """S notes the size of what R announced - all it learns.

        Called once its reply has answered R: on a full query the peer
        maps keep what R announced, on a delta they drop R's
        tombstones."""
        if self.size_v_r is None:
            self._narrow(added)
        self._forget(removed)
        self.size_v_r = (self.size_v_r or 0) + len(added) - len(removed)

    def absorb_ahead(self, ys: Sequence) -> None:
        """R re-encrypts one ``Y_S`` segment ahead of the whole reply.

        Only the peer map :meth:`_absorb_y_s` reads is filled (rng-free).
        """
        self._through(ys)

    def _answered(self, ys: Sequence[int], seconds: Sequence, what: str) -> list:
        """The values the latest :meth:`own` announced, aligned to the
        ``ys`` S's answers are keyed on, once the answers are checked:
        one per announced ``y``, and no second element (a double, a
        codeword) twice - else :class:`ProtocolViolation`, before R
        changes anything."""
        mine = dict(zip(map(self._y_by_value.__getitem__, self._announced), self._announced))
        if len(ys) != len(mine) or mine.keys() != set(ys):
            raise ProtocolViolation(f"{what}: not one answer per ciphertext R sent")
        _distinct(seconds, what)
        return list(map(mine.__getitem__, ys))

    @staticmethod
    def _check_y_s(added: Sequence, removed: Sequence) -> None:
        """A set's ``Y_S`` churn repeats no codeword."""
        _distinct(added, "Y_S")
        _distinct(removed, "Y_S tombstones")

    def _absorb_y_s(self, added: Sequence, removed: Sequence) -> dict:
        """R re-encrypts S's churn under its own key into ``Z_S``
        through its peer map, which then holds the ``Y_S`` of the link:
        all of a full query's, or less the tombstones whose last
        occurrence left.  Returns the change to each ``Z_S`` count it
        touched."""
        self._check_y_s(added, removed)
        z_s = self._z_s
        moved = _patch(z_s, self._through(added), self._through(removed))
        if self.size_v_s is None:
            self._narrow(added)
        self._forget([y for y in removed if self._f_by_y[y] not in z_s])
        self.size_v_s = (self.size_v_s or 0) + len(added) - len(removed)
        return moved

    # ------------------------------------------------------------------
    # Staging and persistence
    # ------------------------------------------------------------------
    def fork(self) -> "_Party":
        """A twin staging every container the steps patch in place
        (the lists are only ever rebound) over this party's own: steps
        run on it leave this party untouched until :meth:`adopt`, and
        nothing this party holds is walked to make it."""
        twin = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, MutableMapping):
                setattr(twin, name, _Staged(value))
        return twin

    def adopt(self, fork: "_Party") -> None:
        """Fold a fork's state in (a delta's commit).

        It costs what the fork wrote: its staged writes land in the
        containers they were staged over, what it rebound (``reset`` /
        ``_declare``) is taken as it is, and this party is left holding
        plain containers."""
        for name, value in vars(fork).items():
            if isinstance(value, _Staged):
                value = value.commit()
            setattr(self, name, value)

    def cache_keys(self) -> tuple:
        """The party's cipher keys in draw order (for catalog caching)."""
        return self._keys

    def _note(self, record: str, keys: Iterable, held: bool) -> None:
        """Note in the churn ``record``, if one runs, that the entries
        of ``keys`` moved, each ``held`` before."""
        moved = getattr(self, record)
        if moved is not None:
            setattr(self, record, (*moved, *zip(keys, repeat(held))))

    def peer_maps(self) -> tuple[Mapping[int, int], ...]:
        """The peer maps, one per key in key order: ``y -> f_key(y)``."""
        return tuple(getattr(self, name) for name in self._peer_names)

    def cache_entries(self, values: Iterable[Hashable] | None = None) -> dict:
        """Per-value ``(hash, ciphertexts)`` for catalog caching, one
        ciphertext per key: of the whole table, or of those among
        ``values`` the party (still) holds - what a delta's commit
        needs.  Raises :class:`KeyError` while the party has not yet
        encrypted its own set."""
        held = self._hash_by_value
        values = [v for v in (held if values is None else values) if v in held]
        hashes = [self._hash_by_value[v] for v in values]
        ciphertexts = zip(*([ys[v] for v in values] for ys in self._own_maps()))
        return dict(zip(values, zip(hashes, ciphertexts)))


class _MultisetParty(_Party):
    """The Section 5.2 own-set form: one ciphertext per *occurrence*,
    duplicates preserved under the deterministic cipher.  ``added`` and
    ``removed`` are occurrence counters."""

    def __init__(self, *args: Any, **kwargs: Any):
        #: The table: occurrences per distinct value.
        self._counts: Counter = Counter()
        super().__init__(*args, **kwargs)

    def reset(self) -> None:
        """Additionally empty the table's occurrence counts, which
        :meth:`own` accumulates."""
        super().reset()
        self._counts = Counter()

    @staticmethod
    def _check_y_s(added: Sequence, removed: Sequence) -> None:
        """A multiset's ``Y_S`` repeats a codeword per occurrence."""

    @staticmethod
    def _table(values: Iterable[Hashable]) -> Counter:
        """Occurrences per value (a
        :class:`~repro.db.multiset.ValueMultiset` iterates its own)."""
        return Counter(values)

    def _own(self, added: Counter, removed: Counter) -> tuple[list, list]:
        """Tombstone the values whose last occurrence goes - first, as
        :meth:`_Party._own` does: a hash that leaves is free for what
        comes -, hash and encrypt each newly seen distinct value once,
        expand both sides by multiplicity and settle the counts.  A
        value the one churn both inserts and drains is forgotten last,
        once its ciphertexts are listed."""
        leaving = [
            v for v, n in Counter(removed).items()
            if v not in added and n >= self._counts.get(v, 0)
        ]
        gone = dict(zip(leaving, super()._own(added, leaving)[1]))
        ys = tuple(
            [
                gone[v] if v in gone else self._y_by_value[v]
                for v in Counter(counts).elements()
            ]
            for counts in (added, removed)
        )
        _patch(self._counts, added, removed)
        for v in removed:
            if v not in self._counts and v not in gone:
                self._retire(v)
        return ys

    def churn(self, inserts: Iterable, deletes: Iterable) -> tuple[Counter, Counter]:
        """Staged occurrences as counters; deleting more occurrences
        than the table and the inserts hold is an error."""
        added = Counter(v for v, _ in inserts)
        removed = Counter(deletes)
        for v, n in removed.items():
            have = self._counts[v] + added[v]
            if n > have:
                raise ValueError(
                    f"cannot delete {n} occurrences of {v!r} "
                    f"(only {have} present)"
                )
        return added, removed


class IntersectionReceiver(_Party):
    """Party R of the Section 3.3 protocol."""

    def _declare(self) -> None:
        #: ``Z_S`` (occurrence counts; 1 each for the set protocols),
        #: each own value's double encryption ``f_eS(f_eR(h(v)))`` with
        #: its inverse, and the answer: the values whose double is in
        #: ``Z_S`` (a dict for its keys).
        self._z_s: Counter = Counter()
        self._double_by_value: dict = {}
        self._value_by_double: dict = {}
        self._matched: dict = {}
        super()._declare()

    def _retire(self, v: Hashable) -> int:
        self._value_by_double.pop(self._double_by_value.pop(v, None), None)
        self._matched.pop(v, None)
        return super()._retire(v)

    def absorb(
        self, y_s_added: list, y_s_removed: list, pairs_added: list
    ) -> set[Hashable]:
        """Steps 5-6: patch ``Z_S`` and the doubles of what this query
        announced, then re-decide the doubles either patch touched
        (set operations only)."""
        ys, doubles = _columns(pairs_added, 2)
        values = self._answered(ys, doubles, "pairs")
        touched = set(self._absorb_y_s(y_s_added, y_s_removed))
        # What this query announced is new to the party: no double of
        # it is held to replace.
        self._double_by_value.update(zip(values, doubles))
        self._value_by_double.update(zip(doubles, values))
        touched.update(doubles)
        # Re-decide the touched doubles of own values: in Z_S or not.
        hits = touched & self._value_by_double.keys()
        live = hits & self._z_s.keys()
        for double in hits - live:
            self._matched.pop(self._value_by_double[double], None)
        self._matched.update(dict.fromkeys(map(self._value_by_double.__getitem__, live)))
        return set(self._matched)

    def finish(self, reply: IntersectionReply) -> set[Hashable]:
        """Steps 5-6: recover the intersection from S's reply."""
        reply = IntersectionReply.coerce(reply)
        self._declare()
        return self.absorb(reply.y_s, (), reply.pairs)


class IntersectionSender(_Party):
    """Party S of the Section 3.3 protocol."""

    def answer(self, ys: list) -> list:
        """Step 4(b): the ``⟨y, f_eS(y)⟩`` pairs, in the order given."""
        return list(zip(ys, self._through(ys)))

    def reply(
        self, r_added: list, r_removed: list, added: Mapping, removed: Iterable
    ) -> tuple[list, list, list]:
        """Own churn plus pairs for what R added (tombstones on R's
        side need no answer)."""
        parts = (*self.own(added, removed), self.answer(r_added))
        self.hear(r_added, r_removed)
        return parts

    def round1(self, y_r: CipherList) -> IntersectionReply:
        """Steps 4(a)+(b): ``Y_S`` reordered plus the pairs."""
        y_s, _, pairs = self._serve(y_r)
        return IntersectionReply(y_s=y_s, pairs=pairs)


class _SizeReceiver:
    """Party R of Sections 5.1 and 5.2: the set protocol is the
    multiset one with every multiplicity 1."""

    def _declare(self) -> None:
        #: Occurrence counts of ``Z_S`` and of the unpaired ``Z_R``,
        #: and the answer: their matched codewords, each counted by the
        #: product of its multiplicities.
        self._z_s: Counter = Counter()
        self._z_r: Counter = Counter()
        self._overlap = 0
        super()._declare()

    def absorb(
        self, y_s_added: list, y_s_removed: list, z_added: list, z_removed: list
    ) -> int:
        """Steps 5-6: patch both double-encrypted collections.

        One after the other: each count that moves takes the overlap
        with it, by the other side's count of that codeword.  ``Z_R``
        holds one double per ciphertext R sent, on each side."""
        if (len(z_added), len(z_removed)) != self._sent:
            raise ProtocolViolation("Z_R: not one double per ciphertext R sent")
        moved = self._absorb_y_s(y_s_added, y_s_removed)
        for codeword, change in moved.items():
            self._overlap += change * self._z_r.get(codeword, 0)
        moved = _patch(self._z_r, z_added, z_removed)
        for codeword, change in moved.items():
            self._overlap += change * self._z_s.get(codeword, 0)
        return self._overlap

    def finish(self, reply: SizeReply) -> int:
        """Steps 5-6: count the overlap from S's reply."""
        reply = SizeReply.coerce(reply)
        self._declare()
        return self.absorb(reply.y_s, (), reply.z_r, ())


class _SizeSender:
    """Party S of Sections 5.1 and 5.2."""

    def answer(self, ys: list) -> list:
        """Step 4(b): ``f_eS(y)`` per ciphertext - to be reordered
        before it ships, which is what unpairs it."""
        return self._through(ys)

    def reply(
        self, r_added: list, r_removed: list, added: Mapping, removed: Iterable
    ) -> tuple[list, list, list, list]:
        """Own churn plus the reordered doubles of R's churn.

        A tombstone's double is a peer-map hit."""
        parts = (
            *self.own(added, removed),
            sorted_ciphertexts(self.answer(r_added)),
            sorted_ciphertexts(self.answer(r_removed)),
        )
        self.hear(r_added, r_removed)
        return parts

    def round1(self, y_r: CipherList) -> SizeReply:
        """Steps 4(a)+(b): ``Y_S`` plus the unpaired, reordered ``Z_R``."""
        y_s, _, z_r, _ = self._serve(y_r)
        return SizeReply(y_s=y_s, z_r=z_r)


class IntersectionSizeReceiver(_SizeReceiver, _Party):
    """Party R of the Section 5.1 protocol."""


class IntersectionSizeSender(_SizeSender, _Party):
    """Party S of the Section 5.1 protocol."""


class EquijoinSizeReceiver(_SizeReceiver, _MultisetParty):
    """Party R of the Section 5.2 protocol; learns ``|T_S ⋈ T_R|``."""


class EquijoinSizeSender(_SizeSender, _MultisetParty):
    """Party S of the Section 5.2 protocol."""

    def _declare(self) -> None:
        #: Occurrences of each ``Y_R`` element: R tombstones one
        #: occurrence at a time, and the peer maps keep an element
        #: until its last one goes.
        self._y_r: Counter = Counter()
        super()._declare()

    def hear(self, added: Sequence, removed: Sequence = ()) -> None:
        _patch(self._y_r, added, removed)
        super().hear(added, removed)

    def _forget(self, ys: Iterable[int]) -> None:
        super()._forget([y for y in ys if y not in self._y_r])


class EquijoinReceiver(_Party):
    """Party R of the Section 4.3 protocol."""

    def _declare(self) -> None:
        #: Own side: ``codeword -> (value, kappa)``, and S's answer to
        #: each value (the two elements the peer map strips to them);
        #: S's side: ``codeword -> K(kappa, ext)``; the answer: the
        #: decrypted ext of every codeword both sides hold.
        self._by_codeword: dict = {}
        self._answer_by_value: dict = {}
        self._pairs_by_codeword: dict = {}
        self._matches: dict = {}
        super()._declare()

    def _peer_keys(self) -> tuple:
        """R strips its layer: its one peer map is under ``e_R⁻¹``."""
        return (self.cipher.invert_key(self._key),)

    def _retire(self, v: Hashable) -> int:
        answer = self._answer_by_value.pop(v, None)
        if answer is not None:
            self._by_codeword.pop(self._f_by_y[answer[0]], None)
            self._forget(answer)
        self._matches.pop(v, None)
        return super()._retire(v)

    def absorb(
        self, triples_added: list, pairs_added: list, pairs_removed: list
    ) -> dict[Hashable, bytes]:
        """Steps 6-7: strip own layer off the triples this query
        announced, patch both codeword maps, then match and decrypt ext
        for the codewords either patch touched."""
        _check_pairs(pairs_added, pairs_removed)
        ys, seconds, thirds = _columns(triples_added, 3)
        values = self._answered(ys, seconds, "triples")
        codewords = self._through(seconds)
        kappas = self._through(thirds)
        if self.size_v_s is None:
            self._narrow(chain(seconds, thirds))
        for v, second, third, codeword, kappa in zip(
            values, seconds, thirds, codewords, kappas
        ):
            self._by_codeword[codeword] = (v, kappa)
            self._answer_by_value[v] = (second, third)
        for codeword in pairs_removed:
            self._pairs_by_codeword.pop(codeword, None)
        self._pairs_by_codeword.update(
            (codeword, list(ciphertext)) for codeword, ciphertext in pairs_added
        )
        self.size_v_s = len(self._pairs_by_codeword)
        ext_cipher = self.crypto.ext()
        touched = {*codewords, *pairs_removed, *(c for c, _ in pairs_added)}
        for codeword in touched:
            hit = self._by_codeword.get(codeword)
            if hit is not None:
                v, kappa = hit
                ciphertext = self._pairs_by_codeword.get(codeword)
                if ciphertext is None:
                    self._matches.pop(v, None)
                else:
                    self._matches[v] = ext_cipher.decrypt(
                        kappa, list(ciphertext)
                    )
        return dict(self._matches)

    def finish(self, reply: EquijoinReply) -> dict[Hashable, bytes]:
        """Steps 6-7: recover the matches from S's reply."""
        reply = EquijoinReply.coerce(reply)
        self._declare()
        return self.absorb(reply.triples, reply.pairs, ())


class _PayloadSender(_Party):
    """Party S over a ``value -> payload`` table (ext bytes, amounts);
    its ``_y_by_value`` holds the codewords ``f_eS(h(v))``."""

    def __init__(self, *args: Any, **kwargs: Any):
        #: The table.
        self.payloads: dict = {}
        super().__init__(*args, **kwargs)

    @staticmethod
    def _table(payloads: Mapping[Hashable, Any]) -> dict:
        return {v: payloads[v] for v in sorted(payloads, key=repr)}

    def _retire(self, v: Hashable) -> int:
        del self.payloads[v]
        return super()._retire(v)


class EquijoinSender(_PayloadSender):
    """Party S of the Section 4.3 protocol (two keys + ext payloads)."""

    n_keys = 2
    #: The codewords and, under the second key, each value's ``kappa``.
    _own_names = ("_y_by_value", "_kappa_by_value")
    _peer_names = ("_f_by_y", "_kappa_by_y")

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._ext_cipher = self.crypto.ext()

    def answer(self, ys: list) -> list:
        """Step 4: ``⟨y, f_eS(y), f_e'S(y)⟩`` in the order given."""
        return list(zip(ys, self._through(ys, 0), self._through(ys, 1)))

    def pairs(self, added: Mapping, removed: Iterable) -> tuple[list, list]:
        """Step 5 over own churn: the reordered ``⟨codeword, K(kappa,
        ext)⟩`` pairs of ``added`` and the tombstoned codewords."""
        missing = [v for v, payload in added.items() if payload is None]
        if missing:
            raise ValueError(
                f"equijoin inserts need an ext payload ({len(missing)} missing)"
            )
        _, tombstones = self.own(added, removed)
        self.payloads.update((v, bytes(ext)) for v, ext in added.items())
        return (
            sorted(
                (
                    self._y_by_value[v],
                    self._ext_cipher.encrypt(
                        self._kappa_by_value[v], self.payloads[v]
                    ),
                )
                for v in added
            ),
            tombstones,
        )

    def reply(
        self, r_added: list, r_removed: list, added: Mapping, removed: Iterable
    ) -> tuple[list, list, list]:
        """Triples for what R added, pair churn for own."""
        parts = (self.answer(r_added), *self.pairs(added, removed))
        self.hear(r_added, r_removed)
        return parts

    def round1(self, y_r: CipherList) -> EquijoinReply:
        """Steps 4-5: triples over ``Y_R`` plus the pairs."""
        triples, pairs, _ = self._serve(y_r)
        return EquijoinReply(triples=triples, pairs=pairs)


def _check_paillier(pk: PaillierPublicKey, ciphertexts: Iterable[int]) -> None:
    """Every ciphertext lies in ``Z*_{n²}``: in ``[1, n²)`` and coprime
    to ``n`` - else :class:`ProtocolViolation`."""
    n, n_squared = pk.n, pk.n_squared
    if any(not 0 < c < n_squared or math.gcd(c, n) != 1 for c in ciphertexts):
        raise ProtocolViolation("a Paillier ciphertext outside Z*_{n²}")


class EquijoinSumReceiver(_Party):
    """Party R of the equijoin-sum aggregate (paper future work).

    Runs the intersection-size flow, then homomorphically sums the
    Paillier ciphertexts S attached to matched codewords, blinded with
    a uniform mask so S decrypts without learning the true sum.  The
    blinded round trip runs on every query (R never learns the
    plaintext amounts, so the answer cannot be maintained locally) and
    draws fresh mask randomness, so a delta of this protocol is *not*
    journal-replay-safe; the peer map keeps its matching at O(delta)
    modexp.

    Before its state moves, R checks S's Paillier material: a modulus
    of the ``paillier_bits`` both parties were built with (a product of
    two primes of half that size: that many bits, or one fewer), and
    every ciphertext in ``Z*_{n²}`` - else :class:`ProtocolViolation`.
    """

    def __init__(self, *args: Any, paillier_bits: int = 256, **kwargs: Any):
        self.paillier_bits = paillier_bits
        super().__init__(*args, **kwargs)

    def _paillier(self, n: int) -> PaillierPublicKey:
        """S's announced modulus as a key, once it has the agreed size."""
        if not self.paillier_bits - 1 <= n.bit_length() <= self.paillier_bits:
            raise ProtocolViolation(
                f"Paillier modulus of {n.bit_length()} bits, "
                f"not the agreed {self.paillier_bits}"
            )
        return PaillierPublicKey(n)

    def _declare(self) -> None:
        #: ``Z_R`` (occurrence counts) and S's ``codeword -> Enc(amount)``
        #: pairs; the peer map holds each codeword's double encryption.
        self._z_r: Counter = Counter()
        self._pairs_by_codeword: dict = {}
        self._pk: PaillierPublicKey | None = None
        self._mask: int | None = None
        self.match_count: int | None = None
        super()._declare()

    def absorb(
        self, z_added: list, z_removed: list, pairs_added: list,
        pairs_removed: list, pk: PaillierPublicKey | None = None,
    ) -> BlindedSum:
        """Step 5: patch ``Z_R`` and the pair map, match against the
        unlinkable ``Z_R``, sum and blind.  A full run passes S's
        modulus as ``pk``: R's state starts afresh under it, once each
        ciphertext is checked (once)."""
        _check_pairs(pairs_added, pairs_removed)
        _check_paillier(pk or self._pk, [c for _, c in pairs_added])
        if pk is not None:
            self._declare()
            self._pk = pk
        _patch(self._z_r, z_added, z_removed)
        held = self._pairs_by_codeword
        for codeword in pairs_removed:
            held.pop(codeword, None)
        held.update(pairs_added)
        self._forget(c for c in pairs_removed if c not in held)  # not a replace
        self._through(list(dict(pairs_added)))
        if self.size_v_s is None:
            self._narrow(held)
        doubles = self._f_by_y
        matched = [
            ciphertext
            for codeword, ciphertext in held.items()
            if doubles[codeword] in self._z_r
        ]
        pk = self._pk
        accumulator = pk.encrypt_zero(self.rng)
        for ciphertext in matched:
            accumulator = pk.add(accumulator, ciphertext)
        self._mask = self.rng.randrange(pk.n)
        self.match_count = len(matched)
        self.size_v_s = len(self._pairs_by_codeword)
        return BlindedSum(pk.add_plain(accumulator, self._mask, self.rng))

    def round2(self, reply: SumReply) -> BlindedSum:
        """Step 5 of a full run: adopt S's Paillier modulus, absorb."""
        reply = SumReply.coerce(reply)
        return self.absorb(reply.z_r, (), reply.pairs, (), pk=self._paillier(reply.n))

    def finish(self, reply: RevealedSum) -> int:
        """Step 7: remove the mask from S's decrypted blinded sum."""
        reply = RevealedSum.coerce(reply)
        return (reply.value - self._mask) % self._pk.n


class EquijoinSumSender(_PayloadSender):
    """Party S of the equijoin-sum aggregate (Paillier keypair holder).

    S decrypts R's blinded sum only once it lies in ``Z*_{n²}``, else
    :class:`ProtocolViolation`: the check R makes of S's ciphertexts.
    """

    #: The Paillier keypair is not persisted.
    cacheable = False
    #: Drawing the keypair is a prime search: ~4 ms at 256 bits.
    light_build = False

    def __init__(
        self,
        values_s: Mapping[Hashable, int],
        params: PublicParams,
        rng: random.Random,
        engine: CryptoEngine | None = None,
        crypto: CryptoContext | None = None,
        paillier_bits: int = 256,
    ):
        super().__init__(values_s, params, rng, engine, crypto)
        self._public, self._private = generate_keypair(paillier_bits, rng)

    def answer(self, ys: list) -> list:
        """Step 3: ``f_eS(y)`` per ciphertext, reordered before it ships."""
        return self._through(ys)

    def reply(
        self, r_added: list, r_removed: list, added: Mapping, removed: Iterable
    ) -> tuple[list, list, list, list]:
        """Steps 3-4: the reordered doubles of R's churn, then own
        ``⟨f_eS(h(v)), Enc_pkS(val(v))⟩`` churn (Paillier randomness is
        drawn in value order)."""
        invalid = [
            v for v, amount in added.items() if amount is None or int(amount) < 0
        ]
        if invalid:
            raise ValueError(
                "aggregated values must be non-negative amounts "
                f"({len(invalid)} invalid)"
            )
        z_added = sorted_ciphertexts(self.answer(r_added))
        z_removed = sorted_ciphertexts(self.answer(r_removed))
        self.hear(r_added, r_removed)
        _, tombstones = self.own(added, removed)
        self.payloads.update((v, int(amount)) for v, amount in added.items())
        pairs = sorted(
            (self._y_by_value[v], self._public.encrypt(self.payloads[v], self.rng))
            for v in added
        )
        return z_added, z_removed, pairs, tombstones

    def round1(self, y_r: CipherList) -> SumReply:
        """Steps 3-4: unlinkable ``Z_R`` + Paillier modulus, then the
        pairs, reordered."""
        z_r, _, pairs, _ = self._serve(y_r)
        return SumReply(z_r_pk=(z_r, self._public.n), pairs=pairs)

    def round2(self, blinded: BlindedSum) -> RevealedSum:
        """Step 6: decrypt the rerandomized blinded ciphertext, once it
        is checked to lie in ``Z*_{n²}``."""
        blinded = BlindedSum.coerce(blinded)
        _check_paillier(self._public, [blinded.ciphertext])
        return RevealedSum(self._private.decrypt(blinded.ciphertext))


class _Machine:
    """Shared core of the two spec interpreters.

    Holds the lazily-built party state, the inbox of typed messages
    keyed by round name, and the recorder-phase plumbing.  Subclasses
    fix the role prefix and which spec factory builds the state.
    """

    role = ""
    _factory_attr = ""

    def __init__(
        self,
        spec: Any,
        data: Any,
        params: PublicParams,
        rng: random.Random,
        engine: CryptoEngine | None = None,
        crypto: CryptoContext | None = None,
        recorder: Any = None,
        **options: Any,
    ):
        factory = getattr(spec, self._factory_attr)
        self._init(
            spec,
            lambda: factory(data, params, rng, engine=engine, crypto=crypto, **options),
            recorder,
        )

    def _init(self, spec: Any, make_state: Callable[[], Any], recorder: Any) -> None:
        self.spec = spec
        self.recorder = recorder
        self._make_state = make_state
        self._state: Any = None
        self.inbox: dict[str, Message] = {}
        self._rounds_produced = 0

    @classmethod
    def from_factory(
        cls, spec: Any, make_state: Callable[[], Any], recorder: Any = None
    ) -> "_Machine":
        """Build a machine around a ready state factory.

        The resumable sessions use this: their pinned constructor
        signatures take a zero-argument ``make_sender`` / a
        params-taking ``make_receiver`` closure rather than raw data.
        """
        machine = object.__new__(cls)
        machine._init(spec, make_state, recorder)
        return machine

    def _phase(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.phase(f"{self.role}.{name}")

    def ensure_state(self) -> Any:
        """Build the party state on first use (under the setup phase)."""
        if self._state is None:
            with self._phase("setup"):
                self._state = self._make_state()
        return self._state

    @property
    def state(self) -> Any:
        """The underlying party state (built on first access)."""
        return self.ensure_state()

    def wait(self, rnd: Any):
        """Context manager timing the blocking receive of round ``rnd``."""
        return self._phase(f"wait_{rnd.name}")

    def item_count(self) -> int:
        """The party's values plus every list item of the rounds so far.

        A bound on what any one step of the party hashes, encrypts,
        answers or strips: steps act on the table and on what arrived.
        """
        received = sum(
            len(part)
            for message in self.inbox.values()
            for part in message.to_parts()
            if isinstance(part, list)
        )
        return len(self.state.opening) + received

    # ------------------------------------------------------------------
    # Steps run ahead of the round step that owns their work.  They are
    # rng-free and only fill a memo that step reads, so skipping one (a
    # recovered run), repeating one or losing one to an exception moves
    # no byte: the round step computes whatever it does not find.  Each
    # is recorded under the phase the work moved out of.
    # ------------------------------------------------------------------
    def _next_phase(self) -> str:
        """The phase of this role's next round step - ``finish`` once
        every round it emits is produced."""
        emits = sum(r.source == self.role.upper() for r in self.spec.rounds)
        if self._rounds_produced < emits:
            return f"round{self._rounds_produced + 1}"
        return "finish"

    def warm(self) -> None:
        """Run the spec's warm step (own-set crypto, peer-independent).

        A session issues it while the party waits for the peer's first
        round.
        """
        with self._phase(self._next_phase()):
            self.spec.warm(self.state)

    def eager(self, rnd: Any, payload: Any) -> Callable[[], None] | None:
        """The eager step of inbound round ``rnd`` for one chunk, or None.

        Bound to the chunk's body when ``rnd`` declares a step for the
        part this chunk payload belongs to; ``None`` for every other
        chunk (a malformed one included: reporting those is the
        assembler's).
        """
        if rnd.eager is None:
            return None
        part, step = rnd.eager
        if not (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[:2] == (part, "seg")
        ):
            return None

        def run() -> None:
            with self._phase(self._next_phase()):
                step(self.state, payload[2])

        return run

    def produce(self, rnd: Any) -> Message:
        """Compute this role's next outgoing round message."""
        state = self.ensure_state()
        self._rounds_produced += 1
        with self._phase(f"round{self._rounds_produced}"):
            message = rnd.step(state, self.inbox)
        if not isinstance(message, rnd.message):
            message = rnd.message.coerce(message)
        self.inbox[rnd.name] = message
        return message

    def produce_chunks(self, rnd: Any, chunk_size: int) -> Any:
        """Compute this role's next round as a stream of chunk payloads.

        Yields ``(part_index, kind, body)`` chunk payloads in wire
        order. Rounds with a registered ``chunk_step`` stream
        incrementally - the chunk for segment *k+1* is only computed
        when the consumer pulls it, so a session that pulls one chunk
        ahead overlaps its crypto with the wire. Rounds without one compute
        the full message first and split it. Either way the assembled
        message lands in the inbox exactly as :meth:`produce` would
        have put it (the generator must be driven to exhaustion).
        """
        state = self.ensure_state()
        self._rounds_produced += 1
        phase = f"round{self._rounds_produced}"
        chunk_step = getattr(rnd, "chunk_step", None)
        if chunk_step is None:
            with self._phase(phase):
                message = rnd.step(state, self.inbox)
                if not isinstance(message, rnd.message):
                    message = rnd.message.coerce(message)
            self.inbox[rnd.name] = message
            yield from message.to_wire_chunks(chunk_size)
            return
        source = chunk_step(state, self.inbox, chunk_size)
        assembler = ChunkAssembler(rnd.message)
        while True:
            # Re-enter the round phase per chunk so the recorder
            # attributes each chunk's crypto individually (its call
            # count is the chunk count).
            with self._phase(phase):
                try:
                    payload = next(source)
                except StopIteration:
                    break
            assembler.add(payload)
            yield payload
        self.inbox[rnd.name] = assembler.message()

    def consume(self, rnd: Any, wire: Any) -> Message:
        """Decode and check a received single-frame wire payload into
        the inbox; :class:`~repro.protocols.messages.ProtocolViolation`
        if it is not the round's declared shape."""
        message = rnd.message.from_wire(wire).check(self.state.group.p)
        self.inbox[rnd.name] = message
        return message

    def consume_chunks(self, rnd: Any, payloads: Sequence[Any]) -> Message:
        """Reassemble and check a received chunk payload stream into the
        inbox, as :meth:`consume`."""
        message = rnd.message.from_wire_chunks(payloads).check(self.state.group.p)
        self.inbox[rnd.name] = message
        return message


class SenderMachine(_Machine):
    """Generic party S: interprets any registered protocol spec."""

    role = "s"
    _factory_attr = "make_sender"


class ReceiverMachine(_Machine):
    """Generic party R: interprets any registered protocol spec and
    computes the protocol answer."""

    role = "r"
    _factory_attr = "make_receiver"
    _PENDING = object()
    _answer: Any = _PENDING

    def finish(self) -> Any:
        """Compute the protocol answer from the completed inbox - once:
        a session that loses its link after the last round asks again,
        and a delta's absorbing its patch is not repeatable."""
        if self._answer is self._PENDING:
            state = self.ensure_state()
            with self._phase("finish"):
                self._answer = self.spec.finish(state, self.inbox)
        return self._answer

"""On-disk encrypted-catalog cache for repeated queries.

A party's expensive per-query work — hashing its values, raising each
hash to its secret exponent, and raising each of the peer's
ciphertexts to it — depends only on (value set, cipher key, public
params) and on what the peer sends, which the deterministic cipher
makes the same every time.  This module persists that state so a
process restart resumes a query series without redoing the O(|V|)
modexp setup or re-encrypting a peer element it has seen: each entry
stores the party's cipher key(s), per value the hash and its
encryption(s), and per peer element ``y`` its re-encryption(s)
``f_key(y)`` (the party's peer maps), keyed by ``(table digest, key
fingerprint, protocol)``.

The file format mirrors the session journal's discipline
(:mod:`repro.net.journal`): a magic + version header, then CRC-sealed
length-prefixed records, every byte written through the
:class:`~repro.net.diskfaults.JournalIO` seam so seeded disk faults
are injectable, fsync'd before an entry is advertised as durable, and
torn tails truncated on open.  After the ``header`` record (protocol,
params, keys, key fingerprint) the file is a sequence of *batches*,
one sealed ``("batch", shape, sums, values, ints, dels, peer_ints,
peer_dels)`` record each (format v5):

* ``shape`` / ``sums`` - the table the file describes from there on, as
  its :class:`TableDigest`'s state, from which its digest follows: the
  shape, and one 40-byte blob of the count (8 bytes) and the total mod
  2**256 (32 bytes), big-endian - as wide whatever the table's size;
* ``values`` / ``ints`` / ``dels`` - the own entries: the added values
  (codec-encoded, in ``repr`` order), one blob of fixed-width
  big-endian blocks holding each added value's hash and then its
  ciphertexts, and the removed values;
* ``peer_ints`` / ``peer_dels`` - the peer maps: one blob of blocks
  holding each added peer element (ascending) and then its
  re-encryption per key, and one blob of the removed elements.

Every block is as wide as ``p`` and must lie below it.  A batch is
all-or-nothing by its CRC: a torn or interrupted append is a torn
tail, cut away on load.

A load decodes each batch's blobs a column of blocks at a time straight
into the maps a party keeps - each value's hash, one ciphertext map per
key, the peer maps - and :meth:`CacheEntry.party_cache` hands the party
those maps uncopied, so a reopen builds no per-value record.  The entry
and its party then share the maps: what a query moved in them reaches
the file through the party's own account of it (``cache_churn``), not
by comparing the two.

A party reopened on a duplicate-free table of ``str``, ``bytes`` and
``int`` values hashes none of it: when its protocol has one file here
(:meth:`CatalogCache.sole_entry`) and that file's table holds exactly
the table's values, as many as it has (:meth:`CacheEntry.describes`),
the file's state resumes the catalog's running digest.

A table mutation (:meth:`CatalogCache.append_delta`) appends one batch
— O(|delta|) bytes, the delta's peer-map churn included — fsyncs it,
and atomically renames the file to the new table's digest
(``os.replace`` + directory fsync), so lookups always key on the
*current* table contents; a batch that only moves the peer maps (a
full query after the peer changed) keeps the name and skips the
rename.  A crash before the rename leaves the file under its old name
saying, by its last batch, which table it describes; a name that disagrees with it is a
:class:`CatalogCacheError` (a miss), never a wrong entry - and a file
served for the table it describes is renamed to its digest's name when
the query commits.
:meth:`CatalogCache.store` is the one full rewrite, removes the
protocol's other files once its own is durable, and doubles as the
compactor: ``append_delta`` runs it once the file's weight - the
values and peer elements written (the adds and dels of every batch)
plus one per batch - exceeds twice the live ones, which keeps the file
within ~2x its compact size at amortised O(1) rewritten entries per
appended one.
Counting each batch bounds batches that carry no value too (one more
occurrence of a held value re-keys the file and changes no entry); a
commit on an unchanged table writes nothing.

Security note (cache-key hygiene, detailed in ``docs/PROTOCOLS.md``):
entries contain the party's **raw secret keys** — that is what makes
cached ciphertexts reusable.  The peer maps hold the peer's
ciphertexts and their re-encryptions.  Equijoin R's strip map is more
than its keys: it holds S's codeword ``f_eS(h(v))`` and payload key
``kappa(v)`` for each of R's own values, so a leaked R file lets
whoever sees S's pairs for those values match them and decrypt their
ext payloads.  The cache directory is created with mode ``0o700`` and must remain
private to the party; sharing it is equivalent to publishing the keys.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Hashable, Iterable, Mapping

from ..crypto.commutative import key_fingerprint
from ..protocols.parties import PartyCache, PublicParams
from .diskfaults import JournalIO
from .serialization import encode, scan_sealed, seal

__all__ = [
    "CATALOG_MAGIC",
    "CATALOG_VERSION",
    "CatalogCacheError",
    "CacheEntry",
    "CatalogCache",
    "TableDigest",
    "table_digest",
]

#: v5: a batch records its table's digest state, not the digest (v4:
#: a batch also carries the peer maps' churn).  Files of another
#: version fail the magic check: a miss.
CATALOG_VERSION = 5
CATALOG_MAGIC = b"RPCC" + struct.pack(">H", CATALOG_VERSION)

_log = logging.getLogger("repro.catalog")


class CatalogCacheError(Exception):
    """A cache entry is unreadable or inconsistent (corruption, key
    mismatch, params mismatch, a file describing another table than
    its name says).  Callers treat this as a miss."""


class TableDigest:
    """A running digest of a party's table, O(1) per mutation.

    The table is a multiset of *items* - the values of a sequence-
    shaped table, one per occurrence, or the ``(value, payload)`` pairs
    of a mapping.  Each item's wire encoding is hashed and the hashes
    are summed (the additive multiset hash), so the digest ignores
    order, counts multiplicities, and :meth:`add` / :meth:`remove`
    cost one hash each; equal tables digest equally across processes.
    """

    __slots__ = ("shape", "count", "total")

    def __init__(self, data: Any = ()):
        mapping = isinstance(data, Mapping)
        self.shape = "map" if mapping else "seq"
        sha256, from_bytes = hashlib.sha256, int.from_bytes
        hashes = [
            from_bytes(sha256(encode(item)).digest(), "big")
            for item in (data.items() if mapping else data)
        ]
        self.count = len(hashes)
        self.total = sum(hashes)

    @staticmethod
    def _hash(item: Any) -> int:
        return int.from_bytes(hashlib.sha256(encode(item)).digest(), "big")

    def add(self, item: Any) -> None:
        """One more occurrence of ``item``."""
        self.total += self._hash(item)
        self.count += 1

    def remove(self, item: Any) -> None:
        """One occurrence of ``item`` less (it must be in the table)."""
        self.total -= self._hash(item)
        self.count -= 1

    @classmethod
    def resume(cls, state: Any) -> "TableDigest":
        """The digest whose :attr:`state` is ``state`` (as a cache file
        records it), its table unread; ``ValueError`` if it is none."""
        shape, count, total = state
        if shape not in ("seq", "map") or not (
            type(count) is type(total) is int and count >= 0 and 0 <= total < 1 << 256
        ):
            raise ValueError(f"not a table digest's state: {state!r}")
        digest = cls.__new__(cls)
        digest.shape, digest.count, digest.total = shape, count, total
        return digest

    @property
    def state(self) -> tuple[str, int, int]:
        """``(shape, count, total mod 2**256)``: all the digest depends on."""
        return self.shape, self.count, self.total % (1 << 256)

    def hexdigest(self) -> str:
        """The table's canonical hex digest."""
        return hashlib.sha256(encode(self.state)).hexdigest()


def table_digest(data: Any) -> str:
    """A canonical hex digest of a party's table contents.

    Accepts the same shapes the party factories do: a mapping (ext
    payloads / amounts) digests its ``(value, payload)`` pairs, a plain
    iterable its occurrences (multiplicities kept, so multiset tables
    digest distinctly).  This is :class:`TableDigest` from scratch; a
    catalog keeps one running instead.
    """
    return TableDigest(data).hexdigest()


@dataclass
class CacheEntry:
    """One decoded cache entry: keys plus per-value crypto state.

    The state is held in the maps a party keeps (:class:`PartyCache`'s
    shape), which :meth:`party_cache` hands over uncopied."""

    #: The :attr:`TableDigest.state` of the table the entry describes.
    state: tuple
    protocol: str
    params: PublicParams
    keys: tuple
    #: Each value's hash, and one map per key from each value to its
    #: hash's encryption under that key.
    hashes: dict[Hashable, int]
    ciphertexts: tuple[dict[Hashable, int], ...]
    path: Path
    #: The peer maps, one per key in key order: ``y -> f_key(y)``.
    peers: tuple[dict[int, int], ...] = ()
    #: The file's weight: the values and peer elements written (the
    #: adds and dels of every batch) plus one per batch; beyond
    #: :attr:`live` it is dead weight the next compaction drops.
    records: int = 0

    @property
    def digest(self) -> str:
        """The hex digest of the table the entry describes."""
        return TableDigest.resume(self.state).hexdigest()

    def describes(self, data: Any) -> bool:
        """Whether ``data`` is exactly the entry's table, told without
        hashing it: a sequence of as many distinct values as the table
        counts, the entry's values, all ``str``, ``bytes`` or ``int``
        (whose equal values encode alike)."""
        shape, count, _ = self.state
        if shape != "seq" or isinstance(data, Mapping):
            return False
        values = set(data)
        return (
            count == len(data) == len(values) and self.hashes.keys() == values
            and {*map(type, values), *map(type, self.hashes)} <= {str, bytes, int}
        )

    @property
    def live(self) -> int:
        """The entries a compact file holds: values and peer elements."""
        return len(self.hashes) + len(self.peers[0])

    @property
    def entries(self) -> dict[Hashable, tuple]:
        """Per value ``(hash, ciphertexts)``, as :meth:`CatalogCache.store`
        takes them (built afresh on each call)."""
        return {
            v: (hashed, tuple(ys[v] for ys in self.ciphertexts))
            for v, hashed in self.hashes.items()
        }

    @property
    def fingerprint(self) -> str:
        """The key fingerprint the entry is keyed under."""
        return key_fingerprint(self.keys, self.params.p)

    def party_cache(self) -> PartyCache:
        """The entry's maps as a :class:`PartyCache`, uncopied.

        The party it is injected into keeps them as its own, so the
        entry sees what the party commits."""
        return PartyCache(self.keys, self.hashes, self.ciphertexts, self.peers)


def _empty(protocol: str, params: PublicParams, keys: Any, path: Path) -> CacheEntry:
    """An entry holding nothing yet, with one own and one peer map per
    key; its batches are folded in."""
    return CacheEntry(
        state=(), protocol=protocol, params=params, keys=tuple(keys),
        hashes={}, ciphertexts=tuple({} for _ in keys), path=path,
        peers=tuple({} for _ in keys),
    )


def _rows(adds: Mapping[Hashable, tuple], peer_adds: tuple = ()) -> tuple[list, list, list]:
    """A batch's adds as the file lays them out: the values in ``repr``
    order, then the blocks of each one's row - its hash, then its
    ciphertext per key - and those of each added peer element's row,
    ascending: the element, then its re-encryption per key (one map per
    key in ``peer_adds``)."""
    values = sorted(adds, key=repr)
    ints = [i for v in values for i in (adds[v][0], *adds[v][1])]
    ys = sorted(peer_adds[0]) if peer_adds else []
    peer_ints = [i for y in ys for i in (y, *(fs[y] for fs in peer_adds))]
    return values, ints, peer_ints


def _blob(ints: Iterable[int], width: int) -> bytes:
    """``ints`` as fixed-width big-endian blocks."""
    return b"".join(i.to_bytes(width, "big") for i in ints)


def _batch(
    state: tuple, values: list, ints: list, dels: Iterable, peer_ints: list,
    peer_dels: Iterable[int], p: int,
) -> bytes:
    """One sealed batch of :func:`_rows`' layout, every block as wide
    as ``p`` - which each of them is below."""
    width = (p.bit_length() + 7) // 8
    shape, count, total = state
    sums = count.to_bytes(8, "big") + total.to_bytes(32, "big")
    return seal((
        "batch", shape, sums, tuple(values), _blob(ints, width), tuple(dels),
        _blob(peer_ints, width), _blob(peer_dels, width),
    ))


def _fold(
    entry: CacheEntry, values: Any, ints: list, dels: Iterable,
    peer_ints: list, peer_dels: Iterable[int],
) -> None:
    """Apply one batch of :func:`_rows`' layout to ``entry``'s maps in
    place, its dels first, a column of blocks at a time, and count its
    weight."""
    stride = 1 + len(entry.keys)
    owns = (entry.hashes, *entry.ciphertexts)
    for value in dels:
        for own in owns:
            own.pop(value, None)
    for index, own in enumerate(owns):
        own.update(zip(values, ints[index::stride]))
    elements = peer_ints[::stride]
    for index, fs in enumerate(entry.peers, 1):
        for y in peer_dels:
            fs.pop(y, None)
        fs.update(zip(elements, peer_ints[index::stride]))
    entry.records += len(values) + len(dels) + len(elements) + len(peer_dels) + 1


class CatalogCache:
    """Directory of persisted encrypted-catalog entries.

    One file per ``(table digest, key fingerprint, protocol)``; the
    digest and protocol name the file, the fingerprint is verified
    against the stored keys on load.  All I/O goes through the
    injected :class:`JournalIO`, so the disk-fault harness can attack
    every write, fsync and rename.
    """

    def __init__(
        self,
        root: str | Path,
        io: JournalIO | None = None,
        fsync: bool = True,
    ):
        self.root = Path(root)
        self.io = io or JournalIO()
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True, mode=0o700)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def path_for(self, digest: str, protocol: str) -> Path:
        """The entry file for a table digest + protocol."""
        return self.root / f"{digest[:32]}.{protocol}.cat"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def lookup(self, digest: str, protocol: str) -> CacheEntry | None:
        """Load the entry for ``(digest, protocol)``; ``None`` on miss.

        An unreadable entry, or one whose records describe another
        table or protocol than its name (a delta commit that crashed
        before its rename), raises :class:`CatalogCacheError`; a torn
        or uncommitted tail (crash mid-append) is truncated away and
        the committed prefix served, matching the journal's recovery
        semantics.
        """
        path = self.path_for(digest, protocol)
        if not path.exists():
            return None
        entry = self._load(path)
        if entry.digest != digest or entry.protocol != protocol:
            raise CatalogCacheError(
                f"cache entry {path.name} describes "
                f"({entry.digest[:12]}…, {entry.protocol}), expected "
                f"({digest[:12]}…, {protocol})"
            )
        return entry

    def _load(self, path: Path) -> CacheEntry:
        data = path.read_bytes()
        if data[: len(CATALOG_MAGIC)] != CATALOG_MAGIC:
            raise CatalogCacheError(f"{path.name}: bad catalog-cache magic")
        try:
            records, ends = scan_sealed(data, len(CATALOG_MAGIC))
            if len(records) < 2:
                raise CatalogCacheError(f"{path.name}: no committed batch")
            if ends[-1] < len(data):
                # A torn or interrupted append: repair like the journal
                # does, keeping the committed prefix.
                self.io.truncate(path, ends[-1])
            kind, protocol, params_wire, keys, fingerprint = records[0]
            if kind != "header" or not keys:
                raise CatalogCacheError(f"{path.name}: first record not a header with keys")
            params = PublicParams.from_wire(params_wire)
            if key_fingerprint(keys, params.p) != fingerprint:
                raise CatalogCacheError(
                    f"{path.name}: key fingerprint mismatch (corrupt or foreign keys)"
                )
            width, stride = (params.p.bit_length() + 7) // 8, 1 + len(keys)

            def blocks(blob: bytes, per_row: int) -> list[int]:
                """``blob``'s blocks, whole rows of ``per_row``, each below p."""
                if len(blob) % (per_row * width):
                    raise CatalogCacheError(f"{path.name}: batch blob of the wrong length")
                split = struct.unpack(f"{width}s" * (len(blob) // width), blob)
                ints = list(map(int.from_bytes, split, repeat("big")))
                if max(ints, default=0) >= params.p:
                    raise CatalogCacheError(f"{path.name}: a block is not below p")
                return ints

            entry = _empty(protocol, params, keys, path)
            for record in records[1:]:
                if record[0] != "batch":
                    raise CatalogCacheError(f"{path.name}: unknown record kind {record[0]!r}")
                _, shape, sums, values, ints, dels, peer_ints, peer_dels = record
                types = (str, bytes, tuple, bytes, tuple, bytes, bytes)
                if tuple(map(type, record[1:])) != types or len(sums) != 40:
                    raise CatalogCacheError(f"{path.name}: malformed batch")
                count, total = (int.from_bytes(part, "big") for part in (sums[:8], sums[8:]))
                entry.state = TableDigest.resume((shape, count, total)).state
                own = blocks(ints, stride)
                if len(own) != len(values) * stride:
                    raise CatalogCacheError(f"{path.name}: batch blob of the wrong length")
                peer_adds, peer_gone = blocks(peer_ints, stride), blocks(peer_dels, 1)
                _fold(entry, values, own, dels, peer_adds, peer_gone)
        except (ValueError, TypeError, IndexError, OverflowError) as exc:
            # CRC-valid but malformed (wrong arity, non-tuple payload,
            # undecodable bytes, a negative key): corrupt all the same.
            raise CatalogCacheError(f"{path.name}: malformed record ({exc})") from exc
        return entry

    def sole_entry(self, protocol: str) -> CacheEntry | None:
        """The one file ``protocol`` has here, loaded whatever its name;
        ``None`` if it has none or several, or the file is unreadable
        or another protocol's."""
        try:
            (path,) = self.root.glob(f"*.{protocol}.cat")
            entry = self._load(path)
        except (ValueError, CatalogCacheError):
            return None
        return entry if entry.protocol == protocol else None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, path: Path, blocks: Iterable[bytes]) -> None:
        """Append ``blocks`` to ``path`` and make them durable."""
        fh = self.io.open_append(path)
        try:
            for block in blocks:
                self.io.write(fh, block)
            self.io.flush(fh)
            if self.fsync:
                self.io.fsync(fh)
        finally:
            fh.close()

    def _publish(self, src: Path, dst: Path) -> None:
        """Atomically rename ``src`` to ``dst``, durably."""
        self.io.replace(src, dst)
        if self.fsync:
            self.io.fsync_dir(self.root)

    def store(
        self,
        table: TableDigest,
        protocol: str,
        params: PublicParams,
        keys: tuple,
        entries: Mapping[Hashable, tuple],
        peers: tuple = (),
    ) -> CacheEntry:
        """Durably write a fresh, compact entry for the table digested
        by ``table`` (atomic: tmp + rename + dir fsync), then remove the
        protocol's other files; ``peers`` holds the peer maps, one per
        key."""
        path = self.path_for(table.hexdigest(), protocol)
        tmp = path.with_suffix(path.suffix + ".tmp")
        if tmp.exists():  # leftover from an earlier crash
            self.io.truncate(tmp, 0)
        header = (
            "header", protocol, params.to_wire(), tuple(int(k) for k in keys),
            key_fingerprint(keys, params.p),
        )
        values, ints, peer_ints = _rows(entries, peers)
        self._append(tmp, [
            CATALOG_MAGIC, seal(header),
            _batch(table.state, values, ints, (), peer_ints, (), params.p),
        ])
        self._publish(tmp, path)
        for other in self.root.glob(f"*.{protocol}.cat"):
            if other != path:  # an older table's, dead weight from here on
                other.unlink(missing_ok=True)
        entry = _empty(protocol, params, keys, path)
        entry.state = table.state
        _fold(entry, values, ints, (), peer_ints, ())
        return entry

    def append_delta(
        self,
        entry: CacheEntry,
        table: TableDigest,
        adds: Mapping[Hashable, tuple],
        dels: Any = (),
        peer_adds: tuple = (),
        peer_dels: Any = (),
    ) -> CacheEntry:
        """Append one batch to an entry's file and re-key it to the
        digest of the table ``table`` digests now; ``entry`` is folded
        forward and returned.
        ``peer_adds`` holds what the peer maps add, one map per key.

        The batch, one sealed record, is fsync'd before the rename, so
        a crash leaves the old entry under the old name (an interrupted
        append is cut away on the next load), or the
        updated entry under the old name - a miss either way it is
        looked up, since the file says which table it describes - or
        the updated entry under the new name.  A batch on an unchanged
        table (peer-map churn alone) needs no rename.  Once the file's
        weight (entries written plus batches) exceeds twice the live
        entries the file is compacted through :meth:`store`.  A commit
        that changes neither the table nor an entry writes nothing -
        unless the file is under another name (a crash before a
        rename), which its batch then re-keys.
        """
        state, new_path = table.state, self.path_for(table.hexdigest(), entry.protocol)
        dels, peer_dels = list(dels), list(peer_dels)
        values, ints, peer_ints = _rows(adds, peer_adds)
        if (state, new_path) == (entry.state, entry.path) and not (
            values or dels or peer_ints or peer_dels
        ):
            return entry  # the file already says it all
        self._append(entry.path, [
            _batch(state, values, ints, dels, peer_ints, peer_dels, entry.params.p)
        ])
        if new_path != entry.path:
            self._publish(entry.path, new_path)
        _fold(entry, values, ints, dels, peer_ints, peer_dels)
        entry.state, entry.path = state, new_path
        if entry.records > 2 * entry.live:
            _log.info(
                "catalog compacted records=%d entries=%d",
                entry.records, entry.live,
            )
            return self.store(
                table, entry.protocol, entry.params, entry.keys,
                entry.entries, entry.peers,
            )
        return entry

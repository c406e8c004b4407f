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
one sealed ``("batch", digest, values, ints, dels, peer_ints,
peer_dels)`` record each (format v4):

* ``digest`` - the table the file describes from there on;
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

A table mutation (:meth:`CatalogCache.append_delta`) appends one batch
— O(|delta|) bytes, the delta's peer-map churn included — fsyncs it,
and atomically renames the file to the new table's digest
(``os.replace`` + directory fsync), so lookups always key on the
*current* table contents; a batch that only moves the peer maps (a
full query after the peer changed) keeps the name and skips the
rename.  A crash before the rename leaves the file under its old name
saying, by its last batch, which table it describes; a name that disagrees with it is a
:class:`CatalogCacheError` (a miss), never a wrong entry.
:meth:`CatalogCache.store` is the one full rewrite, and doubles as the
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

#: v4: a batch also carries the peer maps' churn (v3: a batch is one
#: record, its ints fixed-width blocks of one blob).  Files of another
#: version fail the magic check: a miss.
CATALOG_VERSION = 4
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

    def hexdigest(self) -> str:
        """The table's canonical hex digest."""
        summary = (self.shape, self.count, self.total % (1 << 256))
        return hashlib.sha256(encode(summary)).hexdigest()


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
    """One decoded cache entry: keys plus per-value crypto state."""

    digest: str
    protocol: str
    params: PublicParams
    keys: tuple
    entries: dict[Hashable, tuple]
    path: Path
    #: The peer maps, one per key in key order: ``y -> f_key(y)``.
    peers: tuple[dict[int, int], ...] = ()
    #: The file's weight: the values and peer elements written (the
    #: adds and dels of every batch) plus one per batch; beyond
    #: :attr:`live` it is dead weight the next compaction drops.
    records: int = 0

    @property
    def live(self) -> int:
        """The entries a compact file holds: values and peer elements."""
        return len(self.entries) + len(self.peers[0])

    @property
    def fingerprint(self) -> str:
        """The key fingerprint the entry is keyed under."""
        return key_fingerprint(self.keys, self.params.p)

    def party_cache(self) -> PartyCache:
        """The entry as a :class:`PartyCache` ready for injection."""
        return PartyCache(keys=self.keys, entries=dict(self.entries), peers=self.peers)


def _blob(ints: Iterable[int], width: int) -> bytes:
    """``ints`` as fixed-width big-endian blocks."""
    return b"".join(i.to_bytes(width, "big") for i in ints)


def _batch(
    digest: str, adds: Mapping[Hashable, tuple], dels: Iterable, p: int,
    peer_adds: tuple = (), peer_dels: Iterable[int] = (),
) -> bytes:
    """One sealed batch: ``adds`` in ``repr`` order with their hash and
    ciphertexts as blocks of one blob - each as wide as ``p``, which
    every one of them is below - and ``dels``; then the elements of the
    peer maps ``peer_adds`` (one per key) in ascending order, each with
    its re-encryption per key, as blocks of a second blob, and
    ``peer_dels`` as a third."""
    width = (p.bit_length() + 7) // 8
    values = sorted(adds, key=repr)
    ints = (i for v in values for i in (adds[v][0], *adds[v][1]))
    ys = sorted(peer_adds[0]) if peer_adds else []
    peer_ints = (i for y in ys for i in (y, *(fs[y] for fs in peer_adds)))
    return seal((
        "batch", digest, tuple(values), _blob(ints, width), tuple(dels),
        _blob(peer_ints, width), _blob(peer_dels, width),
    ))


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
                ints = [int.from_bytes(blob[at : at + width], "big")
                        for at in range(0, len(blob), width)]
                if max(ints, default=0) >= params.p:
                    raise CatalogCacheError(f"{path.name}: a block is not below p")
                return ints

            entries: dict[Hashable, tuple] = {}
            peers = tuple({} for _ in keys)
            written = 0
            for record in records[1:]:
                if record[0] != "batch":
                    raise CatalogCacheError(f"{path.name}: unknown record kind {record[0]!r}")
                _, digest, values, ints, dels, peer_ints, peer_dels = record
                if tuple(map(type, record[1:])) != (str, tuple, bytes, tuple, bytes, bytes):
                    raise CatalogCacheError(f"{path.name}: malformed batch")
                own, peer_adds, peer_gone = (
                    blocks(ints, stride), blocks(peer_ints, stride), blocks(peer_dels, 1)
                )
                if len(own) != len(values) * stride:
                    raise CatalogCacheError(f"{path.name}: batch blob of the wrong length")
                for value in dels:
                    entries.pop(value, None)
                ciphertexts = zip(*(own[k::stride] for k in range(1, stride)))
                entries.update(zip(values, zip(own[::stride], ciphertexts)))
                ys = peer_adds[::stride]
                for index, fs in enumerate(peers, 1):
                    for y in peer_gone:
                        fs.pop(y, None)
                    fs.update(zip(ys, peer_adds[index::stride]))
                written += len(values) + len(dels) + len(peer_gone) + len(ys) + 1
        except (ValueError, TypeError, IndexError, OverflowError) as exc:
            # CRC-valid but malformed (wrong arity, non-tuple payload,
            # undecodable bytes, a negative key): corrupt all the same.
            raise CatalogCacheError(f"{path.name}: malformed record ({exc})") from exc
        return CacheEntry(
            digest=digest,
            protocol=protocol,
            params=params,
            keys=tuple(keys),
            entries=entries,
            path=path,
            peers=peers,
            records=written,
        )

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
        digest: str,
        protocol: str,
        params: PublicParams,
        keys: tuple,
        entries: Mapping[Hashable, tuple],
        peers: tuple = (),
    ) -> CacheEntry:
        """Durably write a fresh, compact entry (atomic: tmp + rename +
        dir fsync); ``peers`` holds the peer maps, one per key."""
        path = self.path_for(digest, protocol)
        tmp = path.with_suffix(path.suffix + ".tmp")
        if tmp.exists():  # leftover from an earlier crash
            self.io.truncate(tmp, 0)
        header = (
            "header", protocol, params.to_wire(), tuple(int(k) for k in keys),
            key_fingerprint(keys, params.p),
        )
        self._append(tmp, [
            CATALOG_MAGIC, seal(header), _batch(digest, entries, (), params.p, peers),
        ])
        self._publish(tmp, path)
        peers = tuple(map(dict, peers)) or tuple({} for _ in keys)
        return CacheEntry(
            digest=digest,
            protocol=protocol,
            params=params,
            keys=tuple(keys),
            entries={v: (h, tuple(ys)) for v, (h, ys) in entries.items()},
            path=path,
            peers=peers,
            records=len(entries) + len(peers[0]) + 1,
        )

    def append_delta(
        self,
        entry: CacheEntry,
        new_digest: str,
        adds: Mapping[Hashable, tuple],
        dels: Any = (),
        peer_adds: tuple = (),
        peer_dels: Any = (),
    ) -> CacheEntry:
        """Append one batch to an entry's file and re-key it to the
        table's new digest; ``entry`` is folded forward and returned.
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
        that changes neither the table nor an entry writes nothing.
        """
        dels, peer_dels = list(dels), list(peer_dels)
        added = len(peer_adds[0]) if peer_adds else 0
        if new_digest == entry.digest and not (adds or dels or added or peer_dels):
            return entry  # the file already says it all
        self._append(entry.path, [
            _batch(new_digest, adds, dels, entry.params.p, peer_adds, peer_dels)
        ])
        new_path = self.path_for(new_digest, entry.protocol)
        if new_path != entry.path:
            self._publish(entry.path, new_path)
        for value in dels:
            entry.entries.pop(value, None)
        entry.entries.update((v, (h, tuple(ys))) for v, (h, ys) in adds.items())
        for index, fs in enumerate(entry.peers):
            for y in peer_dels:
                fs.pop(y, None)
            fs.update(peer_adds[index] if added else ())
        entry.digest, entry.path = new_digest, new_path
        entry.records += len(adds) + len(dels) + added + len(peer_dels) + 1
        if entry.records > 2 * entry.live:
            _log.info(
                "catalog compacted records=%d entries=%d",
                entry.records, entry.live,
            )
            return self.store(
                new_digest, entry.protocol, entry.params, entry.keys,
                entry.entries, entry.peers,
            )
        return entry

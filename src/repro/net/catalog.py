"""On-disk encrypted-catalog cache for repeated queries.

A party's expensive per-query work — hashing its values and raising
each hash to its secret exponent — depends only on (value set, cipher
key, public params).  This module persists that state so a process
restart resumes a query series without redoing the O(|V|) modexp
setup: each entry stores the party's cipher key(s) and, per value, the
hash and its encryption(s), keyed by ``(table digest, key fingerprint,
protocol)``.

The file format mirrors the session journal's discipline
(:mod:`repro.net.journal`): a magic + version header, then CRC-sealed
length-prefixed records, every byte written through the
:class:`~repro.net.diskfaults.JournalIO` seam so seeded disk faults
are injectable, fsync'd before an entry is advertised as durable, and
torn tails truncated on open.  After the ``header`` record (protocol,
params, keys, key fingerprint) the file is a sequence of *batches*:
``add``/``del`` records closed by one ``("rekey", digest)`` record
naming the table the file describes from there on.  Records take
effect at their ``rekey``, so a batch is all-or-nothing: whatever
follows the last ``rekey`` (a torn or interrupted append) is cut away
on load.

A table mutation (:meth:`CatalogCache.append_delta`) appends one batch
— O(|delta|) bytes — fsyncs it, and atomically renames the file to the
new table's digest (``os.replace`` + directory fsync), so lookups
always key on the *current* table contents.  A crash before the rename
leaves the file under its old name saying, by its last ``rekey``,
which table it describes; a name that disagrees with it is a
:class:`CatalogCacheError` (a miss), never a wrong entry.
:meth:`CatalogCache.store` is the one full rewrite, and doubles as the
compactor: ``append_delta`` runs it once the file holds more dead
records than live ones, which keeps the file within ~2x its compact
size at amortised O(1) rewritten records per appended one.

Security note (cache-key hygiene, detailed in ``docs/PROTOCOLS.md``):
entries contain the party's **raw secret keys** — that is what makes
cached ciphertexts reusable.  The cache directory is created with mode
``0o700`` and must remain private to the party; sharing it is
equivalent to publishing the keys.
"""

from __future__ import annotations

import hashlib
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

#: v2: batches closed by ``rekey`` records, the digest out of the
#: header.  Files of another version fail the magic check: a miss.
CATALOG_VERSION = 2
CATALOG_MAGIC = b"RPCC" + struct.pack(">H", CATALOG_VERSION)


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
    #: ``add``/``del``/``rekey`` records in the file; those beyond
    #: ``len(entries)`` are dead weight the next compaction drops.
    records: int = 0

    @property
    def fingerprint(self) -> str:
        """The key fingerprint the entry is keyed under."""
        return key_fingerprint(self.keys, self.params.p)

    def party_cache(self) -> PartyCache:
        """The entry as a :class:`PartyCache` ready for injection."""
        return PartyCache(keys=self.keys, entries=dict(self.entries))


def _batch(adds: Mapping[Hashable, tuple], dels: Iterable, digest: str) -> list[bytes]:
    """The sealed records of one batch: ``adds`` in ``repr`` order,
    ``dels``, and the ``rekey`` that commits them."""
    records = [
        ("add", value, int(adds[value][0]), tuple(int(y) for y in adds[value][1]))
        for value in sorted(adds, key=repr)
    ]
    records += [("del", value) for value in dels]
    records.append(("rekey", digest))
    return [seal(record) for record in records]


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
            # Records count from their batch's rekey on; the last one
            # ends the committed prefix.
            committed = len(records) - 1
            while committed > 0 and records[committed][0] != "rekey":
                committed -= 1
            if committed <= 0:
                raise CatalogCacheError(f"{path.name}: no committed batch")
            if ends[committed] < len(data):
                # A torn or interrupted append: repair like the journal
                # does, keeping the committed prefix.
                self.io.truncate(path, ends[committed])
            kind, protocol, params_wire, keys, fingerprint = records[0]
            if kind != "header":
                raise CatalogCacheError(f"{path.name}: first record not a header")
            params = PublicParams.from_wire(params_wire)
            if key_fingerprint(keys, params.p) != fingerprint:
                raise CatalogCacheError(
                    f"{path.name}: key fingerprint mismatch (corrupt or foreign keys)"
                )
            entries: dict[Hashable, tuple] = {}
            for record in records[1 : committed + 1]:
                kind = record[0]
                if kind == "add":
                    _, value, hash_, ys = record
                    entries[value] = (hash_, tuple(ys))
                elif kind == "del":
                    _, value = record
                    entries.pop(value, None)
                elif kind == "rekey":
                    _, digest = record
                else:
                    raise CatalogCacheError(
                        f"{path.name}: unknown record kind {kind!r}"
                    )
            if not isinstance(digest, str):
                raise CatalogCacheError(f"{path.name}: rekey names no digest")
        except (ValueError, TypeError, IndexError) as exc:
            # CRC-valid but malformed (wrong arity, non-tuple payload,
            # undecodable bytes): corrupt all the same.
            raise CatalogCacheError(f"{path.name}: malformed record ({exc})") from exc
        return CacheEntry(
            digest=digest,
            protocol=protocol,
            params=params,
            keys=tuple(keys),
            entries=entries,
            path=path,
            records=committed,
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
    ) -> CacheEntry:
        """Durably write a fresh, compact entry (atomic: tmp + rename +
        dir fsync)."""
        path = self.path_for(digest, protocol)
        tmp = path.with_suffix(path.suffix + ".tmp")
        if tmp.exists():  # leftover from an earlier crash
            self.io.truncate(tmp, 0)
        header = (
            "header",
            protocol,
            params.to_wire(),
            tuple(int(k) for k in keys),
            key_fingerprint(keys, params.p),
        )
        batch = _batch(entries, (), digest)
        self._append(tmp, [CATALOG_MAGIC, seal(header), *batch])
        self._publish(tmp, path)
        return CacheEntry(
            digest=digest,
            protocol=protocol,
            params=params,
            keys=tuple(keys),
            entries={v: (h, tuple(ys)) for v, (h, ys) in entries.items()},
            path=path,
            records=len(batch),
        )

    def append_delta(
        self,
        entry: CacheEntry,
        new_digest: str,
        adds: Mapping[Hashable, tuple],
        dels: Any = (),
    ) -> CacheEntry:
        """Append one batch to an entry's file and re-key it to the
        table's new digest; ``entry`` is folded forward and returned.

        The batch (closed by its ``rekey``) is fsync'd before the
        rename, so a crash leaves the old entry under the old name
        (an interrupted append is cut away on the next load), or the
        updated entry under the old name - a miss either way it is
        looked up, since the file says which table it describes - or
        the updated entry under the new name.  Once dead records
        outnumber live ones the file is compacted through
        :meth:`store`.
        """
        dels = list(dels)
        batch = _batch(adds, dels, new_digest)
        self._append(entry.path, batch)
        new_path = self.path_for(new_digest, entry.protocol)
        self._publish(entry.path, new_path)
        for value in dels:
            entry.entries.pop(value, None)
        entry.entries.update((v, (h, tuple(ys))) for v, (h, ys) in adds.items())
        entry.digest, entry.path = new_digest, new_path
        entry.records += len(batch)
        if entry.records > 2 * len(entry.entries):
            return self.store(
                new_digest, entry.protocol, entry.params, entry.keys, entry.entries
            )
        return entry

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
params, keys, key fingerprint) the file is a sequence of *batches*,
one sealed ``("batch", digest, values, ints, dels)`` record each:
the added values (codec-encoded, in ``repr`` order), one blob of
fixed-width big-endian blocks holding each added value's hash and then
its ciphertexts, the removed values, and the digest of the table the
file describes from there on.  A batch is all-or-nothing by its CRC: a
torn or interrupted append is a torn tail, cut away on load.

A table mutation (:meth:`CatalogCache.append_delta`) appends one batch
— O(|delta|) bytes — fsyncs it, and atomically renames the file to the
new table's digest (``os.replace`` + directory fsync), so lookups
always key on the *current* table contents.  A crash before the rename
leaves the file under its old name saying, by its last batch, which
table it describes; a name that disagrees with it is a
:class:`CatalogCacheError` (a miss), never a wrong entry.
:meth:`CatalogCache.store` is the one full rewrite, and doubles as the
compactor: ``append_delta`` runs it once the file's weight - the
values written (the adds and dels of every batch) plus one per batch -
exceeds twice the live values, which keeps the file within ~2x its
compact size at amortised O(1) rewritten values per appended one.
Counting each batch bounds batches that carry no value too (one more
occurrence of a held value re-keys the file and changes no entry); a
commit on an unchanged table writes nothing.

Security note (cache-key hygiene, detailed in ``docs/PROTOCOLS.md``):
entries contain the party's **raw secret keys** — that is what makes
cached ciphertexts reusable.  The cache directory is created with mode
``0o700`` and must remain private to the party; sharing it is
equivalent to publishing the keys.
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

#: v3: a batch is one record, its ints fixed-width blocks of one blob.
#: Files of another version fail the magic check: a miss.
CATALOG_VERSION = 3
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
    #: The file's weight: the values written (the adds and dels of
    #: every batch) plus one per batch; beyond ``len(entries)`` it is
    #: dead weight the next compaction drops.
    records: int = 0

    @property
    def fingerprint(self) -> str:
        """The key fingerprint the entry is keyed under."""
        return key_fingerprint(self.keys, self.params.p)

    def party_cache(self) -> PartyCache:
        """The entry as a :class:`PartyCache` ready for injection."""
        return PartyCache(keys=self.keys, entries=dict(self.entries))


def _batch(digest: str, adds: Mapping[Hashable, tuple], dels: Iterable, p: int) -> bytes:
    """One sealed batch: ``adds`` in ``repr`` order, their hash and
    ciphertexts as blocks of one blob - each as wide as ``p``, which
    every one of them is below - and ``dels``."""
    width = (p.bit_length() + 7) // 8
    values, ints = sorted(adds, key=repr), bytearray()
    for value in values:
        hash_, ys = adds[value]
        ints += hash_.to_bytes(width, "big")
        for y in ys:
            ints += y.to_bytes(width, "big")
    return seal(("batch", digest, tuple(values), bytes(ints), tuple(dels)))


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
            entries: dict[Hashable, tuple] = {}
            written = 0
            for record in records[1:]:
                if record[0] != "batch":
                    raise CatalogCacheError(f"{path.name}: unknown record kind {record[0]!r}")
                _, digest, values, ints, dels = record
                if tuple(map(type, record[1:])) != (str, tuple, bytes, tuple):
                    raise CatalogCacheError(f"{path.name}: malformed batch")
                if len(ints) != len(values) * stride * width:
                    raise CatalogCacheError(f"{path.name}: batch blob of the wrong length")
                blocks = [int.from_bytes(ints[at : at + width], "big")
                          for at in range(0, len(ints), width)]
                if max(blocks, default=0) >= params.p:
                    raise CatalogCacheError(f"{path.name}: a block is not below p")
                for value in dels:
                    entries.pop(value, None)
                ciphertexts = zip(*(blocks[k::stride] for k in range(1, stride)))
                entries.update(zip(values, zip(blocks[::stride], ciphertexts)))
                written += len(values) + len(dels) + 1
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
    ) -> CacheEntry:
        """Durably write a fresh, compact entry (atomic: tmp + rename +
        dir fsync)."""
        path = self.path_for(digest, protocol)
        tmp = path.with_suffix(path.suffix + ".tmp")
        if tmp.exists():  # leftover from an earlier crash
            self.io.truncate(tmp, 0)
        header = (
            "header", protocol, params.to_wire(), tuple(int(k) for k in keys),
            key_fingerprint(keys, params.p),
        )
        self._append(tmp, [CATALOG_MAGIC, seal(header), _batch(digest, entries, (), params.p)])
        self._publish(tmp, path)
        return CacheEntry(
            digest=digest,
            protocol=protocol,
            params=params,
            keys=tuple(keys),
            entries={v: (h, tuple(ys)) for v, (h, ys) in entries.items()},
            path=path,
            records=len(entries) + 1,
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

        The batch, one sealed record, is fsync'd before the rename, so
        a crash leaves the old entry under the old name (an interrupted
        append is cut away on the next load), or the
        updated entry under the old name - a miss either way it is
        looked up, since the file says which table it describes - or
        the updated entry under the new name.  Once the file's weight
        (values written plus batches) exceeds twice the live values
        the file is compacted through :meth:`store`.  A commit that
        changes neither the table nor an entry writes nothing.
        """
        dels = list(dels)
        if new_digest == entry.digest and not adds and not dels:
            return entry  # the file already says it all
        self._append(entry.path, [_batch(new_digest, adds, dels, entry.params.p)])
        new_path = self.path_for(new_digest, entry.protocol)
        self._publish(entry.path, new_path)
        for value in dels:
            entry.entries.pop(value, None)
        entry.entries.update((v, (h, tuple(ys))) for v, (h, ys) in adds.items())
        entry.digest, entry.path = new_digest, new_path
        entry.records += len(adds) + len(dels) + 1
        if entry.records > 2 * len(entry.entries):
            _log.info(
                "catalog compacted records=%d entries=%d",
                entry.records, len(entry.entries),
            )
            return self.store(
                new_digest, entry.protocol, entry.params, entry.keys, entry.entries
            )
        return entry

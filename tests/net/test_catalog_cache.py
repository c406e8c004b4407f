"""Unit tests for the on-disk encrypted-catalog cache.

The cache must behave like the session journal it mirrors: CRC-sealed
records, torn tails truncated on load, atomic re-keying, and every
byte written through the injectable :class:`JournalIO` seam so seeded
disk faults hit it too.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.commutative import key_fingerprint
from repro.net.catalog import (
    CATALOG_MAGIC,
    CacheEntry,
    CatalogCache,
    CatalogCacheError,
    TableDigest,
    table_digest,
)
from repro.net.diskfaults import DiskFaultPlan, FaultyJournalIO, JournalIO
from repro.net.serialization import encode, seal
from repro.protocols.parties import PublicParams

PARAMS = PublicParams.for_bits(128)
KEYS = (123456789,)
ENTRIES = {
    "alice": (11, (1111,)),
    "bob": (22, (2222,)),
    "carol": (33, (3333,)),
}
TABLE = TableDigest(["alice", "bob", "carol"])
DIGEST = TABLE.hexdigest()
#: A v5 batch's first two fields: the table's shape, its count and total.
STATE = ("seq", (3).to_bytes(8, "big") + TABLE.state[2].to_bytes(32, "big"))
#: The peer maps, one per key: a peer element -> its re-encryption.
PEERS = ({7: 77, 8: 88},)
#: Bytes per int block of a batch's blob.
WIDTH = (PARAMS.p.bit_length() + 7) // 8


def _store(cache, table=TABLE, entries=ENTRIES):
    return cache.store(table, "intersection.r", PARAMS, KEYS, entries)


def _blob(*ints):
    return b"".join(i.to_bytes(WIDTH, "big") for i in ints)


def _batch(adds=ENTRIES, dels=(), peer_adds=({},), peer_dels=()):
    """A v5 batch record: the table's digest state, the adds' values, their hash and ciphertexts
    as one blob of fixed-width blocks, and the dels; then the peer-map
    adds (each element and its re-encryption) as a second blob, and the
    peer-map dels as a third."""
    values = tuple(sorted(adds, key=repr))
    ints = [i for v in values for i in (adds[v][0], *adds[v][1])]
    ys = sorted(peer_adds[0])
    peer_ints = [i for y in ys for i in (y, *(fs[y] for fs in peer_adds))]
    return (
        "batch", *STATE, values, _blob(*ints), tuple(dels),
        _blob(*peer_ints), _blob(*peer_dels),
    )


class TestTableDigest:
    def test_order_insensitive(self):
        assert table_digest(["a", "b"]) == table_digest(["b", "a"])

    def test_multiplicity_counts(self):
        assert table_digest(["a", "a", "b"]) != table_digest(["a", "b"])

    def test_mapping_digests_payloads(self):
        assert table_digest({"a": 1}) != table_digest({"a": 2})
        assert table_digest({"a": 1, "b": 2}) == table_digest(
            {"b": 2, "a": 1}
        )

    def test_mapping_and_sequence_differ(self):
        assert table_digest({"a": None}) != table_digest(["a"])

    def test_running_digest_equals_from_scratch(self):
        running = TableDigest(["a", "b", "b"])
        running.add("c")
        running.remove("b")
        assert running.hexdigest() == table_digest(["c", "b", "a"])
        pairs = TableDigest({"a": 1, "b": b"x"})
        pairs.remove(("a", 1))
        pairs.add(("a", 2))
        assert pairs.hexdigest() == table_digest({"b": b"x", "a": 2})

    def test_resumes_from_its_state(self):
        running = TableDigest(["a", "b"])
        running.remove("a")
        running.remove("b")  # a total below zero
        resumed = TableDigest.resume(running.state)
        assert resumed.state == running.state == ("seq", 0, 0)
        resumed.add("c")
        assert resumed.hexdigest() == table_digest(["c"])

    @pytest.mark.parametrize("state", [
        ("bag", 1, 0), ("seq", -1, 0), ("seq", 1, -1), ("seq", 1, 1 << 256),
        ("seq", True, 0), ("seq", 1, "0"), ("seq", 1), ["seq", 1, 0, 0], "seq", None,
    ])
    def test_resume_refuses_what_no_digest_has(self, state):
        with pytest.raises((ValueError, TypeError)):
            TableDigest.resume(state)

    def test_digests_are_pinned(self):
        """Cache files are named by these: a digest that moves turns
        every cache written before it into a miss."""
        assert table_digest(["alice", "bob", "bob", 7, -7, b"x", True, None]) == (
            "56b1b5953fd46b7300dc04edd7580b98c26cda14431b52e40b18b34b1fc06b91"
        )
        assert table_digest({"a": 1, "b": b"x", "c": ("p", [2**300])}) == (
            "acabdc80803a2dd82ed27125b2bb4bb7ce9707b9eac4b2abfaa953c50d5563b2"
        )


class TestRoundTrip:
    def test_store_then_lookup(self, tmp_path):
        cache = CatalogCache(tmp_path)
        stored = _store(cache)
        loaded = cache.lookup(DIGEST, "intersection.r")
        assert loaded is not None
        assert loaded.keys == KEYS
        assert loaded.entries == ENTRIES
        assert loaded.params == PARAMS
        assert loaded.fingerprint == stored.fingerprint

    def test_survives_reopen(self, tmp_path):
        _store(CatalogCache(tmp_path))
        loaded = CatalogCache(tmp_path).lookup(DIGEST, "intersection.r")
        assert loaded is not None and loaded.entries == ENTRIES

    def test_miss_returns_none(self, tmp_path):
        cache = CatalogCache(tmp_path)
        assert cache.lookup(DIGEST, "intersection.r") is None
        _store(cache)
        assert cache.lookup(DIGEST, "intersection.s") is None
        assert cache.lookup(table_digest(["x"]), "intersection.r") is None

    def test_party_cache_shape(self, tmp_path):
        cache = CatalogCache(tmp_path)
        _store(cache)
        entry = cache.lookup(DIGEST, "intersection.r")
        pc = entry.party_cache()
        assert pc.keys == KEYS
        assert pc.hashes == {v: h for v, (h, _) in ENTRIES.items()}
        assert pc.ciphertexts == ({v: ys[0] for v, (_, ys) in ENTRIES.items()},)
        # The party is handed the entry's maps, not copies of them.
        assert pc.hashes is entry.hashes and pc.peers is entry.peers


class TestAppendDelta:
    def test_folds_and_rekeys(self, tmp_path):
        cache = CatalogCache(tmp_path)
        entry = _store(cache)
        new_table = TableDigest(["alice", "carol", "dave"])
        updated = cache.append_delta(
            entry, new_table, {"dave": (44, (4444,))}, ["bob"]
        )
        assert updated.entries == {
            "alice": (11, (1111,)),
            "carol": (33, (3333,)),
            "dave": (44, (4444,)),
        }
        # The old key is gone; the new one loads the folded entry.
        assert cache.lookup(DIGEST, "intersection.r") is None
        loaded = cache.lookup(new_table.hexdigest(), "intersection.r")
        assert loaded.entries == updated.entries

    def test_replace_same_value(self, tmp_path):
        cache = CatalogCache(tmp_path)
        entry = _store(cache)
        new_table = TableDigest(["replaced"])
        updated = cache.append_delta(
            entry, new_table, {"alice": (99, (9999,))}, []
        )
        assert updated.entries["alice"] == (99, (9999,))

    def test_append_is_a_batch_not_a_rewrite(self, tmp_path):
        """The commit appends its records and renames the same file."""
        cache = CatalogCache(tmp_path)
        entry = _store(cache, entries=_entries(40))
        before = entry.path.read_bytes()
        inode = entry.path.stat().st_ino
        updated = cache.append_delta(
            entry, TableDigest(["next"]), {"dave": (44, (4444,))}, ["v0"]
        )
        after = updated.path.read_bytes()
        assert after.startswith(before)
        assert len(after) - len(before) < 200
        assert updated.path.stat().st_ino == inode

    def test_uncommitted_tail_is_cut_not_served(self, tmp_path):
        """A batch commits by its CRC: a torn one never took effect,
        and a load drops it, durably, so a later batch cannot commit
        it. An intact record after a batch that is not a batch is no
        crash's leftover but corruption: a typed miss."""
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        intact = path.read_bytes()
        torn = seal(_batch(adds={"dave": (44, (4444,))}, dels=["alice"]))
        path.write_bytes(intact + torn[:-1])
        loaded = cache.lookup(DIGEST, "intersection.r")
        assert loaded.entries == ENTRIES
        assert path.read_bytes() == intact
        path.write_bytes(intact + seal(("del", "alice")))
        with pytest.raises(CatalogCacheError, match="unknown record kind"):
            cache.lookup(DIGEST, "intersection.r")

    def test_zero_filled_tail_is_cut_not_corruption(self, tmp_path):
        """A zero length passes its CRC (crc32 of nothing is 0), but no
        record is empty: the zeros a crash can leave are a torn tail."""
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        intact = path.read_bytes()
        path.write_bytes(intact + bytes(4096))
        assert cache.lookup(DIGEST, "intersection.r").entries == ENTRIES
        assert path.read_bytes() == intact

    def test_crash_before_rename_is_a_miss_under_either_name(self, tmp_path):
        """Appended and fsync'd but never renamed: the file says it
        describes the new table, its name says the old one."""

        class NoRename(JournalIO):
            def replace(self, src, dst):
                raise OSError("crash before the rename")

        entry = _store(CatalogCache(tmp_path))
        new_table = TableDigest(["alice", "carol", "dave"])
        with pytest.raises(OSError):
            CatalogCache(tmp_path, io=NoRename()).append_delta(
                entry, new_table, {"dave": (44, (4444,))}, ["bob"]
            )
        fresh = CatalogCache(tmp_path)
        with pytest.raises(CatalogCacheError, match="describes"):
            fresh.lookup(DIGEST, "intersection.r")
        assert fresh.lookup(new_table.hexdigest(), "intersection.r") is None


class TestPeerMaps:
    """The party's re-encryptions of the peer's elements ride the same
    batches as its own entries."""

    def _stored(self, cache):
        return cache.store(TABLE, "intersection.r", PARAMS, KEYS, ENTRIES, PEERS)

    def test_store_then_lookup_and_inject(self, tmp_path):
        self._stored(CatalogCache(tmp_path))
        loaded = CatalogCache(tmp_path).lookup(DIGEST, "intersection.r")
        assert loaded.peers == PEERS and loaded.entries == ENTRIES
        assert loaded.records == len(ENTRIES) + len(PEERS[0]) + 1
        assert loaded.party_cache().peers == PEERS

    def test_delta_folds_the_maps_in_its_one_batch(self, tmp_path):
        cache = CatalogCache(tmp_path)
        entry = cache.store(TABLE, "intersection.r", PARAMS, KEYS, _entries(20), PEERS)
        before = entry.path.read_bytes()
        new_table = TableDigest(["alice", "carol"])
        updated = cache.append_delta(entry, new_table, {}, ["v0"], ({9: 99},), [7])
        assert updated.peers == ({8: 88, 9: 99},)
        assert updated.path.read_bytes().startswith(before)
        loaded = cache.lookup(new_table.hexdigest(), "intersection.r")
        assert loaded.peers == updated.peers and loaded.records == updated.records

    def test_map_churn_alone_appends_without_a_rename(self, tmp_path):
        """A full query after the peer changed: the table, and so the
        name, stay; one write and one fsync, no rename."""

        class Counting(JournalIO):
            calls: list = []

            def write(self, fh, data):
                self.calls.append("write")
                super().write(fh, data)

            def fsync(self, fh):
                self.calls.append("fsync")
                super().fsync(fh)

            def replace(self, src, dst):
                self.calls.append("rename")
                super().replace(src, dst)

        io = Counting()
        cache = CatalogCache(tmp_path, io=io)
        entry = self._stored(cache)
        inode = entry.path.stat().st_ino
        del io.calls[:]
        updated = cache.append_delta(entry, TABLE, {}, (), ({9: 99},), [7])
        assert io.calls == ["write", "fsync"]
        assert updated.path.stat().st_ino == inode
        assert cache.lookup(DIGEST, "intersection.r").peers == ({8: 88, 9: 99},)
        # And an unchanged map writes nothing at all.
        assert cache.append_delta(updated, TABLE, {}, ()) is updated
        assert io.calls == ["write", "fsync"]

    def test_a_torn_map_batch_is_cut_and_the_prefix_served(self, tmp_path):
        cache = CatalogCache(tmp_path)
        path = self._stored(cache).path
        intact = path.read_bytes()
        torn = seal(_batch(adds={}, peer_adds=({9: 99},), peer_dels=[7]))
        for cut in (1, len(torn) // 2, len(torn) - 1):
            path.write_bytes(intact + torn[:cut])
            loaded = cache.lookup(DIGEST, "intersection.r")
            assert loaded.peers == PEERS and loaded.entries == ENTRIES
            assert path.read_bytes() == intact

    def test_a_crash_before_the_rename_is_a_miss(self, tmp_path):
        class NoRename(JournalIO):
            def replace(self, src, dst):
                raise OSError("crash before the rename")

        entry = self._stored(CatalogCache(tmp_path))
        new_table = TableDigest(["alice", "carol"])
        with pytest.raises(OSError):
            CatalogCache(tmp_path, io=NoRename()).append_delta(
                entry, new_table, {}, ["bob"], ({9: 99},), [7]
            )
        fresh = CatalogCache(tmp_path)
        with pytest.raises(CatalogCacheError, match="describes"):
            fresh.lookup(DIGEST, "intersection.r")
        assert fresh.lookup(new_table.hexdigest(), "intersection.r") is None

    def test_map_churn_counts_toward_compaction(self, tmp_path):
        """Peer elements that come and go weigh like values: the file
        is compacted within ~2x of its compact size (in bytes where a
        batch's framing is no heavier than a row: p of 512 bits)."""
        params = PublicParams.for_bits(512)
        peers = {y: y + 1 for y in range(100, 130)}
        cache = CatalogCache(tmp_path / "live")
        entry = cache.store(TABLE, "intersection.r", params, KEYS, ENTRIES, (peers,))
        compactions = 0
        for step in range(80):
            gone, new = 100 + step, 130 + step
            del peers[gone]
            peers[new] = new + 1
            size_before = entry.path.stat().st_size
            entry = cache.append_delta(entry, TABLE, {}, (), ({new: peers[new]},), [gone])
            compactions += entry.path.stat().st_size < size_before
            assert entry.peers == (peers,) and entry.records <= 2 * entry.live
            fresh = CatalogCache(cache.root).lookup(DIGEST, "intersection.r")
            assert fresh.peers == (peers,) and fresh.records == entry.records
            compact = CatalogCache(tmp_path / "compact").store(
                TABLE, "intersection.r", params, KEYS, ENTRIES, (peers,)
            ).path.stat().st_size
            assert entry.path.stat().st_size <= 2 * compact + 200
        assert 2 <= compactions <= 12


def _entries(n):
    return {f"v{i}": (1000 + i, (5000 + i,)) for i in range(n)}


class TestCompaction:
    def test_churn_compacts_and_bounds_the_file(self, tmp_path):
        """Churning more values than the table holds triggers the one
        compactor; the file never exceeds ~2x its compact size, a
        fresh lookup always equals the folded entry, and the directory
        holds exactly one entry file throughout."""
        live = _entries(30)
        cache = CatalogCache(tmp_path / "live")
        entry = _store(cache, TableDigest(sorted(live)), live)
        compactions = 0
        for step in range(80):
            gone, new = f"v{step}", f"v{step + 30}"
            del live[gone]
            live[new] = (1000 + step + 30, (5000 + step + 30,))
            table = TableDigest(sorted(live))
            digest = table.hexdigest()
            size_before = entry.path.stat().st_size
            entry = cache.append_delta(entry, table, {new: live[new]}, [gone])
            compactions += entry.path.stat().st_size < size_before

            assert entry.entries == live
            assert [p.name for p in cache.root.iterdir()] == [entry.path.name]
            fresh = CatalogCache(cache.root).lookup(digest, "intersection.r")
            assert fresh.entries == live and fresh.records == entry.records
            compact = _store(
                CatalogCache(tmp_path / "compact"), table, live
            ).path.stat().st_size
            batch = len(seal(_batch({new: live[new]}, [gone]))) + 100
            assert entry.path.stat().st_size <= 2 * compact + batch
        # 80 steps x (2 values + 1 batch) against 30 live ones: it fired,
        # and more than once, but nowhere near once per delta.
        assert 2 <= compactions <= 12

    def test_batches_without_values_are_compacted(self, tmp_path):
        """A commit that changes no entry but the table (one more
        occurrence of a held value) still re-keys the file by a batch;
        compaction counts the batch, so such commits cannot grow the
        file for good. One on an unchanged table writes nothing."""
        live = _entries(30)
        table = TableDigest(sorted(live))
        cache = CatalogCache(tmp_path)
        entry = _store(cache, table, live)
        compact = entry.path.read_bytes()
        entry = cache.append_delta(entry, table, {}, [])
        assert entry.path.read_bytes() == compact
        batch = len(seal(_batch({}, ())))
        compactions = 0
        for _ in range(3 * len(live)):
            table.add("v0")
            digest = table.hexdigest()
            size_before = entry.path.stat().st_size
            entry = cache.append_delta(entry, table, {}, [])
            compactions += entry.path.stat().st_size < size_before
            # Fewer than len(live) batches since the last compaction: in
            # bytes within 2x where a batch's framing is no heavier than
            # a value (p of 512 bits and up), more below.
            assert entry.records <= 2 * len(live)
            assert entry.path.stat().st_size <= len(compact) + len(live) * batch
            fresh = CatalogCache(tmp_path).lookup(digest, "intersection.r")
            assert fresh.entries == live and fresh.records == entry.records
        assert compactions >= 2


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(CatalogCacheError):
            cache.lookup(DIGEST, "intersection.r")

    def test_corrupt_header_crc(self, tmp_path):
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        data = bytearray(path.read_bytes())
        data[len(CATALOG_MAGIC) + 8] ^= 0xFF  # flip a header byte
        path.write_bytes(bytes(data))
        with pytest.raises(CatalogCacheError):
            cache.lookup(DIGEST, "intersection.r")

    def test_torn_tail_truncated_and_served(self, tmp_path):
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        intact = path.read_bytes()
        path.write_bytes(intact + b"\x00\x00\x01\x00garbage")
        loaded = cache.lookup(DIGEST, "intersection.r")
        assert loaded is not None and loaded.entries == ENTRIES
        # The repair is durable: the torn bytes are gone from disk.
        assert path.read_bytes() == intact

    def test_foreign_keys_rejected(self, tmp_path):
        """An entry whose keys do not match its fingerprint is refused
        (cached ciphertexts must never replay under the wrong key)."""
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        # A validly CRC-sealed header whose fingerprint names *other*
        # keys than the ones stored: the CRC passes, the key check
        # must not.
        path.write_bytes(
            CATALOG_MAGIC
            + seal((
                "header", "intersection.r", PARAMS.to_wire(),
                KEYS, key_fingerprint((987654321,), PARAMS.p),
            ))
            + seal(_batch())
        )
        with pytest.raises(CatalogCacheError, match="fingerprint"):
            cache.lookup(DIGEST, "intersection.r")

    def test_v1_file_is_a_miss(self, tmp_path):
        """A file of the previous format fails the magic check."""
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        path.write_bytes(b"RPCC\x00\x01" + path.read_bytes()[6:])
        with pytest.raises(CatalogCacheError, match="magic"):
            cache.lookup(DIGEST, "intersection.r")

    def test_v2_file_is_a_miss(self, tmp_path):
        """A whole file of the previous layout - one ``add`` record per
        value, the batch closed by a ``rekey`` - is a miss by its
        magic: no v2 reader is kept."""
        cache = CatalogCache(tmp_path)
        path = cache.path_for(DIGEST, "intersection.r")
        path.write_bytes(
            b"RPCC\x00\x02"
            + seal(_HEADER)
            + b"".join(seal(("add", v, h, ys)) for v, (h, ys) in ENTRIES.items())
            + seal(("rekey", DIGEST))
        )
        with pytest.raises(CatalogCacheError, match="magic"):
            cache.lookup(DIGEST, "intersection.r")


    def test_v3_file_is_a_miss(self, tmp_path):
        """A whole file of the previous layout - batches without the
        peer maps' blobs - is a miss by its magic: the next full query
        rebuilds it."""
        cache = CatalogCache(tmp_path)
        path = cache.path_for(DIGEST, "intersection.r")
        path.write_bytes(
            b"RPCC\x00\x03" + seal(_HEADER) + seal(_batch()[:5])
        )
        with pytest.raises(CatalogCacheError, match="magic"):
            cache.lookup(DIGEST, "intersection.r")

    def test_v4_file_is_a_miss(self, tmp_path):
        """A whole file of the previous layout - batches naming their
        table by its hex digest - is a miss by its magic, and no file
        to lend a reopen its digest."""
        cache = CatalogCache(tmp_path)
        path = cache.path_for(DIGEST, "intersection.r")
        path.write_bytes(
            b"RPCC\x00\x04" + seal(_HEADER)
            + seal(("batch", DIGEST, *_batch()[3:]))
        )
        with pytest.raises(CatalogCacheError, match="magic"):
            cache.lookup(DIGEST, "intersection.r")
        assert cache.sole_entry("intersection.r") is None


# ----------------------------------------------------------------------
# CRC-valid but malformed records: always a typed error
# ----------------------------------------------------------------------
_HEADER = (
    "header", "intersection.r", PARAMS.to_wire(), KEYS,
    key_fingerprint(KEYS, PARAMS.p),
)
_VALID = [
    _HEADER,
    _batch(),
    _batch(adds={"dave": (44, (4444,))}, dels=["bob"]),
]
_ENCODABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.binary(max_size=8)
    | st.text(max_size=8)
    | st.sampled_from(["header", "batch", DIGEST, "bob", ("bob",)])
    | st.sampled_from([_blob(44, 4444), _blob(PARAMS.p, 1), _blob(1)]),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=6).map(tuple),
    max_leaves=12,
)


def _sealed(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw + zlib.crc32(raw).to_bytes(4, "big")


def _lookup_is_typed(tmp_path, blob: bytes):
    cache = CatalogCache(tmp_path)
    cache.path_for(DIGEST, "intersection.r").write_bytes(CATALOG_MAGIC + blob)
    try:
        entry = cache.lookup(DIGEST, "intersection.r")
    except CatalogCacheError:
        return None
    assert entry is None or isinstance(entry, CacheEntry)
    return entry


class TestMalformedRecords:
    @pytest.mark.parametrize("records", [
        [("header", "intersection.r"), _batch()],
        [(*_HEADER, "extra"), _batch()],
        ["header", _batch()],
        [7, _batch()],
        [_HEADER, ("batch", *STATE, ("x",), _blob(1, 2))],
        [_HEADER, (*_batch(), "extra")],
        [_HEADER, ("batch", *STATE, (["unhashable"],), _blob(1, 2), ())],
        [_HEADER, _batch(), ("batch", *STATE, (), b"", (["unhashable"],))],
        [_HEADER, ("batch", *STATE, ("x",), (1, 2), ())],
        [_HEADER, ("batch",)],
        [_HEADER, _batch(), ("del", "x")],
        [_HEADER, _batch(), ("rekey", DIGEST)],
        [_HEADER, (), _batch()],
        [_HEADER, None, _batch()],
        [_HEADER, ("bogus", 1), _batch()],
        [_HEADER],
        [_batch()],
        [("header", "intersection.r", ("p",), KEYS, "fp"), _batch()],
        [
            (*_HEADER[:3], (), key_fingerprint((), PARAMS.p)),
            ("batch", *STATE, ("x",), _blob(1), ()),
        ],
        [(*_HEADER[:3], (-1,), _HEADER[4]), _batch()],
    ])
    def test_wrong_shape_is_a_typed_miss(self, tmp_path, records):
        blob = b"".join(seal(r) for r in records)
        assert _lookup_is_typed(tmp_path, blob) is None

    @pytest.mark.parametrize("batch, error", [
        (("batch", *STATE, ("x",), _blob(1, 2)[:-1], (), b"", b""), "blob"),
        (("batch", *STATE, ("x",), _blob(1, 2) + b"\0", (), b"", b""), "blob"),
        (("batch", *STATE, ("x",), _blob(1, 2, 3), (), b"", b""), "blob"),
        (("batch", *STATE, ("x", "y"), _blob(1, 2), (), b"", b""), "blob"),
        (("batch", *STATE, ("x",), _blob(PARAMS.p, 2), (), b"", b""), "below p"),
        (("batch", *STATE, ("x",), _blob(1, PARAMS.p + 1), (), b"", b""), "below p"),
        # The digest state: a shape string and a 40-byte blob.
        (("batch", 12345, STATE[1], ("x",), _blob(1, 2), (), b"", b""), "malformed batch"),
        (("batch", "seq", DIGEST, ("x",), _blob(1, 2), (), b"", b""), "malformed batch"),
        (("batch", "seq", 3, ("x",), _blob(1, 2), (), b"", b""), "malformed batch"),
        (("batch", "seq", STATE[1][:-1], ("x",), _blob(1, 2), (), b"", b""), "malformed batch"),
        (("batch", "bag", STATE[1], ("x",), _blob(1, 2), (), b"", b""), "digest's state"),
        (("batch", DIGEST, ("x",), _blob(1, 2), (), b"", b""), "malformed"),
        (("batch", *STATE, ["x"], _blob(1, 2), (), b"", b""), "malformed batch"),
        (("batch", *STATE, "x", _blob(1, 2), (), b"", b""), "malformed batch"),
        (("batch", *STATE, ("x",), _blob(1, 2), ["alice"], b"", b""), "malformed batch"),
        (("batch", *STATE, ("x",), _blob(1, 2), "alice", b"", b""), "malformed batch"),
        # The peer maps' blobs: one element and one re-encryption per
        # key each added row, one element each removed one, below p.
        (("batch", *STATE, (), b"", (), _blob(5), b""), "blob"),
        (("batch", *STATE, (), b"", (), _blob(5, 6, 7), b""), "blob"),
        (("batch", *STATE, (), b"", (), b"", _blob(5)[:-1]), "blob"),
        (("batch", *STATE, (), b"", (), _blob(PARAMS.p, 6), b""), "below p"),
        (("batch", *STATE, (), b"", (), _blob(5, PARAMS.p), b""), "below p"),
        (("batch", *STATE, (), b"", (), b"", _blob(PARAMS.p)), "below p"),
        (("batch", *STATE, (), b"", (), (5, 6), b""), "malformed batch"),
        (("batch", *STATE, (), b"", (), b"", (5,)), "malformed batch"),
    ])
    def test_bad_batch_is_a_typed_miss_not_served(self, tmp_path, batch, error):
        """CRC-valid, so written whole: a batch whose blob does not
        hold one hash and one ciphertext per key for each value (or one
        element and one re-encryption per key for each peer-map row),
        whose block is no residue mod ``p``, or whose fields have the
        wrong type is corruption - never served, never cut away."""
        cache = CatalogCache(tmp_path)
        path = _store(cache).path
        data = path.read_bytes() + seal(batch)
        path.write_bytes(data)
        with pytest.raises(CatalogCacheError, match=error):
            cache.lookup(DIGEST, "intersection.r")
        assert path.read_bytes() == data

    def test_undecodable_payload_is_a_typed_miss(self, tmp_path):
        blob = seal(_HEADER) + _sealed(b"\xff\x00garbage")
        assert _lookup_is_typed(tmp_path, blob + seal(_batch())) is None

    def test_payload_longer_than_its_value_is_corruption(self, tmp_path):
        """CRC-valid, so written whole: not a torn tail to cut away,
        even after the last committed batch."""
        blob = (
            CATALOG_MAGIC + seal(_HEADER) + seal(_batch())
            + _sealed(encode(_batch(dels=["alice"])) + b"\x00")
        )
        cache = CatalogCache(tmp_path)
        path = cache.path_for(DIGEST, "intersection.r")
        path.write_bytes(blob)
        with pytest.raises(CatalogCacheError, match="declared length"):
            cache.lookup(DIGEST, "intersection.r")
        assert path.read_bytes() == blob

    @settings(max_examples=150, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["replace", "field", "insert", "drop"]),
                st.integers(min_value=0, max_value=len(_VALID) - 1),
                st.integers(min_value=0, max_value=4),
                _ENCODABLE,
            ),
            min_size=1, max_size=3,
        )
    )
    def test_fuzzed_records_never_escape_untyped(self, tmp_path_factory, edits):
        records = list(_VALID)
        for operation, index, field, payload in edits:
            index = min(index, len(records) - 1)
            if operation == "replace":
                records[index] = payload
            elif operation == "field":
                # One field of a record: a batch's digest, values, blob
                # or dels, a header's params or keys.
                record = records[index]
                if isinstance(record, tuple) and field < len(record):
                    records[index] = (
                        *record[:field], payload, *record[field + 1 :]
                    )
            elif operation == "insert":
                records.insert(index, payload)
            elif len(records) > 1:
                del records[index]
        blob = b"".join(seal(r) for r in records)
        entry = _lookup_is_typed(tmp_path_factory.mktemp("fuzz"), blob)
        if entry is not None:
            for value, (hash_, ys) in entry.entries.items():
                hash(value)
                assert isinstance(ys, tuple)


class TestDiskFaults:
    def test_fsync_fault_surfaces(self, tmp_path):
        io = FaultyJournalIO(
            DiskFaultPlan(seed=1, fsync_error_rate=1.0, max_faults=1)
        )
        cache = CatalogCache(tmp_path, io=io)
        with pytest.raises(OSError):
            _store(cache)

    def test_torn_write_repaired_on_next_load(self, tmp_path):
        """A torn final write is exactly the crash the tail-scan
        repairs: the intact prefix (header + earlier adds) loads."""
        io = FaultyJournalIO(
            DiskFaultPlan(seed=2, torn_write_rate=1.0, max_faults=1, skip=4)
        )
        cache = CatalogCache(tmp_path, io=io, fsync=False)
        try:
            _store(cache)
        except OSError:
            pass
        # Whatever made it to disk must load cleanly or miss - never a
        # wrong answer.
        clean = CatalogCache(tmp_path)
        try:
            loaded = clean.lookup(DIGEST, "intersection.r")
        except CatalogCacheError:
            loaded = None
        if loaded is not None:
            for value, entry in loaded.entries.items():
                assert ENTRIES[value] == entry

"""A warm reopen builds each map once, hashes no table it can avoid,
and checks what it always did.

Reopening both catalogs on their caches decodes each ``.cat`` file
straight into the maps its party keeps - hashes, their inverse, own
ciphertexts, peer maps - and the party takes them uncopied.  The
allocation peak of one reopen is held as a multiple of the bytes of the
two files it reads (never seconds, never bytes alone: both move with
the interpreter and the key size).  The checks the parties made on a
per-value copy still hold on the shared maps: two values under one hash
are a collision.

A protocol's one file that holds exactly a duplicate-free table of
``str`` / ``bytes`` / ``int`` values lends the catalog its digest, so
such a reopen builds no :class:`TableDigest` from the table (held as a
count of constructions).  Every other table is hashed as before, and
its hit or miss and its answer are what they were: a multiset with
duplicates, a mapping, equal values that encode apart, a table changed
while down, a directory holding two files of the protocol.  A miss
leaves one file per link.
"""

from __future__ import annotations

import shutil
import tracemalloc

import pytest

import repro
from repro.protocols.spec import get_spec
from repro.net.catalog import CatalogCache, TableDigest, table_digest
from repro.protocols.base import HashCollisionError

BITS = 128
N = 4_000
#: One warm reopen's allocation peak per byte of the two cache files:
#: 10.0 while the load built per-value tuples that the party copied
#: into its maps, 8.4 since it decodes into the maps the party keeps.
PEAK_PER_CACHE_BYTE = 9.2


def _tables():
    common = [f"c{i}" for i in range(N // 2)]
    return {side: common + [f"{side}{i}" for i in range(N - N // 2)] for side in "rs"}


def _reopened(tmp_path, tables):
    """Both catalogs opened afresh on their cache directories, paired."""
    r, s = (
        repro.open_catalog(tables[side], bits=BITS, seed=side, cache_dir=tmp_path / side)
        for side in "rs"
    )
    return r.pair(s)


def test_a_warm_reopen_allocates_a_small_multiple_of_its_cache_files(tmp_path):
    tables = _tables()
    _reopened(tmp_path, tables).query("intersection")
    _reopened(tmp_path, tables).query("intersection")  # lazy imports, warm paths
    cache_bytes = sum(path.stat().st_size for path in tmp_path.rglob("*.cat"))
    tracemalloc.start()
    try:
        result = _reopened(tmp_path, tables).query("intersection")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.cache_hit and result.answer == set(tables["r"]) & set(tables["s"])
    assert peak <= PEAK_PER_CACHE_BYTE * cache_bytes, (peak, cache_bytes)


def test_a_cache_entry_holding_two_values_under_one_hash_is_a_collision(tmp_path):
    """A CRC-valid v4 file written with value b under a's hash: the
    reopened party refuses it as the fresh one would its table."""
    tables = {"r": ["a", "b", "c", "d"], "s": ["c", "d", "e"]}
    _reopened(tmp_path, tables).query("intersection")
    cache = CatalogCache(tmp_path / "r")
    entry = cache.lookup(table_digest(tables["r"]), "intersection.r")
    entries = entry.entries
    entries["b"] = (entries["a"][0], entries["b"][1])
    cache.store(
        TableDigest(tables["r"]), entry.protocol, entry.params, entry.keys, entries, entry.peers
    )
    with pytest.raises(HashCollisionError):
        _reopened(tmp_path, tables).query("intersection")


@pytest.fixture
def digests_built(monkeypatch):
    """The length of each table a :class:`TableDigest` is built from."""
    built = []
    init = TableDigest.__init__
    monkeypatch.setattr(
        TableDigest, "__init__", lambda self, data=(): built.append(len(data)) or init(self, data)
    )
    return built


def _query(folder, protocol, tables, cached="rs"):
    """One query of catalogs opened afresh, the ``cached`` sides on
    their cache directories."""
    r, s = (
        repro.open_catalog(
            tables[side], bits=BITS, seed=side,
            cache_dir=folder / side if side in cached else None,
        )
        for side in "rs"
    )
    return r.pair(s).query(protocol)


def test_a_warm_reopen_of_a_set_hashes_neither_table(tmp_path, digests_built):
    tables = {"r": ["a", "b", "c", "d"], "s": ["c", "d", "e"]}
    _query(tmp_path, "intersection", tables)
    assert digests_built == [4, 3]
    result = _query(tmp_path, "intersection", tables)
    assert result.cache_hit and result.answer == {"c", "d"}
    assert digests_built == [4, 3]


#: name -> (protocol, the cached side, its table at the first query and
#: at the reopen, whether the reopen hits, whether it hashes the table).
REOPENS = {
    "set-of-str-bytes-int": ("intersection", "r", ["a", b"b", 3, -4], None, True, False),
    "multiset": ("equijoin-size", "r", ["a", "a", "c", "d"], None, True, True),
    "mapping": ("equijoin", "s", {"c": b"x", "d": b"y", "e": b"z"}, None, True, True),
    "bool-for-int": ("intersection", "r", [1, "c", "d"], [True, "c", "d"], False, True),
    "changed-while-down": ("intersection", "r", ["a", "c", "d"], ["a", "c", "x"], False, True),
}


@pytest.mark.parametrize("name", sorted(REOPENS))
def test_a_reopen_hits_and_answers_as_a_hashed_one_would(tmp_path, digests_built, name):
    protocol, side, first, then, hit, hashes = REOPENS[name]
    other = ["c", "d", "e"]
    tables = {side: first, "rs".replace(side, ""): other}
    _query(tmp_path, protocol, tables, cached=side)
    cold = _query(tmp_path / "cold", protocol, {**tables, side: then or first}, cached="")
    del digests_built[:]
    result = _query(tmp_path, protocol, {**tables, side: then or first}, cached=side)
    assert (result.cache_hit, result.answer) == (hit, cold.answer)
    assert digests_built == ([len(then or first)] if hashes else [])
    # However it went, the link keeps one file: its table's.
    (path,) = (tmp_path / side).glob("*.cat")
    assert path.name.startswith(table_digest(then or first)[:32])


def test_two_files_of_the_protocol_are_hashed_past(tmp_path, digests_built):
    tables = {"r": ["a", "b", "c", "d"], "s": ["c", "d", "e"]}
    _query(tmp_path, "intersection", tables, cached="r")
    (path,) = (tmp_path / "r").glob("*.cat")
    shutil.copy(path, path.with_name("0" * 32 + ".intersection.r.cat"))
    del digests_built[:]
    result = _query(tmp_path, "intersection", tables, cached="r")
    assert result.cache_hit and result.answer == {"c", "d"}
    assert digests_built == [4]


def test_a_miss_leaves_one_file_per_link(tmp_path):
    tables = {"r": ["a", "b", "c", "d"], "s": ["c", "d", "e"]}
    _query(tmp_path, "intersection", tables)
    tables["r"] = ["a", "b", "c", "x"]
    assert _query(tmp_path, "intersection", tables).answer == {"c"}
    for side in "rs":
        (path,) = (tmp_path / side).glob("*.intersection.*.cat")
        assert path.name.startswith(table_digest(tables[side])[:32])


def test_a_second_build_loads_the_file_again(tmp_path):
    """Journal replay builds the party twice: the preloaded entry's
    maps go to the first build, the second decodes its own."""
    tables = {"r": ["a", "b", "c", "d"], "s": ["c", "d", "e"]}
    _query(tmp_path, "intersection", tables, cached="r")
    catalog = repro.open_catalog(tables["r"], bits=BITS, seed="r", cache_dir=tmp_path / "r")
    params = catalog._ensure_params()
    _, make_state, _ = catalog._plan(get_spec("intersection"), "receiver", "full")
    first, second = make_state(params), make_state(params)
    assert first._hash_by_value == second._hash_by_value
    assert first._hash_by_value is not second._hash_by_value

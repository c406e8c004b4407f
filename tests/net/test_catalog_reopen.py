"""A warm reopen builds each map once, and checks what it always did.

Reopening both catalogs on their caches decodes each ``.cat`` file
straight into the maps its party keeps - hashes, their inverse, own
ciphertexts, peer maps - and the party takes them uncopied.  The
allocation peak of one reopen is held as a multiple of the bytes of the
two files it reads (never seconds, never bytes alone: both move with
the interpreter and the key size).  The checks the parties made on a
per-value copy still hold on the shared maps: two values under one hash
are a collision.
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro
from repro.net.catalog import CatalogCache, table_digest
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
    cache.store(entry.digest, entry.protocol, entry.params, entry.keys, entries, entry.peers)
    with pytest.raises(HashCollisionError):
        _reopened(tmp_path, tables).query("intersection")

"""The stateful Catalog/Peer API: parity, deltas, cache, sessions.

Three properties anchor the repeated-query redesign:

* **Golden parity** - the first (full) query through a Catalog puts
  exactly the frames of the one-shot verbs on the wire, for every
  registered protocol, seen from either end: the hello names the
  query, so there is no announcement frame.
* **Delta correctness** - a delta query's answer equals a fresh full
  run over the mutated tables, and so does the party state it commits
  (delta ∘ full ≡ full), for every protocol, whole or streamed, with
  or without the on-disk cache.
* **Persistence** - a cache-backed catalog warm-starts from disk with
  the same answers, and delta commits re-key the cache.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.engine import create_engine
from repro.net import server, tcp
from repro.net.catalog import CatalogCache, table_digest
from repro.net.session import HandshakeError
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS, get_spec

BITS = 128
PARAMS = PublicParams.for_bits(BITS)

BASE_PROTOCOLS = [n for n, s in PROTOCOLS.items() if s.delta_of is None]


def _tables(protocol):
    v_r = [f"v{i}" for i in range(12)]
    v_s = [f"v{i}" for i in range(6, 18)]
    shape = get_spec(protocol).sender_input
    if shape == "ext":
        return v_r, {v: f"ext({v})".encode() for v in v_s}
    if shape == "amounts":
        return v_r, {v: i * 10 for i, v in enumerate(v_s)}
    return v_r, v_s


class _RecordingTransport:
    """Wraps a framed endpoint (an :class:`~repro.net.aio.AsyncFrameEndpoint`
    R dials or S accepts); logs every message in arrival order."""

    def __init__(self, transport, log):
        self._transport = transport
        self.log = log

    async def send(self, message):
        self.log.append(("sent", message))
        await self._transport.send(message)

    async def recv_within(self, timeout):
        # What the session reads, the hello it is handed back included
        # (a host's own read of it comes through ``__getattr__``).
        message = await self._transport.recv_within(timeout)
        self.log.append(("received", message))
        return message

    def __getattr__(self, name):
        return getattr(self._transport, name)


def _record(monkeypatch, opener, log):
    """Record every frame of the links a party opens (``"_connect"``:
    the client's, ``tcp._connect``; ``"_accept"``: the server's,
    ``server._accept``)."""
    module = tcp if opener == "_connect" else server
    open_link = getattr(module, opener)

    async def recording(*args, **kwargs):
        return _RecordingTransport(await open_link(*args, **kwargs), log)

    monkeypatch.setattr(module, opener, recording)


def _one_shot(protocol, v_r, v_s):
    """``repro.serve`` on a thread, ``repro.connect`` here."""
    ports, ready = [], threading.Event()
    box = {}

    def serve_thread():
        box["serve"] = repro.serve(
            protocol, v_s, params=PARAMS, rng=random.Random("S"),
            ready_callback=lambda p: (ports.append(p), ready.set()),
            timeout=10.0,
        )

    thread = threading.Thread(target=serve_thread)
    thread.start()
    assert ready.wait(timeout=10)
    connected = repro.connect(
        protocol, v_r, rng=random.Random("R"), port=ports[0], timeout=10.0
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    return connected, box["serve"]


def _catalog_query(protocol, v_r, v_s, **client):
    """One query between a serving and a connecting catalog."""
    server_peer = repro.open_catalog(
        v_s, params=PARAMS, rng=random.Random("S")
    ).serve(port=0, timeout=10.0)
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(served=server_peer.query(protocol))
    )
    thread.start()
    catalog = repro.open_catalog(v_r, rng=random.Random("R"), **client)
    result = catalog.connect(
        "127.0.0.1", port=server_peer.port, timeout=10.0
    ).query(protocol)
    thread.join(timeout=10)
    assert not thread.is_alive()
    server_peer.close()
    return result, box["served"]


# ----------------------------------------------------------------------
# Golden parity: Catalog first query == one-shot run, all protocols
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", BASE_PROTOCOLS)
class TestGoldenParity:
    def test_catalog_client_matches_legacy_client(self, protocol, monkeypatch):
        """Same seeds: a Catalog client's transcript is
        ``repro.connect``'s - the hello names the query, so there is
        not one frame more."""
        v_r, v_s = _tables(protocol)
        one_shot_log, catalog_log = [], []
        with monkeypatch.context() as patch:
            _record(patch, "_connect", one_shot_log)
            connected, _ = _one_shot(protocol, v_r, v_s)
        _record(monkeypatch, "_connect", catalog_log)
        result, _ = _catalog_query(protocol, v_r, v_s)

        assert result.mode == "full"
        assert result.answer == connected.answer
        assert one_shot_log[0][1][0] == "hello"
        assert catalog_log == one_shot_log

    def test_serving_catalog_adds_no_frame(self, protocol, monkeypatch):
        """Seen from S's socket: a serving Catalog exchanges exactly
        ``repro.serve``'s frames and learns what it learns."""
        v_r, v_s = _tables(protocol)
        one_shot_log, catalog_log = [], []
        with monkeypatch.context() as patch:
            _record(patch, "_accept", one_shot_log)
            _, served = _one_shot(protocol, v_r, v_s)
        _record(monkeypatch, "_accept", catalog_log)
        result, answered = _catalog_query(protocol, v_r, v_s)

        assert result.mode == answered.mode == "full"
        assert catalog_log == one_shot_log
        assert answered.size_v_r == served.size_v_r


# ----------------------------------------------------------------------
# Delta correctness: every protocol, local pair
# ----------------------------------------------------------------------
#: One staged mutation: (side, operation, index into the v0..v23 universe).
_OPS = st.tuples(
    st.sampled_from("rs"),
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0, max_value=23),
)
#: One insert + one delete on each side, then an empty staged delta.
_FIXED_CHURN = [
    [("r", "insert", 20), ("r", "delete", 0),
     ("s", "insert", 20), ("s", "delete", 17)],
    [],
]


def _stage(catalog, protocol, operation, value, stamp):
    """Stage one mutation where the table allows it (insert an absent
    value - or one more occurrence for equijoin-size -, delete a present
    one, replace a present key's payload); otherwise a no-op."""
    table = catalog.data
    present = value in table
    if operation == "delete":
        if present:
            catalog.delete(value)
    elif isinstance(table, dict):
        if present == (operation == "replace"):
            shape = get_spec(protocol).sender_input
            catalog.insert(
                value,
                f"ext({value})#{stamp}".encode() if shape == "ext" else stamp,
            )
    elif operation == "insert" and (not present or protocol == "equijoin-size"):
        catalog.insert(value)


def _committed_state(catalog, protocol, role):
    """The cross-query fields of a catalog's committed party: every
    container and counter it declares, minus per-query scratch."""
    party = catalog._links[(protocol, role)]["party"]
    skip = {"opening", "_announced", "_mask"}
    if protocol == "equijoin-sum":
        skip.add("_pairs_by_codeword")  # Paillier draws fresh randomness
    return {
        name: value
        for name, value in vars(party).items()
        if name not in skip
        and isinstance(value, (dict, set, list, int, type(None)))
    }


@pytest.mark.parametrize("protocol", BASE_PROTOCOLS)
@settings(max_examples=12, deadline=None)
@given(
    chunk_size=st.sampled_from([None, 1, 7, 64]),
    cached=st.booleans(),
    deltas=st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=3),
)
@example(chunk_size=None, cached=False, deltas=_FIXED_CHURN)
@example(chunk_size=7, cached=False, deltas=_FIXED_CHURN)
@example(chunk_size=7, cached=True, deltas=_FIXED_CHURN)
def test_delta_query_matches_full_rerun(protocol, chunk_size, cached, deltas):
    """Full (whole or streamed) then 1-3 deltas of random churn: every
    delta answers like a full re-run on the mutated tables and commits
    the party state that re-run would have built."""
    v_r, v_s = _tables(protocol)
    legacy = repro.run(protocol, v_r, v_s, bits=BITS, seed=42)

    with tempfile.TemporaryDirectory() as tmp:
        dirs = (
            {"r": Path(tmp, "r"), "s": Path(tmp, "s")}
            if cached else {"r": None, "s": None}
        )
        cat_r = repro.open_catalog(v_r, bits=BITS, seed=11, cache_dir=dirs["r"])
        cat_s = repro.open_catalog(v_s, bits=BITS, seed=12, cache_dir=dirs["s"])
        peer = cat_r.pair(cat_s)
        first = peer.query(protocol, chunk_size=chunk_size)
        assert first.mode == "full"
        assert first.answer == legacy.answer
        assert first.size_v_r == legacy.size_v_r
        assert first.size_v_s == legacy.size_v_s

        stamp = 0
        for staged in deltas:
            for side, operation, index in staged:
                stamp += 1
                _stage(
                    cat_r if side == "r" else cat_s,
                    protocol, operation, f"v{index}", stamp,
                )
            result = peer.query(protocol, chunk_size=chunk_size)
            assert result.mode == "delta"
            reference = repro.run(
                protocol, cat_r.data, cat_s.data, bits=BITS, seed=7
            )
            assert result.answer == reference.answer
            assert result.size_v_r == reference.size_v_r
            assert result.size_v_s == reference.size_v_s

            # Same seeds => same keys: a fresh full run on the mutated
            # tables must land in exactly the committed state.
            fresh_r = repro.open_catalog(cat_r.data, bits=BITS, seed=11)
            fresh_s = repro.open_catalog(cat_s.data, bits=BITS, seed=12)
            fresh_r.pair(fresh_s).query(protocol)
            for catalog, fresh, role in (
                (cat_r, fresh_r, "receiver"), (cat_s, fresh_s, "sender"),
            ):
                assert _committed_state(catalog, protocol, role) == (
                    _committed_state(fresh, protocol, role)
                )


def test_replace_payload_is_a_delta(rng_seed=9):
    """Re-inserting a key with a new ext payload reaches the answer."""
    v_r, v_s = _tables("equijoin")
    cat_r = repro.open_catalog(v_r, bits=BITS, seed=1)
    cat_s = repro.open_catalog(v_s, bits=BITS, seed=2)
    peer = cat_r.pair(cat_s)
    assert peer.query("equijoin").answer["v6"] == b"ext(v6)"
    cat_s.insert("v6", b"updated")
    result = peer.query("equijoin")
    assert result.mode == "delta"
    assert result.answer["v6"] == b"updated"


# ----------------------------------------------------------------------
# Cache persistence through the API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_size", [None, 7])
@pytest.mark.parametrize("protocol", ["intersection", "equijoin"])
def test_cache_warm_start_and_rekey(tmp_path, protocol, chunk_size):
    v_r, v_s = _tables(protocol)
    s_modexps: list[int] = []

    def open_pair(v_r=v_r, v_s=v_s):
        cat_r = repro.open_catalog(
            v_r, bits=BITS, seed=1, cache_dir=tmp_path / "r"
        )
        cat_s = repro.open_catalog(
            v_s, bits=BITS, seed=2, cache_dir=tmp_path / "s",
            engine=create_engine(1, on_modexp=s_modexps.append),
        )
        return cat_r, cat_s

    cat_r, cat_s = open_pair()
    cold = cat_r.pair(cat_s).query(protocol, chunk_size=chunk_size)
    assert not cold.cache_hit

    # "Restart": fresh catalogs, same tables + seeds, warm cache.
    cat_r, cat_s = open_pair()
    peer = cat_r.pair(cat_s)
    del s_modexps[:]
    warm = peer.query(protocol, chunk_size=chunk_size)
    assert warm.cache_hit
    assert warm.answer == cold.answer
    # Whole or streamed, a warm S on unchanged tables exponentiates
    # nothing: its own set and its answers to Y_R (under both of
    # equijoin's keys) come from the cache.
    assert sum(s_modexps) == 0

    # A delta commit re-keys the entries to the mutated tables.
    cat_r.insert("zz")
    _stage(cat_s, protocol, "insert", "zz", 1)
    delta = peer.query(protocol, chunk_size=chunk_size)
    assert delta.mode == "delta" and "zz" in delta.answer

    cat_r2, cat_s2 = open_pair(cat_r.data, cat_s.data)
    rewarmed = cat_r2.pair(cat_s2).query(protocol, chunk_size=chunk_size)
    assert rewarmed.cache_hit
    assert rewarmed.answer == delta.answer


def test_deltas_that_change_no_entry_keep_the_cache_bounded(tmp_path):
    """A repeated query on an unchanged table writes nothing to either
    cache; one more occurrence of a held value re-keys each file by a
    batch, and compaction keeps those batches from piling up."""
    v_r, v_s = ["a", "b", "c", "d"], ["a", "b", "e", "f"]
    cat_r = repro.open_catalog(v_r, bits=BITS, seed=1, cache_dir=tmp_path / "r")
    cat_s = repro.open_catalog(v_s, bits=BITS, seed=2, cache_dir=tmp_path / "s")
    peer = cat_r.pair(cat_s)
    peer.query("equijoin-size")

    def files():
        return [f.read_bytes() for side in "rs" for f in (tmp_path / side).iterdir()]

    compact = files()
    assert len(compact) == 2
    for _ in range(6):
        assert peer.query("equijoin-size").mode == "delta"
    assert files() == compact

    compact = [len(data) for data in compact]
    batch, sizes = None, []
    for _ in range(6 * len(v_r)):
        cat_r.insert("a")
        cat_s.insert("a")
        result = peer.query("equijoin-size")
        assert result.mode == "delta"
        grown = [len(data) - size for data, size in zip(files(), compact)]
        batch = batch or grown
        # Fewer batches since the last compaction than live entries: a
        # file holds its side's distinct values and, in its peer map,
        # the other side's.
        live = len(set(v_r)) + len(set(v_s))
        assert all(0 <= g < live * b for g, b in zip(grown, batch))
        sizes.append(grown)
    # Each file was compacted back to its compact size, more than once.
    assert all(sum(g[side] == 0 for g in sizes) >= 2 for side in (0, 1))
    assert result.answer == repro.run(
        "equijoin-size", cat_r.data, cat_s.data, bits=BITS, seed=3
    ).answer


def test_warm_start_is_wire_identical(tmp_path, monkeypatch):
    """A cache-hit query must put the same bytes on the wire as the
    cold run it replays - warm starts are a pure compute shortcut."""
    v_r, v_s = _tables("intersection")

    def run_once(log):
        with monkeypatch.context() as patch:
            _record(patch, "_accept", log)
            result, _ = _catalog_query(
                "intersection", v_r, v_s, cache_dir=tmp_path / "r"
            )
        return result

    cold_log, warm_log = [], []
    cold = run_once(cold_log)
    warm = run_once(warm_log)
    assert not cold.cache_hit and warm.cache_hit
    assert warm.answer == cold.answer
    assert warm_log == cold_log


# ----------------------------------------------------------------------
# Staging and mode errors
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# The peer maps: a reopen exponentiates only what changed
# ----------------------------------------------------------------------
def _counted_pair(tmp_path, v_r, v_s):
    """A cached pair, each party on its own engine counting modexps:
    what a fresh process opens on the same directories."""
    counts = {"r": [], "s": []}
    catalogs = [
        repro.open_catalog(
            data, bits=BITS, seed=seed, cache_dir=tmp_path / side,
            engine=create_engine(1, on_modexp=counts[side].append),
        )
        for side, data, seed in (("r", v_r, 1), ("s", v_s, 2))
    ]
    return (*catalogs, counts)


@pytest.mark.parametrize("chunk_size", [None, 7])
@pytest.mark.parametrize("protocol", BASE_PROTOCOLS)
def test_a_reopen_on_unchanged_tables_exponentiates_nothing(tmp_path, protocol, chunk_size):
    """Every cacheable party finds its own ciphertexts and its
    re-encryptions of the peer's in the cache: zero modexps on either
    engine, and the cold answer."""
    v_r, v_s = _tables(protocol)
    cat_r, cat_s, _ = _counted_pair(tmp_path, v_r, v_s)
    cold = cat_r.pair(cat_s).query(protocol, chunk_size=chunk_size)
    cat_r, cat_s, counts = _counted_pair(tmp_path, v_r, v_s)
    warm = cat_r.pair(cat_s).query(protocol, chunk_size=chunk_size)
    assert warm.cache_hit and warm.answer == cold.answer
    assert sum(counts["r"]) == 0
    # equijoin-sum's S draws its Paillier keypair per process and
    # caches nothing: it encrypts its set and answers Y_R again.
    s_cold = len(v_s) + len(v_r) if protocol == "equijoin-sum" else 0
    assert sum(counts["s"]) == s_cold


#: Re-encryptions per peer value that changed, by the unchanged side:
#: equijoin's S answers under both keys, and its R re-encrypts only S's
#: answers to R's own values, which a change of S's table leaves alone.
_PER_CHANGED = {("equijoin", "s"): 2, ("equijoin", "r"): 0}


@pytest.mark.parametrize("unchanged", ["r", "s"])
@pytest.mark.parametrize("protocol", BASE_PROTOCOLS)
def test_a_reopen_exponentiates_exactly_the_peer_elements_that_changed(
    tmp_path, protocol, unchanged
):
    if (protocol, unchanged) == ("equijoin-sum", "s"):
        pytest.skip("equijoin-sum's S caches nothing")
    v_r, v_s = _tables(protocol)
    cat_r, cat_s, _ = _counted_pair(tmp_path, v_r, v_s)
    cat_r.pair(cat_s).query(protocol)
    # While both are down, the other side swaps k of its values for new
    # ones: its own cache misses, and its seed draws the same keys.
    k = 3
    tables = {"r": list(v_r), "s": v_s.copy()}
    changed = tables["s" if unchanged == "r" else "r"]
    for i in range(k):
        gone = sorted(changed)[i]
        if isinstance(changed, dict):
            changed[f"new{i}"] = changed.pop(gone)
        else:
            changed[changed.index(gone)] = f"new{i}"
    cat_r, cat_s, counts = _counted_pair(tmp_path, tables["r"], tables["s"])
    result = cat_r.pair(cat_s).query(protocol)
    assert result.cache_hit
    assert result.answer == repro.run(
        protocol, tables["r"], tables["s"], bits=BITS, seed=3
    ).answer
    assert sum(counts[unchanged]) == k * _PER_CHANGED.get((protocol, unchanged), 1)
    # Those re-encryptions went into the maps the party took from the
    # cache entry, and from them into the file: a second reopen finds
    # every peer element and exponentiates nothing on that side.
    cat_r, cat_s, counts = _counted_pair(tmp_path, tables["r"], tables["s"])
    assert cat_r.pair(cat_s).query(protocol).cache_hit
    assert sum(counts[unchanged]) == 0


def test_a_deltas_peer_tombstones_are_map_hits(tmp_path):
    """The delta-churn shape: each side deletes 4 values and inserts 4,
    2 of them common. R re-encrypts S's 4 new elements and finds its
    4 tombstones in the map: 16 modexps, not 20."""
    v_r = [f"r{i}" for i in range(20)] + [f"c{i}" for i in range(20)]
    v_s = [f"s{i}" for i in range(20)] + [f"c{i}" for i in range(20)]
    cat_r, cat_s, counts = _counted_pair(tmp_path, v_r, v_s)
    peer = cat_r.pair(cat_s)
    peer.query("intersection")
    del counts["r"][:], counts["s"][:]
    for side, catalog in (("r", cat_r), ("s", cat_s)):
        for value in (f"{side}0", f"{side}1", "c0", "c1"):
            catalog.delete(value)
        for i in range(4):
            catalog.insert(f"new-{'both' if i % 2 else side}-{i}")
    result = peer.query("intersection")
    assert result.mode == "delta"
    assert result.answer == set(cat_r.data) & set(cat_s.data)
    assert (sum(counts["r"]), sum(counts["s"])) == (8, 8)


def _peer_elements(protocol, receiver, sender):
    """The peer elements each party's link holds: S's ``Y_R`` from R,
    and what R receives of S - ``Y_S`` or the codewords, or equijoin's
    answers to R's own values under both of S's keys."""
    y_r = set(receiver._y_by_value.values())
    if protocol == "equijoin":
        from_s = {f[y] for f in (sender._f_by_y, sender._kappa_by_y) for y in y_r}
    else:
        from_s = set(sender._y_by_value.values())
    return from_s, y_r


@pytest.mark.parametrize("protocol", BASE_PROTOCOLS)
def test_after_churn_and_compaction_the_maps_hold_the_links_peer_elements(
    tmp_path, protocol, caplog
):
    v_r, v_s = _tables(protocol)
    cat_r, cat_s, _ = _counted_pair(tmp_path, v_r, v_s)
    peer = cat_r.pair(cat_s)
    peer.query(protocol)
    rng = random.Random(protocol)
    with caplog.at_level("INFO", logger="repro.catalog"):
        for step in range(24):
            for side, catalog in (("r", cat_r), ("s", cat_s)):
                held = sorted(catalog.data, key=repr)
                _stage(catalog, protocol, "delete", rng.choice(held), step)
                _stage(catalog, protocol, "insert", f"n{side}{step}", step)
                # A second occurrence (equijoin-size) or a new payload.
                _stage(catalog, protocol, "insert", rng.choice(held), step)
                _stage(catalog, protocol, "replace", rng.choice(held), step)
            assert peer.query(protocol).mode == "delta"
    assert "catalog compacted" in caplog.text
    receiver = cat_r._links[(protocol, "receiver")]["party"]
    sender = cat_s._links[(protocol, "sender")]["party"]
    from_s, y_r = _peer_elements(protocol, receiver, sender)
    assert set(receiver.peer_maps()[0]) == from_s
    assert set(sender.peer_maps()[0]) == y_r
    assert all(fs.keys() == sender.peer_maps()[0].keys() for fs in sender.peer_maps())
    for side, digest_of, party in (("r", cat_r, receiver), ("s", cat_s, sender)):
        if party.cacheable:
            found = CatalogCache(tmp_path / side).lookup(
                table_digest(digest_of.data), f"{protocol}.{side}"
            )
            assert found.peers == party.peer_maps()
            assert found.records <= 2 * found.live


class TestStagingAndModes:
    def test_delta_mode_without_state_raises(self):
        v_r, v_s = _tables("intersection")
        peer = repro.open_catalog(v_r, bits=BITS, seed=1).pair(
            repro.open_catalog(v_s, bits=BITS, seed=2)
        )
        with pytest.raises(ValueError, match="full"):
            peer.query("intersection", mode="delta")

    def test_querying_a_delta_spec_directly_raises(self):
        v_r, v_s = _tables("intersection")
        peer = repro.open_catalog(v_r, bits=BITS, seed=1).pair(
            repro.open_catalog(v_s, bits=BITS, seed=2)
        )
        with pytest.raises(ValueError, match="base protocol"):
            peer.query("intersection+delta")

    def test_unknown_mode_raises(self):
        v_r, v_s = _tables("intersection")
        peer = repro.open_catalog(v_r, bits=BITS, seed=1).pair(
            repro.open_catalog(v_s, bits=BITS, seed=2)
        )
        with pytest.raises(ValueError, match="mode"):
            peer.query("intersection", mode="incremental")

    def test_payload_insert_needs_mapping(self):
        catalog = repro.open_catalog(["a"], bits=BITS, seed=1)
        with pytest.raises(ValueError, match="mapping"):
            catalog.insert("b", b"payload")

    def test_delete_absent_raises(self):
        catalog = repro.open_catalog(["a"], bits=BITS, seed=1)
        with pytest.raises(ValueError):
            catalog.delete("zebra")
        mapping = repro.open_catalog({"a": 1}, bits=BITS, seed=1)
        with pytest.raises(KeyError):
            mapping.delete("zebra")

    def test_multiset_staging_counts_occurrences(self):
        v_r = ["a", "a", "b", "c"]
        v_s = ["a", "a", "a", "b"]
        cat_r = repro.open_catalog(v_r, bits=BITS, seed=1)
        cat_s = repro.open_catalog(v_s, bits=BITS, seed=2)
        peer = cat_r.pair(cat_s)
        first = peer.query("equijoin-size")
        assert first.answer == repro.run(
            "equijoin-size", v_r, v_s, bits=BITS, seed=3
        ).answer
        cat_s.delete("a")  # one occurrence
        cat_r.insert("c")
        second = peer.query("equijoin-size")
        assert second.mode == "delta"
        assert second.answer == repro.run(
            "equijoin-size", cat_r.data, cat_s.data, bits=BITS, seed=4
        ).answer

    def test_mutation_in_flight_stays_staged(self):
        """A query answers the table as of its entry; what is staged
        while it runs reaches the next delta."""
        cat_r = repro.open_catalog(["a", "b"], bits=BITS, seed=1)
        cat_s = repro.open_catalog(["b", "c"], bits=BITS, seed=2)
        peer = cat_r.pair(cat_s)
        peer.query("intersection")
        spec = get_spec("intersection")
        _, make_r, commit_r = cat_r._plan(spec, "receiver", "delta")
        cat_r.insert("c")  # staged after the plan pinned the table
        assert not make_r(cat_r.params).added
        commit_r(make_r(cat_r.params))
        assert peer.query("intersection").answer == {"b", "c"}

    def test_full_query_overtaken_by_a_trim_leaves_no_link(self):
        """A first full query whose ops were trimmed under it (another
        protocol's commit overlapped it) cannot be followed by a
        delta, so it records no link."""
        cat_r = repro.open_catalog(["a", "b"], bits=BITS, seed=1)
        peer = cat_r.pair(repro.open_catalog(["b", "c"], bits=BITS, seed=2))
        peer.query("intersection")
        size = get_spec("intersection-size")
        _, make_r, commit_r = cat_r._plan(size, "receiver", "full")
        cat_r.insert("c")
        peer.query("intersection")  # commits past the op, trims it
        commit_r(make_r(cat_r.params))
        assert not cat_r._has_link(size, "receiver")
        assert peer.query("intersection-size").mode == "full"

    def test_paired_params_must_match(self):
        other = PublicParams.for_bits(256)
        cat_r = repro.open_catalog(["a"], params=PARAMS, seed=1)
        cat_s = repro.open_catalog(["a"], params=other, seed=2)
        with pytest.raises(ValueError, match="params"):
            cat_r.pair(cat_s)

    def test_protocol_mismatch_over_tcp(self):
        """A hello for another protocol is a typed refusal on both
        sides, and the server's listener outlives it."""
        v_r, v_s = _tables("intersection")
        cat_s = repro.open_catalog(v_s, bits=BITS, seed=1)
        server_peer = cat_s.serve(port=0, timeout=10.0)
        client = repro.open_catalog(v_r, bits=BITS, seed=2).connect(
            "127.0.0.1", port=server_peer.port, timeout=10.0
        )
        served = _in_thread(server_peer.query, "equijoin-size")
        with pytest.raises(HandshakeError, match="answering 'equijoin-size'"):
            client.query("intersection")
        with pytest.raises(HandshakeError, match="'intersection'"):
            served()

        served = _in_thread(server_peer.query, "intersection")
        assert client.query("intersection").answer == set(v_r) & set(v_s)
        assert served().mode == "full"
        server_peer.close()

    def test_context_managers(self):
        v_r, v_s = _tables("intersection")
        with repro.open_catalog(v_r, bits=BITS, seed=1) as cat_r:
            with repro.open_catalog(v_s, bits=BITS, seed=2) as cat_s:
                with cat_r.pair(cat_s) as peer:
                    assert peer.query("intersection").mode == "full"
        assert not cat_r._links  # close() dropped the committed state


# ----------------------------------------------------------------------
# The hello is the announcement: one mode rule, one listener, both modes
# ----------------------------------------------------------------------
def _in_thread(fn, *args, **kwargs):
    """Start ``fn`` on a thread; the returned callable joins it and
    hands back its result (or raises what it raised)."""
    box = {}

    def run():
        try:
            box["result"] = fn(*args, **kwargs)
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()

    def join():
        thread.join(timeout=30)
        assert not thread.is_alive()
        if "error" in box:
            raise box["error"]
        return box["result"]

    return join


SESSION_MODES = pytest.mark.parametrize(
    "session", [None, repro.SessionOptions()], ids=["plain", "session"]
)


def _linked_pair(session, ready_callback=None):
    v_r, v_s = _tables("intersection")
    cat_s = repro.open_catalog(v_s, bits=BITS, seed=8)
    server_peer = cat_s.serve(
        port=0, timeout=10.0, session=session, ready_callback=ready_callback
    )
    cat_r = repro.open_catalog(v_r, bits=BITS, seed=9)
    client = cat_r.connect(
        "127.0.0.1", port=server_peer.port, timeout=10.0, session=session
    )
    return cat_r, cat_s, client, server_peer


@SESSION_MODES
class TestPeerLinks:
    def test_the_server_follows_the_clients_mode(self, session):
        """``mode="auto"`` on the serving side runs what the hello
        asks for - a forced full over committed state included."""
        cat_r, cat_s, client, server_peer = _linked_pair(session)
        for asked, expected in (("auto", "full"), ("auto", "delta"),
                                ("full", "full"), ("delta", "delta")):
            served = _in_thread(server_peer.query, "intersection")
            result = client.query("intersection", mode=asked)
            assert (result.mode, served().mode) == (expected, expected)
            assert result.answer == set(cat_r.data) & set(cat_s.data)
            cat_r.insert(f"new-{asked}-{expected}")
            cat_s.insert(f"new-{asked}-{expected}")
        server_peer.close()

    def test_refusals_are_typed_and_leave_the_listener_up(self, session):
        cat_r, _cat_s, client, server_peer = _linked_pair(session)
        # R holds state (from a local pair), this S does not: the
        # delta R's hello asks for cannot be answered.
        cat_r.pair(repro.open_catalog(["x"], bits=BITS, seed=1)).query(
            "intersection"
        )
        served = _in_thread(server_peer.query, "intersection")
        with pytest.raises(HandshakeError, match="no committed state"):
            client.query("intersection", mode="delta")
        with pytest.raises(HandshakeError, match="no committed state"):
            served()
        # A mode the server forces and the client contradicts.
        served = _in_thread(server_peer.query, "intersection", mode="delta")
        with pytest.raises(HandshakeError, match="requires a delta"):
            client.query("intersection", mode="full")
        with pytest.raises(HandshakeError, match="requires a delta"):
            served()
        # The same listener then serves a good query.
        served = _in_thread(server_peer.query, "intersection")
        assert client.query("intersection", mode="full").mode == "full"
        assert served().stats.reconnects == 0
        server_peer.close()

    def test_a_client_early_for_the_next_query_queues(self, session):
        """One listener from ``serve()`` to ``close()``: the port is
        final at construction, ``ready_callback`` has fired by then,
        and a client that dials before the server's next ``query()``
        waits in the backlog instead of being refused."""
        ports = []
        cat_r, cat_s, client, server_peer = _linked_pair(session, ports.append)
        assert ports == [server_peer.port] and server_peer.port != 0
        served = _in_thread(server_peer.query, "intersection")
        assert client.query("intersection").mode == "full"
        assert served().mode == "full"

        cat_r.insert("early")
        cat_s.insert("early")
        asked = _in_thread(client.query, "intersection")
        time.sleep(0.3)  # the client is dialing; nobody is in query()
        served = server_peer.query("intersection")
        result = asked()
        assert result.mode == served.mode == "delta"
        assert "early" in result.answer
        assert result.stats.reconnects == served.stats.reconnects == 0
        assert ports == [server_peer.port]
        server_peer.close()


# ----------------------------------------------------------------------
# Session-layer catalog queries (reconnectable, journaled)
# ----------------------------------------------------------------------
def test_session_mode_full_then_delta(tmp_path):
    v_r, v_s = _tables("intersection")
    ready, staged = threading.Event(), threading.Event()
    cat_s = repro.open_catalog(v_s, bits=BITS, seed=8)
    server_peer = cat_s.serve(
        port=0,
        session=repro.SessionOptions(journal_dir=tmp_path / "s"),
        ready_callback=lambda p: ready.set(),
    )
    box = {}

    def serve_thread():
        box["first"] = server_peer.query("intersection")
        staged.wait(10)
        box["second"] = server_peer.query("intersection")

    thread = threading.Thread(target=serve_thread)
    thread.start()
    assert ready.wait(10)

    cat_r = repro.open_catalog(v_r, bits=BITS, seed=9)
    client = cat_r.connect(
        "127.0.0.1",
        port=server_peer.port,
        session=repro.SessionOptions(journal_dir=tmp_path / "r"),
    )
    first = client.query("intersection")
    assert first.mode == "full"
    assert first.stats is not None
    assert first.answer == set(v_r) & set(v_s)

    cat_r.insert("yy")
    cat_s.insert("yy")
    cat_s.delete("v17")
    staged.set()
    second = client.query("intersection")
    thread.join(timeout=30)

    assert second.mode == "delta"
    assert second.answer == set(cat_r.data) & set(cat_s.data)
    assert "yy" in second.answer
    assert box["second"].mode == "delta"
    assert box["second"].stats is not None
    assert box["first"].size_v_r == len(v_r)

"""The stateful Catalog/Peer API: parity, deltas, cache, sessions.

Three properties anchor the repeated-query redesign:

* **Golden parity** - the first (full) query through a Catalog puts
  exactly the bytes of the one-shot drivers on the wire, for every
  registered protocol, seen from either end, behind precisely one
  framing message (the query announcement) and nothing else.
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
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.engine import create_engine
from repro.net import tcp
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
    """Wraps a framed transport; logs every message in arrival order."""

    def __init__(self, transport, log):
        self._transport = transport
        self.log = log

    def send(self, message):
        self.log.append(("sent", message))
        self._transport.send(message)

    def recv(self):
        message = self._transport.recv()
        self.log.append(("received", message))
        return message

    def settimeout(self, timeout):
        self._transport.settimeout(timeout)

    def close(self):
        self._transport.close()


def _serve_recording(protocol, v_s, log):
    """A legacy tcp.serve thread that records its transcript."""
    port_box, ready = [], threading.Event()
    box = {}

    def serve_thread():
        box["size_v_r"] = tcp.serve(
            protocol, v_s, PARAMS, random.Random("S"),
            ready_callback=lambda p: (port_box.append(p), ready.set()),
            timeout=10.0,
            endpoint_wrapper=lambda e: _RecordingTransport(e, log),
        )

    thread = threading.Thread(target=serve_thread)
    thread.start()
    assert ready.wait(timeout=10)
    return thread, port_box, box


# ----------------------------------------------------------------------
# Golden parity: Catalog first query == legacy one-shot, all protocols
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", BASE_PROTOCOLS)
class TestGoldenParity:
    def test_catalog_client_matches_legacy_client(self, protocol, monkeypatch):
        """Same seeds: what a Catalog client sends and receives is its
        announcement, then exactly legacy tcp.connect's transcript."""
        v_r, v_s = _tables(protocol)

        legacy_log = []
        thread, ports, _ = _serve_recording(protocol, v_s, [])
        legacy_answer = tcp.connect(
            protocol, v_r, random.Random("R"), "127.0.0.1", ports[0],
            timeout=10.0,
            endpoint_wrapper=lambda e: _RecordingTransport(e, legacy_log),
        )
        thread.join(timeout=10)

        catalog_log = []
        dial = tcp._dial
        monkeypatch.setattr(
            tcp, "_dial",
            lambda *a, **k: _RecordingTransport(dial(*a, **k), catalog_log),
        )
        server_peer = repro.open_catalog(
            v_s, params=PARAMS, rng=random.Random("S")
        ).serve(port=0, timeout=10.0)
        thread = threading.Thread(target=server_peer.query, args=(protocol,))
        thread.start()
        catalog = repro.open_catalog(v_r, rng=random.Random("R"))
        result = catalog.connect(
            "127.0.0.1", port=server_peer.port, timeout=10.0
        ).query(protocol)
        thread.join(timeout=10)
        server_peer.close()

        assert result.mode == "full"
        assert result.answer == legacy_answer
        assert catalog_log == [
            ("sent", ("query", protocol, "full")), *legacy_log
        ]

    def test_announce_dialect_adds_exactly_one_frame(self, protocol):
        """Catalog-to-catalog queries announce (protocol, kind) first;
        every byte after that announcement is the legacy transcript,
        and the serving Catalog learns what legacy tcp.serve learns."""
        v_r, v_s = _tables(protocol)

        legacy_log = []
        thread, ports, legacy = _serve_recording(protocol, v_s, legacy_log)
        tcp.connect(
            protocol, v_r, random.Random("R"), "127.0.0.1", ports[0],
            timeout=10.0,
        )
        thread.join(timeout=10)

        announce_log = []
        cat_s = repro.open_catalog(v_s, params=PARAMS, rng=random.Random("S"))
        server_peer = cat_s.serve(port=0, timeout=10.0)
        # Record at the server's socket: wrap accept() before the
        # server thread starts so its endpoint logs every frame.
        server_peer._listener = _ListenerRecorder(
            server_peer._listener, announce_log
        )
        box = {}

        def serve_thread():
            box["result"] = server_peer.query(protocol)

        thread = threading.Thread(target=serve_thread)
        thread.start()
        cat_r = repro.open_catalog(v_r, rng=random.Random("R"))
        client_peer = cat_r.connect(
            "127.0.0.1", port=server_peer.port, timeout=10.0
        )
        result = client_peer.query(protocol)
        thread.join(timeout=10)
        server_peer.close()

        assert result.mode == "full"
        assert announce_log[0] == (
            "received", ("query", protocol, "full")
        )
        assert announce_log[1:] == legacy_log
        assert box["result"].size_v_r == legacy["size_v_r"]


class _ListenerRecorder:
    """Intercepts accept() so the server peer's endpoint records."""

    def __init__(self, listener, log):
        self._listener = listener
        self.log = log

    def accept(self):
        conn, addr = self._listener.accept()
        return _RecordingSocket(conn, self.log), addr

    def __getattr__(self, name):
        return getattr(self._listener, name)


class _RecordingSocket:
    """A socket shim that reassembles and decodes framed messages.

    SocketEndpoint speaks sendall/recv at the byte level, so this
    records complete length-prefixed frames as they cross the socket
    and logs them decoded - same shape as _RecordingTransport logs.
    """

    def __init__(self, sock, log):
        self._sock = sock
        self.log = log
        self._out = b""
        self._in = b""

    def sendall(self, data):
        self._sock.sendall(data)
        self._out += data
        self._drain("sent", "_out")

    def recv(self, n):
        data = self._sock.recv(n)
        self._in += data
        self._drain("received", "_in")
        return data

    def _drain(self, tag, attr):
        import struct

        from repro.net import serialization

        buf = getattr(self, attr)
        while len(buf) >= 4:
            (length,) = struct.unpack(">I", buf[:4])
            if len(buf) < 4 + length:
                break
            self.log.append(
                (tag, serialization.decode(buf[4 : 4 + length]))
            )
            buf = buf[4 + length :]
        setattr(self, attr, buf)

    def __getattr__(self, name):
        return getattr(self._sock, name)


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
    # Whole or streamed, a warm S only answers Y_R (under both of
    # equijoin's keys); its own set comes from the cache.
    assert sum(s_modexps) == len(v_r) * (2 if protocol == "equijoin" else 1)

    # A delta commit re-keys the entries to the mutated tables.
    cat_r.insert("zz")
    _stage(cat_s, protocol, "insert", "zz", 1)
    delta = peer.query(protocol, chunk_size=chunk_size)
    assert delta.mode == "delta" and "zz" in delta.answer

    cat_r2, cat_s2 = open_pair(cat_r.data, cat_s.data)
    rewarmed = cat_r2.pair(cat_s2).query(protocol, chunk_size=chunk_size)
    assert rewarmed.cache_hit
    assert rewarmed.answer == delta.answer


def test_warm_start_is_wire_identical(tmp_path):
    """A cache-hit query must put the same bytes on the wire as the
    cold run it replays - warm starts are a pure compute shortcut."""
    v_r, v_s = _tables("intersection")

    def run_once(log):
        server_peer = repro.open_catalog(
            v_s, params=PARAMS, rng=random.Random("S")
        ).serve(port=0, timeout=10.0)
        server_peer._listener = _ListenerRecorder(server_peer._listener, log)
        thread = threading.Thread(
            target=server_peer.query, args=("intersection",)
        )
        thread.start()
        catalog = repro.open_catalog(
            v_r, rng=random.Random("R"), cache_dir=tmp_path / "r"
        )
        result = catalog.connect(
            "127.0.0.1", port=server_peer.port, timeout=10.0
        ).query("intersection")
        thread.join(timeout=10)
        server_peer.close()
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
        v_r, v_s = _tables("intersection")
        cat_s = repro.open_catalog(v_s, bits=BITS, seed=1)
        server_peer = cat_s.serve(port=0, timeout=10.0)
        errors = {}

        def serve_thread():
            try:
                server_peer.query("equijoin-size")
            except ValueError as exc:
                errors["server"] = str(exc)

        thread = threading.Thread(target=serve_thread)
        thread.start()
        cat_r = repro.open_catalog(v_r, bits=BITS, seed=2)
        client = cat_r.connect(
            "127.0.0.1", port=server_peer.port, timeout=10.0
        )
        with pytest.raises(RuntimeError, match="refused"):
            client.query("intersection")
        thread.join(timeout=10)
        server_peer.close()
        assert "intersection" in errors["server"]

    def test_context_managers(self):
        v_r, v_s = _tables("intersection")
        with repro.open_catalog(v_r, bits=BITS, seed=1) as cat_r:
            with repro.open_catalog(v_s, bits=BITS, seed=2) as cat_s:
                with cat_r.pair(cat_s) as peer:
                    assert peer.query("intersection").mode == "full"
        assert not cat_r._links  # close() dropped the committed state


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

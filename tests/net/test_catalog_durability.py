"""What a delta commit costs on disk, and what a crash in it leaves.

The catalog cache's contract for a series of queries:

* **O(|delta|) I/O** - a delta commit appends its churn and renames
  the file; bytes and writes do not depend on the table's size.
* **All-or-nothing** - whichever disk operation of a commit fails, a
  restarted party finds the old entry, the new entry, or a miss -
  typed, never a mix of the two - and answers like the plaintext
  oracle on either table.
"""

from __future__ import annotations

import shutil
import threading
from types import SimpleNamespace

import pytest

import repro
from repro.net.catalog import CatalogCache, CatalogCacheError, table_digest
from repro.net.crashpoints import CrashHook, SimulatedCrash, hooked
from repro.net.diskfaults import DiskFaultPlan, FaultyJournalIO, JournalIO
from repro.net.session import RetryPolicy, SessionConfig, SessionError

BITS = 128
PROTOCOL = "intersection"
V_S = [f"v{i:05d}" for i in range(6, 18)]


class CountingIO(JournalIO):
    """Real file operations, counted by class."""

    def __init__(self):
        self.counts = dict.fromkeys(
            ("writes", "bytes", "fsyncs", "renames", "dir_fsyncs"), 0
        )

    def write(self, fh, data):
        self.counts["writes"] += 1
        self.counts["bytes"] += len(data)
        super().write(fh, data)

    def fsync(self, fh):
        self.counts["fsyncs"] += 1
        super().fsync(fh)

    def replace(self, src, dst):
        self.counts["renames"] += 1
        super().replace(src, dst)

    def fsync_dir(self, path):
        self.counts["dir_fsyncs"] += 1
        super().fsync_dir(path)


def _churn(catalog, table):
    """Three deletes and three inserts, the same at every table size."""
    for value in ("v00000", "v00001", "v00007"):
        catalog.delete(value)
        table.remove(value)
    for value in ("new-a", "new-b", "v00009x"):
        catalog.insert(value)
        table.append(value)


def _delta_commit_io(tmp_path, n):
    """The receiver's cache I/O for one delta commit over |V| = n."""
    v_r = [f"v{i:05d}" for i in range(n)]
    io = CountingIO()
    cat_r = repro.open_catalog(
        v_r, bits=BITS, seed=1, cache_dir=tmp_path / f"r{n}", cache_io=io
    )
    peer = cat_r.pair(repro.open_catalog(V_S, bits=BITS, seed=2))
    assert peer.query(PROTOCOL).mode == "full"
    before = dict(io.counts)
    _churn(cat_r, v_r)
    result = peer.query(PROTOCOL)
    assert result.mode == "delta"
    assert result.answer == set(v_r) & set(V_S)
    return {name: io.counts[name] - before[name] for name in before}


def test_delta_commit_io_is_independent_of_table_size(tmp_path):
    small = _delta_commit_io(tmp_path, 200)
    large = _delta_commit_io(tmp_path, 2000)
    assert small == large
    # One batch record (3 adds + 3 dels), one fsync before the one
    # rename, one directory fsync after it.
    assert small["writes"] == 1 and small["bytes"] < 1024
    assert (small["fsyncs"], small["renames"], small["dir_fsyncs"]) == (1, 1, 1)


def _only_entry(folder):
    (path,) = folder.glob("*.cat")
    return path


def _restart(cache_dir, v_r):
    """A new process: fresh catalogs over ``v_r`` on ``cache_dir``."""
    cat_r = repro.open_catalog(v_r, bits=BITS, seed=1, cache_dir=cache_dir)
    result = cat_r.pair(repro.open_catalog(V_S, bits=BITS, seed=2)).query(PROTOCOL)
    assert result.mode == "full"
    assert result.answer == set(v_r) & set(V_S)
    # Whatever it found, it leaves the entry of the table it ran on,
    # with the peer map the query left.
    entry = CatalogCache(cache_dir).lookup(table_digest(v_r), f"{PROTOCOL}.r")
    assert entry is not None and set(entry.entries) == set(v_r)
    assert entry.peers == cat_r._links[(PROTOCOL, "receiver")]["party"].peer_maps()
    return result


class TestCrashBetweenAppendAndRekey:
    """The delta records are durable, the rename never happened."""

    def _crash(self, tmp_path):
        class RenameFails(JournalIO):
            armed = False

            def replace(self, src, dst):
                if self.armed:
                    raise OSError("crash before the rename")
                super().replace(src, dst)

        old = [f"v{i:05d}" for i in range(12)]
        new = list(old)
        io = RenameFails()
        cat_r = repro.open_catalog(
            old, bits=BITS, seed=1, cache_dir=tmp_path / "r", cache_io=io
        )
        peer = cat_r.pair(repro.open_catalog(V_S, bits=BITS, seed=2))
        peer.query(PROTOCOL)
        io.armed = True
        _churn(cat_r, new)
        with pytest.raises(OSError, match="crash before the rename"):
            peer.query(PROTOCOL)
        return old, new

    def test_restart_on_the_old_table_misses(self, tmp_path):
        old, _ = self._crash(tmp_path)
        assert not _restart(tmp_path / "r", old).cache_hit
        assert _only_entry(tmp_path / "r").name.startswith(table_digest(old)[:32])

    def test_restart_on_the_new_table_answers(self, tmp_path):
        _, new = self._crash(tmp_path)
        _restart(tmp_path / "r", new)

    def test_restart_on_the_new_table_serves_the_file_under_its_name(self, tmp_path):
        """The file describes the new table exactly: it is served, and
        renamed to the new table's digest as the query commits."""
        _, new = self._crash(tmp_path)
        assert _restart(tmp_path / "r", new).cache_hit
        assert _only_entry(tmp_path / "r").name.startswith(table_digest(new)[:32])


# ----------------------------------------------------------------------
# Fault sweep: every faultable operation of one delta commit
# ----------------------------------------------------------------------
_FAULTS = {
    "torn-write": dict(torn_write_rate=1.0),
    "enospc": dict(enospc_rate=1.0),
    "fsync-eio": dict(fsync_error_rate=1.0),
    "rename": dict(rename_error_rate=1.0),
    "dir-fsync": dict(dir_fsync_error_rate=1.0),
}


def _copy(maps):
    return tuple(dict(fs) for fs in maps)


def _run_commit(folder, plan):
    """Full query, churn, delta query on a receiver whose cache I/O
    follows ``plan``: the tables and the party's cache entries and peer
    map before and after the delta, the I/O op count at each stage, and
    whether the delta query raised ``OSError``. S churns too, so the
    batch carries peer-map records beside the entries."""
    old = [f"v{i:05d}" for i in range(12)]
    new = list(old)
    io = FaultyJournalIO(plan)
    cat_r = repro.open_catalog(
        old, bits=BITS, seed=1, cache_dir=folder, cache_io=io
    )
    cat_s = repro.open_catalog(V_S, bits=BITS, seed=2)
    peer = cat_r.pair(cat_s)
    peer.query(PROTOCOL)
    party = cat_r._links[(PROTOCOL, "receiver")]["party"]
    run = SimpleNamespace(
        old=old, new=new, entries_old=party.cache_entries(),
        peers_old=_copy(party.peer_maps()), ops_full=io.stats.ops, failed=False,
    )
    _churn(cat_r, new)
    cat_s.delete(V_S[-1]).insert("s-new")
    try:
        peer.query(PROTOCOL)
    except OSError:
        run.failed = True
    # The party commits before the cache does, fault or no fault.
    run.entries_new = party.cache_entries()
    run.peers_new = _copy(party.peer_maps())
    run.ops_delta = io.stats.ops - run.ops_full
    run.injected = io.stats.injected
    return run


#: The batch write, the fsync, the rename, the directory fsync.
COMMIT_OPS = 4
#: The sweep runs on past the commit: a fault armed beyond its last
#: operation must never fire, and the commit runs clean.
SWEEP_OPS = COMMIT_OPS + 6


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    run = _run_commit(tmp_path_factory.mktemp("clean"), DiskFaultPlan(seed=0))
    assert not run.failed
    return run


def test_fault_sweep_covers_the_whole_commit(clean_run):
    assert clean_run.ops_delta == COMMIT_OPS


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("op", range(SWEEP_OPS))
def test_any_fault_in_a_delta_commit_is_all_or_nothing(
    tmp_path, clean_run, fault, op
):
    crashed = tmp_path / "crashed"
    run = _run_commit(crashed, DiskFaultPlan(
        seed=op, skip=clean_run.ops_full + op, max_faults=1, **_FAULTS[fault]
    ))
    # The fault fires at the first operation of its class from `op` on;
    # past the last one the commit runs clean.
    assert run.failed == bool(run.injected)

    assert run.peers_old != run.peers_new
    for name, table, entries, peers in (
        ("old", run.old, run.entries_old, run.peers_old),
        ("new", run.new, run.entries_new, run.peers_new),
    ):
        folder = tmp_path / f"restart-on-{name}"
        shutil.copytree(crashed, folder)
        try:
            found = CatalogCache(folder).lookup(
                table_digest(table), f"{PROTOCOL}.r"
            )
        except CatalogCacheError:
            found = None
        # The old entries and map, the new ones or a miss - never a mix.
        assert found is None or (found.entries, found.peers) == (entries, peers)
        _restart(folder, table)
    if not run.failed:
        assert _only_entry(crashed).name.startswith(table_digest(run.new)[:32])


# ----------------------------------------------------------------------
# A killed serving peer: the hello's session id finds the journal
# ----------------------------------------------------------------------
def test_a_killed_serving_peer_recovers_the_session_its_client_names(tmp_path):
    """Two lives of a journaled serving peer die mid-query, each on a
    different client's session; only the second client keeps redialing.
    The third life must recover *that* client's journal - looked up by
    the session id in its hello, not taken as the directory's oldest."""
    v_r = [f"v{i:05d}" for i in range(12)]
    config = SessionConfig(
        timeout_s=1.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.02, max_delay_s=0.1),
        max_reconnects=40,
        fin_grace_s=0.05,
    )
    journaled = repro.SessionOptions(journal_dir=tmp_path / "s", config=config)

    def serve_one_life(port, crash):
        """A fresh process's worth of party S: same table, same seed."""
        peer = repro.open_catalog(V_S, bits=BITS, seed=8).serve(
            port=port, session=journaled
        )
        box = {}

        def life():
            try:
                with hooked(CrashHook("session.ship.frame") if crash else None):
                    box["result"] = peer.query(PROTOCOL)
            except SimulatedCrash:
                box["crashed"] = True
            finally:
                peer.close()

        thread = threading.Thread(target=life)
        thread.start()
        return peer.port, thread, box

    port, first_life, first = serve_one_life(0, crash=True)
    with pytest.raises(SessionError):  # one connection: no second try
        repro.open_catalog(v_r, bits=BITS, seed=1).connect(
            port=port, timeout=1.0
        ).query(PROTOCOL)
    first_life.join(timeout=10)
    assert first == {"crashed": True}

    _, second_life, second = serve_one_life(port, crash=True)
    answer = {}
    client = threading.Thread(target=lambda: answer.update(
        result=repro.open_catalog(v_r, bits=BITS, seed=2).connect(
            port=port, session=repro.SessionOptions(config=config)
        ).query(PROTOCOL)
    ))
    client.start()
    second_life.join(timeout=10)
    assert second == {"crashed": True}
    assert len(list((tmp_path / "s").glob("*.wal"))) == 2

    _, third_life, third = serve_one_life(port, crash=False)
    client.join(timeout=30)
    third_life.join(timeout=10)
    assert not client.is_alive() and not third_life.is_alive()
    assert answer["result"].answer == set(v_r) & set(V_S)
    assert answer["result"].stats.reconnects >= 1
    assert third["result"].stats.rounds_recovered > 0
    assert third["result"].size_v_r == len(v_r)

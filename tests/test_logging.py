"""The ``repro`` logger hierarchy: silent unless the caller configures
logging, one ``event key=value`` record where a counter alone said it
before, and the CLI's ``repro: ...`` lines printed as they always were."""

from __future__ import annotations

import logging
import subprocess
import sys

from repro import cli
from repro.net.catalog import CatalogCache, TableDigest
from repro.net.journal import SessionJournal
from repro.net.shard import ShardedProtocolServer
from repro.net.serialization import encode
from repro.protocols.parties import PublicParams


def _records(caplog, name):
    return [r.getMessage() for r in caplog.records if r.name == name]


def test_import_alone_prints_nothing_and_adds_one_null_handler():
    code = (
        "import logging, repro\n"
        "handlers = logging.getLogger('repro').handlers\n"
        "assert [type(h) for h in handlers] == [logging.NullHandler], handlers\n"
        "logging.getLogger('repro.net.journal').warning('unconfigured')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == ("", "")


def test_a_torn_journal_reopens_with_a_dropped_bytes_record(tmp_path, caplog):
    path = tmp_path / "s.wal"
    journal = SessionJournal(path, fsync=False)
    journal.record_open("sender", "intersection")
    journal.close()
    torn = encode(("out", 0, b"zz"))
    path.write_bytes(path.read_bytes() + len(torn).to_bytes(4, "big") + torn[:3])
    with caplog.at_level(logging.INFO, logger="repro"):
        SessionJournal(path, fsync=False).close()
    assert _records(caplog, "repro.net.journal") == [
        f"torn tail truncated path={path} dropped_bytes=7"
    ]


def test_a_compaction_is_one_catalog_record(tmp_path, caplog):
    params = PublicParams.for_bits(128)
    live = {f"v{i}": (1000 + i, (5000 + i,)) for i in range(4)}
    cache = CatalogCache(tmp_path, fsync=False)
    entry = cache.store(TableDigest(sorted(live)), "intersection.r", params, (7,), live)
    with caplog.at_level(logging.INFO, logger="repro"):
        for step in range(2):
            del live[f"v{step}"]
            live[f"w{step}"] = (2000 + step, (6000 + step,))
            entry = cache.append_delta(
                entry, TableDigest(sorted(live)), {f"w{step}": live[f"w{step}"]},
                [f"v{step}"],
            )
    # 5 records + two batches of 3 = 11 > 2 x 4 live values.
    assert _records(caplog, "repro.catalog") == ["catalog compacted records=11 entries=4"]
    assert entry.records == len(live) + 1


def test_cli_lines_print_as_before_and_stay_out_of_the_root_logger(capsys, caplog):
    with caplog.at_level(logging.INFO):
        assert cli._fail(5, "cannot reach the server: refused") == 5
    assert capsys.readouterr().err == "repro: cannot reach the server: refused\n"
    assert caplog.records == []
    assert logging.getLogger("repro.cli").propagate is False


def test_a_clean_sharded_shutdown_logs_no_warning(caplog):
    """Each drained worker's EOF is the end of its life, not a lost
    worker: a DEBUG record, not a WARNING (a killed worker still logs
    one, see ``test_worker_failover.py``)."""
    server = ShardedProtocolServer(
        {"intersection": (["b", "c", "x"], PublicParams.for_bits(96))}, shards=2
    )
    with caplog.at_level(logging.DEBUG, logger="repro"):
        with server:
            pass
    warnings = [
        r.getMessage() for r in caplog.records
        if r.name.startswith("repro") and r.levelno >= logging.WARNING
    ]
    assert warnings == []
    assert sorted(_records(caplog, "repro.net.shard")) == [
        "worker lost shard=0 notices=0", "worker lost shard=1 notices=0",
    ]

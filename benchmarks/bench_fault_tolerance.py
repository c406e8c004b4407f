"""Resilience experiment - completion cost vs injected fault rate.

Not a paper table (the paper's Section 6 cost model assumes a clean
channel); this measures what the fault-tolerant session layer pays to
restore that assumption over a lossy one. The measurement cores live
in :mod:`repro.bench.tasks.robustness` (registered as the
``robustness.*`` harness tasks, which also regenerate the committed
``BENCH_robustness.json``); this module keeps the pytest assertions
over the same code paths.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.bench.tasks.robustness import (
    CHAOS_BENCH_SEEDS,
    FAULT_RATES,
    JOURNAL_MODES,
    JOURNAL_SET_SIZES,
    build_crashed_journal,
    run_journaled,
    run_once,
    session_config,
)
from repro.net.chaos import ChaosSchedule, run_schedule
from repro.net.journal import JournalDir, open_session
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS


def _inputs(n: int):
    half = max(1, n // 4)
    v_r = [f"r{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s, {f"c{i}" for i in range(half)}


def test_report_completion_vs_fault_rate(bench_bits):
    """One JSON record per fault rate; cost grows, answers never change."""
    print("\nfault tolerance (completion cost vs injected fault rate):")
    records = [
        run_once(rate, seed=seed, bits=min(bench_bits, 256))
        for rate, seed in sorted(FAULT_RATES.items())
    ]
    for record in records:
        print("  " + json.dumps(record, sort_keys=True))

    clean = records[0]
    assert clean["faults"]["dropped"] == 0
    assert clean["faults"]["corrupted"] == 0
    assert clean["retransmits"] == 0
    # Faulty runs never move fewer bytes than the clean run: every
    # recovery is extra traffic on top of the protocol's own frames.
    for record in records[1:]:
        assert record["client_bytes_sent"] >= clean["client_bytes_sent"]
    # At least one nonzero rate must actually have injected something
    # (seeded plans make this deterministic).
    assert any(
        r["faults"]["dropped"] + r["faults"]["corrupted"] > 0
        for r in records[1:]
    ), "no faults fired across the swept rates"


@pytest.mark.parametrize("rate", [0.0, 0.20])
def test_fault_rate_extremes_complete(bench_bits, rate):
    """The endpoints of the sweep complete correctly on their own."""
    record = run_once(rate, seed=15, bits=min(bench_bits, 128))
    assert record["fault_rate"] == rate


def test_report_journal_overhead(bench_bits, tmp_path):
    """Sweep journal off / fsync off / fsync on across set sizes.

    One JSON line per cell. Durability is pure overhead on a clean
    channel, so the interesting number is the gap between the columns -
    fsync-on pays one ``fsync`` per journaled round plus one directory
    sync per rotation, fsync-off only the write syscalls.
    """
    bits = min(bench_bits, 256)
    print("\njournal overhead (crash durability cost per run):")
    records = [
        run_journaled(n, mode, bits, tmp_path)
        for n in JOURNAL_SET_SIZES
        for mode in JOURNAL_MODES
    ]
    for record in records:
        print("  " + json.dumps(record, sort_keys=True))
    # Every cell completed with the exact answer (asserted inside the
    # runner); all that is left to check is that the sweep is complete.
    assert len(records) == len(JOURNAL_SET_SIZES) * len(JOURNAL_MODES)


def test_report_kill_resume_recovery_time(bench_bits, tmp_path):
    """Time to rebuild party S's session from its journal after SIGKILL.

    Recovery replays every journaled round through a fresh machine and
    byte-verifies each recomputed outbound, so the cost scales with the
    protocol work already done - this measures it directly instead of
    through subprocess spawn noise (the chaos test in
    ``tests/integration/test_crash_recovery.py`` covers the live path).
    """
    bits = min(bench_bits, 256)
    params = PublicParams.for_bits(bits)
    spec = PROTOCOLS["intersection"]
    print("\nkill-resume (journal recovery time after a crash):")
    records = []
    for n in JOURNAL_SET_SIZES:
        journal_dir = JournalDir(tmp_path / f"resume-{n}", fsync=False)
        rounds = build_crashed_journal(journal_dir, params, n, 0xBE0000 + n)
        _, v_s, _ = _inputs(n)
        assert len(journal_dir.incomplete("sender", "intersection")) == 1
        started = time.perf_counter()
        session, _ = open_session(
            "sender", "intersection",
            lambda: spec.make_sender(v_s, params, random.Random("S")),
            params=params, journal_dir=journal_dir, config=session_config(),
        )
        elapsed = time.perf_counter() - started
        assert session.stats.rounds_recovered == rounds
        session.journal.close()
        record = {
            "benchmark": "kill-resume",
            "protocol": "intersection",
            "n": n,
            "bits": bits,
            "rounds_recovered": rounds,
            "recovery_s": round(elapsed, 6),
        }
        records.append(record)
        print("  " + json.dumps(record, sort_keys=True))
    # Larger sets journal more protocol state; replay must reflect it.
    assert records[-1]["rounds_recovered"] == records[0]["rounds_recovered"]


def test_report_chaos_schedule_survival():
    """Drive seeded chaos schedules and record the outcome mix.

    Each schedule composes network faults, disk faults, and crash
    points from its seed (see :mod:`repro.net.chaos`); the invariant -
    correct answer or typed clean failure - is asserted on every run.
    """
    print("\nchaos survival (seeded composed-fault schedules):")
    records = []
    for seed in CHAOS_BENCH_SEEDS:
        started = time.perf_counter()
        result = run_schedule(ChaosSchedule.generate(seed))
        assert result.ok, result.describe()
        records.append({
            "benchmark": "chaos-schedule",
            "elapsed_s": round(time.perf_counter() - started, 6),
            **result.as_dict(),
        })
    outcomes: dict[str, int] = {}
    for record in records:
        key = f"{record['receiver']}/{record['sender']}"
        outcomes[key] = outcomes.get(key, 0) + 1
    summary = {
        "benchmark": "chaos-summary",
        "schedules": len(records),
        "outcomes": outcomes,
        "total_restarts": sum(
            r["receiver_restarts"] + r["sender_restarts"] for r in records
        ),
        "answers": sum(1 for r in records if r["receiver"] == "answer"),
    }
    print("  " + json.dumps(summary, sort_keys=True))
    assert summary["answers"] >= len(records) // 2, (
        "chaos schedules should mostly still complete"
    )


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )
    from repro.bench.cli import legacy_main

    raise SystemExit(legacy_main("robustness"))

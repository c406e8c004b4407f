"""Subprocess entrypoint for the crash-recovery chaos tests.

Runs party S of one protocol through the public journaled driver
(:func:`repro.net.tcp.serve_resumable_sender`), announcing its bound
port through ``--port-file``. Started against a ``--journal-dir`` a
killed predecessor left behind, the driver recovers that run (the
restart-after-SIGKILL path); otherwise it starts a fresh session.

``--stall-marker`` arms the crash window: after journaling outbound
round ``--stall-round`` (i.e. durable on disk but *not yet shipped*),
the process writes the marker file and sleeps forever, waiting for the
parent test to SIGKILL it mid-run.

The sender factory is seeded ``random.Random("S")`` - exactly how the
golden transcript fixture was captured - so the parent can assert the
post-resume frames byte-identical against that fixture.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import time
from pathlib import Path

from repro.net import tcp
from repro.net.journal import SessionJournal
from repro.net.session import RetryPolicy, SessionConfig
from repro.protocols.parties import PublicParams
from repro.protocols.spec import PROTOCOLS


def _inputs(name: str, n: int):
    """Sender data for the golden-fixture inputs (see test_golden_transcripts)."""
    half = n // 2
    v_s = [f"s{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    if name == "equijoin":
        return {v: f"payload:{v}".encode() for v in v_s}
    if name == "equijoin-size":
        return v_s + v_s[:3]
    if name == "equijoin-sum":
        return {v: (i * 7) % 23 for i, v in enumerate(v_s)}
    return v_s


def _arm_stall(marker: str, stall_round: int) -> None:
    """After journaling outbound ``stall_round``, signal and hang."""
    original = SessionJournal.record_outbound

    def stalling(self, index: int, data: bytes) -> None:
        original(self, index, data)
        if index == stall_round:
            Path(marker).write_text(str(index))
            time.sleep(600)  # parent SIGKILLs us here

    SessionJournal.record_outbound = stalling


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--stall-marker", default=None)
    parser.add_argument("--stall-round", type=int, default=0)
    parser.add_argument("--bits", type=int, default=128)
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--chunk-size", type=int, default=None)
    args = parser.parse_args()

    if args.stall_marker:
        _arm_stall(args.stall_marker, args.stall_round)

    params = PublicParams.for_bits(args.bits)
    data = _inputs(args.protocol, args.n)
    # Party S keyed as the golden fixture keys it (and afresh on every
    # build, so a restart replays): the driver's own rng has already
    # given the session its seed by the time the factory runs.
    spec = PROTOCOLS[args.protocol]
    PROTOCOLS[args.protocol] = dataclasses.replace(
        spec,
        make_sender=lambda data, params, _rng, **kw: spec.make_sender(
            data, params, random.Random("S"), **kw
        ),
    )
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.1),
        max_reconnects=20,
        fin_grace_s=0.1,
    )
    size_v_r, stats = tcp.serve_resumable_sender(
        args.protocol, data, params, random.Random(1),
        ready_callback=lambda port: Path(args.port_file).write_text(str(port)),
        config=config, journal_dir=args.journal_dir,
        chunk_size=args.chunk_size,
    )
    if stats.rounds_recovered:
        print(f"recovered rounds={stats.rounds_recovered}", flush=True)
    print(f"DONE size_v_r={size_v_r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
